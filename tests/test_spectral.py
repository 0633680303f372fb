import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from aldous.graphs import WeightedGraph, complete_graph, random_connected_graph, rw_laplacian
from aldous.spectral import (
    DENSE_LIMIT,
    interlace_check,
    is_psd,
    multiset_equal,
    second_smallest_laplacian_eig,
    shift_bound_check,
)


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(3))

    def test_indefinite(self):
        assert not is_psd(np.diag([1.0, -1.0]))

    def test_tiny_negative_within_tol(self):
        assert is_psd(np.diag([1.0, -1e-12]), tol=1e-9)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            is_psd(np.zeros((2, 3)))


class TestInterlace:
    def test_trivial_true(self):
        assert interlace_check([0.0, 0.0], [0.0, 2.0])

    def test_violation(self):
        assert not interlace_check([0.0, 5.0], [0.0, 2.0])

    def test_inner_violation(self):
        # b_1 must not exceed a_2
        assert not interlace_check([0.0, 1.0, 4.0], [3.0, 3.5, 5.0])

    def test_collapse_pair(self):
        from aldous.graphs import collapse_last_vertex

        rng = np.random.default_rng(12)
        G = random_connected_graph(6, rng)
        before = np.linalg.eigvalsh(rw_laplacian(G))
        H = collapse_last_vertex(G, 6)
        padded = np.sort(np.concatenate([np.linalg.eigvalsh(rw_laplacian(H)), [0.0]]))
        assert interlace_check(padded, before, tol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            interlace_check([0.0], [0.0, 1.0])


class TestMultisetEqual:
    def test_permutation_invariant(self):
        assert multiset_equal([0.0, 3.0, 3.0], [3.0, 0.0, 3.0])

    def test_relabeled_graph_spectrum_unchanged(self):
        rng = np.random.default_rng(44)
        G = random_connected_graph(6, rng)
        H = G.relabeled({1: 6, 6: 2, 2: 1})
        a = np.linalg.eigvalsh(rw_laplacian(G))
        b = np.linalg.eigvalsh(rw_laplacian(H))
        assert multiset_equal(a, b, tol=1e-9)

    def test_tolerance(self):
        assert multiset_equal([0.0], [1e-12], tol=1e-9)
        assert not multiset_equal([0.0, 1.0], [0.0, 2.0])

    def test_length_mismatch_false(self):
        assert not multiset_equal([0.0], [0.0, 0.0])


class TestShiftBound:
    def test_star_into_last(self):
        G = WeightedGraph(4, {(1, 4): 1.0, (2, 4): 2.0, (3, 4): 0.5})
        assert shift_bound_check(G, tol=1e-9)

    def test_single_spoke_bound_is_2a(self):
        a = 1.3
        G = WeightedGraph(3, {(1, 3): a})
        # spectrum jumps from all zeros to {0,0,2a}: bound 2a is attained
        assert shift_bound_check(G, tol=1e-9)

    def test_random_instance(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            G = random_connected_graph(5, rng)
            assert shift_bound_check(G, tol=1e-9)

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            shift_bound_check(WeightedGraph(3, {(1, 2): 1.0}))


class TestSecondSmallest:
    def test_dense_path(self):
        L = rw_laplacian(complete_graph(4))
        assert second_smallest_laplacian_eig(L) == pytest.approx(4.0, abs=1e-10)

    def test_iterative_matches_dense(self):
        rng = np.random.default_rng(9)
        G = random_connected_graph(30, rng, extra_edge_prob=0.1)
        L = sp.csr_matrix(rw_laplacian(G))
        dense = second_smallest_laplacian_eig(L, dense_limit=10**6)
        iterative = second_smallest_laplacian_eig(L, dense_limit=5)
        assert iterative == pytest.approx(dense, abs=1e-7)

    def test_disconnected_gap_zero_iterative(self):
        G = WeightedGraph(12, {(i, i + 1): 1.0 for i in range(1, 6)})
        L = sp.csr_matrix(rw_laplacian(G))
        assert second_smallest_laplacian_eig(L, dense_limit=5) == pytest.approx(0.0, abs=1e-8)


def path_laplacian(n):
    G = WeightedGraph(n, {(i, i + 1): 1.0 for i in range(1, n)})
    return sp.csr_matrix(rw_laplacian(G))


def wrong_eigenpair(A, k, **kwargs):
    """Stands in for eigsh: a unit vector that is no eigenvector."""
    v = np.zeros((A.shape[0], 1))
    v[0, 0] = 1.0
    return np.array([0.5]), v


def no_convergence(A, k, **kwargs):
    raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((A.shape[0], 0)))


class TestIterativeFallback:
    @pytest.mark.parametrize("fake", [wrong_eigenpair, no_convergence])
    def test_falls_back_to_dense(self, monkeypatch, fake):
        L = path_laplacian(40)
        dense = second_smallest_laplacian_eig(L, dense_limit=10**6)
        monkeypatch.setattr(spla, "eigsh", fake)
        assert second_smallest_laplacian_eig(L, dense_limit=5) == dense

    @pytest.mark.parametrize("fake", [wrong_eigenpair, no_convergence])
    def test_raises_above_dense_limit(self, monkeypatch, fake):
        L = path_laplacian(DENSE_LIMIT + 1)
        monkeypatch.setattr(spla, "eigsh", fake)
        with pytest.raises(ValueError, match=f"dimension {DENSE_LIMIT + 1}.*residual"):
            second_smallest_laplacian_eig(L)
