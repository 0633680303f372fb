import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from aldous.graphs import WeightedGraph, random_connected_graph, rw_laplacian
from aldous.spectral import (
    DENSE_LIMIT,
    NoConvergence,
    bipartite_laplacian_gap,
    interlace_check,
    is_psd,
    multiset_equal,
    shift_bound_check,
)
from helpers import arpack_error, no_convergence, wrong_eigenpair


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


def cycle_block(m):
    """Block of the cycle on 2m vertices between its even vertices (rows)
    and odd ones (columns), the columns in reverse order: the circulant C
    in which vertex 2k meets 2k + 1 and 2k - 1, times the reversal
    permutation J of k -> -k mod m. J C J = C^T makes C J symmetric, and
    it has the singular values of C. Every row sums to 2, and the gap is
    2 - 2 cos(pi / m)."""
    reversal = sp.csr_matrix((np.ones(m), (np.arange(m), -np.arange(m) % m)), shape=(m, m))
    return sp.csr_matrix((sp.eye(m) + sp.eye(m, k=-1) + sp.eye(m, k=m - 1)) @ reversal)


def random_block(m, moves, rng):
    """A sum of `moves` random m x m involution matrices with random
    weights, each swapping m // 2 or m // 2 - 1 disjoint pairs of rows and
    fixing the rest, which puts entries on the diagonal: symmetric, with
    each row summing to the total weight, as in the interchange block.
    Returns the block and that total."""
    weights = rng.uniform(0.5, 1.5, size=moves)

    def involution():
        order, pairs = rng.permutation(m), m // 2 - int(rng.integers(0, 2))
        a, b = order[:pairs], order[pairs : 2 * pairs]
        image = np.arange(m)
        image[a], image[b] = b, a
        return sp.csr_matrix(np.eye(m)[image])

    return sp.csr_matrix(sum(w * involution() for w in weights)), float(weights.sum())


def dense_gap(B, total):
    """Second-smallest eigenvalue of [[W I, -B], [-B^T, W I]], assembled
    and solved densely."""
    b = B.toarray()
    diagonal = total * np.eye(len(b))
    return float(np.linalg.eigvalsh(np.block([[diagonal, -b], [-b.T, diagonal]]))[1])


class TestSecondSmallest:
    def test_dense_path(self):
        B = sp.csr_matrix(np.ones((4, 4)))  # the complete bipartite graph K_{4,4}
        assert dense_gap(B, 4.0) == pytest.approx(4.0, abs=1e-12)
        assert bipartite_laplacian_gap(B, 4.0) == pytest.approx(4.0, abs=1e-10)

    def test_iterative_matches_dense(self):
        rng = np.random.default_rng(9)
        B, total = random_block(30, 3, rng)
        assert bipartite_laplacian_gap(B, total) == pytest.approx(dense_gap(B, total), abs=1e-7)

    def test_disconnected_gap_zero_iterative(self):
        B = sp.csr_matrix(sp.block_diag([cycle_block(6), cycle_block(6)]))
        assert bipartite_laplacian_gap(B, 2.0) == pytest.approx(0.0, abs=1e-8)

    def test_cycle_gap(self):
        gap = 2.0 - 2.0 * np.cos(np.pi / 20)
        assert dense_gap(cycle_block(20), 2.0) == pytest.approx(gap, rel=1e-12)
        assert bipartite_laplacian_gap(cycle_block(20), 2.0) == pytest.approx(gap, rel=1e-12)

    def test_two_rows_and_no_fewer(self):
        """ARPACK cannot run on one row, so one row is refused as input, and
        so is a zero total rate, whose B is zero."""
        B = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))  # singular values 3 and 1
        assert bipartite_laplacian_gap(B, 3.0) == pytest.approx(2.0, abs=1e-12)
        for B, total in ((np.ones((1, 1)), 1.0), (np.zeros((2, 2)), 0.0)):
            with pytest.raises(ValueError, match="at least two rows and a positive total"):
                bipartite_laplacian_gap(sp.csr_matrix(B), total)


class TestIterativeFallback:
    """The kernel has no fallback of its own: it reports a failed residual
    check to its caller (`interchange.gap_interchange` falls back)."""

    @pytest.mark.parametrize("fake", [wrong_eigenpair, no_convergence, arpack_error])
    def test_raises_above_dense_limit(self, monkeypatch, fake):
        half = DENSE_LIMIT // 2 + 1
        monkeypatch.setattr(spla, "eigsh", fake)
        with pytest.raises(NoConvergence, match=f"dimension {2 * half}.*residual"):
            bipartite_laplacian_gap(cycle_block(half), 2.0)

    @pytest.mark.parametrize("fake", [wrong_eigenpair, no_convergence, arpack_error])
    def test_raises_below_dense_limit(self, monkeypatch, fake):
        monkeypatch.setattr(spla, "eigsh", fake)
        with pytest.raises(NoConvergence, match="dimension 40 .*residual"):
            bipartite_laplacian_gap(cycle_block(20), 2.0)
