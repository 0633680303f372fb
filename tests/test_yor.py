import math
import tracemalloc
import weakref
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aldous import tableaux, yor
from aldous.conjecture import comparison_weights
from aldous.graphs import (
    SignedWeightedGraph,
    WeightedGraph,
    complete_graph,
    path_graph,
    random_connected_graph,
    rw_laplacian,
    star_graph,
    wheel_graph,
)
from aldous.permutations import Permutation
from aldous.spectral import is_psd, multiset_equal
from aldous.conjecture import conjecture_matrix
from aldous.tableaux import (
    Partition,
    content,
    content_sum,
    covers_below,
    enumerate_partitions,
    enumerate_syt,
    f_dim,
)
from aldous.yor import (
    branching_check,
    irrep_laplacian,
    jucys_murphy,
    rho_adjacent,
    rho_sigma,
    rho_transposition,
    s4_transposition_matrix,
    s4_transposition_vectors,
    shape_spectra,
    transposition_difference,
)
from helpers import loop_rho_sums, signed_graphs


def dense_adjacent_oracle(lam, i):
    """Young's orthogonal form of (i, i+1), built entry by entry from the
    validated tableau objects (the three rules of the `aldous.yor` docstring)."""
    tabs = enumerate_syt(lam)
    index = {t.rows: k for k, t in enumerate(tabs)}
    M = np.zeros((len(tabs), len(tabs)))
    for k, t in enumerate(tabs):
        row_i, col_i = t.position(i)
        row_j, col_j = t.position(i + 1)
        if row_i == row_j:
            M[k, k] = 1.0
        elif col_i == col_j:
            M[k, k] = -1.0
        else:
            m = index[t.swap_values(i, i + 1).rows]
            r = (col_j - row_j) - (col_i - row_i)
            M[k, k] = 1.0 / r
            M[k, m] = math.sqrt(1.0 - 1.0 / r**2)
    return M


def dense_transposition_oracle(lam, i, j):
    """rho_ij by dense conjugation A @ M @ A down the adjacent chain."""
    M = dense_adjacent_oracle(lam, j - 1)
    for m in range(j - 2, i - 1, -1):
        A = dense_adjacent_oracle(lam, m)
        M = A @ M @ A
    return M


def random_partition(rng, n):
    options = enumerate_partitions(n)
    return options[int(rng.integers(0, len(options)))]


class TestRhoAdjacent:
    def test_trivial_shape_is_plus_one(self):
        for n in range(2, 6):
            for i in range(1, n):
                assert np.array_equal(rho_adjacent(Partition((n,)), i), [[1.0]])

    def test_column_shape_is_minus_one(self):
        for n in range(2, 6):
            for i in range(1, n):
                assert np.array_equal(rho_adjacent(Partition((1,) * n), i), [[-1.0]])

    def test_shape_21_generator_1(self):
        assert np.array_equal(rho_adjacent(Partition((2, 1)), 1), np.diag([1.0, -1.0]))

    def test_shape_21_generator_2_mixed_block(self):
        M = rho_adjacent(Partition((2, 1)), 2)
        expected = np.array([[-0.5, np.sqrt(3) / 2], [np.sqrt(3) / 2, 0.5]])
        assert np.allclose(M, expected, atol=1e-15)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            rho_adjacent(Partition((2, 1)), 3)

    def test_symmetric_orthogonal_involutive(self):
        for n in range(2, 7):
            for lam in enumerate_partitions(n):
                for i in range(1, n):
                    M = rho_adjacent(lam, i)
                    assert np.abs(M - M.T).max() <= 1e-12
                    assert np.abs(M @ M - np.eye(len(M))).max() <= 1e-12


class TestRhoTransposition:
    def test_adjacent_case(self):
        lam = Partition((3, 2))
        assert np.allclose(rho_transposition(lam, 2, 3), rho_adjacent(lam, 2), atol=1e-14)

    def test_involution_and_orthogonality(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            lam = random_partition(rng, n)
            i = int(rng.integers(1, n))
            j = int(rng.integers(i + 1, n + 1))
            M = rho_transposition(lam, i, j)
            assert np.abs(M - M.T).max() <= 1e-10
            assert np.abs(M @ M - np.eye(len(M))).max() <= 1e-10

    def test_conjugation_consistency(self):
        # (i j) = sigma (j-1, j) sigma^{-1} for the adjacent chain sigma
        lam = Partition((3, 2, 1))
        n, i, j = 6, 2, 5
        sigma = Permutation.identity(n)
        for m in range(i, j - 1):
            sigma = sigma * Permutation.transposition(n, m, m + 1)
        S = rho_sigma(lam, sigma)
        inner = rho_adjacent(lam, j - 1)
        assert np.allclose(rho_transposition(lam, i, j), S @ inner @ S.T, atol=1e-10)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            rho_transposition(Partition((2, 2)), 2, 2)
        with pytest.raises(ValueError):
            rho_transposition(Partition((2, 2)), 0, 3)
        with pytest.raises(ValueError):
            rho_transposition(Partition((2, 2)), 1, 5)


class TestRhoSigma:
    def test_identity(self):
        lam = Partition((3, 1))
        assert np.array_equal(rho_sigma(lam, Permutation.identity(4)), np.eye(3))

    def test_involution_squares_to_identity(self):
        lam = Partition((3, 1))
        t = Permutation.transposition(4, 1, 2)
        assert np.allclose(rho_sigma(lam, t * t), np.eye(3), atol=1e-14)

    def test_matches_transposition_path(self):
        # two independent constructions of the same matrix
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            lam = random_partition(rng, n)
            i = int(rng.integers(1, n))
            j = int(rng.integers(i + 1, n + 1))
            M1 = rho_sigma(lam, Permutation.transposition(n, i, j))
            M2 = rho_transposition(lam, i, j)
            assert np.abs(M1 - M2).max() <= 1e-10

    def test_homomorphism_s5(self):
        rng = np.random.default_rng(11)
        lam = Partition((3, 2))
        for _ in range(25):
            sigma = Permutation(tuple(rng.permutation(5) + 1))
            tau = Permutation(tuple(rng.permutation(5) + 1))
            lhs = rho_sigma(lam, sigma) @ rho_sigma(lam, tau)
            rhs = rho_sigma(lam, sigma * tau)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            rho_sigma(Partition((2, 1)), Permutation.identity(4))

    def test_character_orthogonality(self):
        # independent oracle: sum over the group of chi_a(s) chi_b(s) is
        # n! when a == b (irreducibility) and 0 otherwise
        import math

        for n in range(2, 6):
            shapes = enumerate_partitions(n)
            characters = []
            for lam in shapes:
                characters.append(
                    [
                        float(np.trace(rho_sigma(lam, Permutation(word))))
                        for word in permutations(range(1, n + 1))
                    ]
                )
            for a, chi_a in enumerate(characters):
                for b, chi_b in enumerate(characters):
                    inner = sum(x * y for x, y in zip(chi_a, chi_b))
                    expected = math.factorial(n) if a == b else 0.0
                    assert inner == pytest.approx(expected, abs=1e-8), (shapes[a], shapes[b])


class TestIrrepLaplacian:
    def test_trivial_shape_is_zero(self):
        rng = np.random.default_rng(0)
        G = random_connected_graph(5, rng)
        assert np.array_equal(irrep_laplacian(Partition((5,)), G), [[0.0]])

    def test_sign_shape_complete_graph(self):
        for n in range(2, 6):
            L = irrep_laplacian(Partition((1,) * n), complete_graph(n))
            assert L.shape == (1, 1)
            assert L[0, 0] == pytest.approx(n * (n - 1), abs=1e-12)

    def test_hook_shape_matches_rw_spectrum(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            G = random_connected_graph(n, rng)
            rw = np.linalg.eigvalsh(rw_laplacian(G))
            block = np.linalg.eigvalsh(irrep_laplacian(Partition((n - 1, 1)), G))
            assert multiset_equal(rw, np.concatenate([[0.0], block]), tol=1e-9)

    def test_differences_are_psd(self):
        for lam in enumerate_partitions(5):
            assert is_psd(transposition_difference(lam, 2, 4), tol=1e-10)

    def test_signed_weights_accepted(self):
        H = SignedWeightedGraph(3, {(1, 3): 1.0, (1, 2): -0.5})
        L = irrep_laplacian(Partition((2, 1)), H)
        assert np.abs(L - L.T).max() == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            irrep_laplacian(Partition((2, 1)), complete_graph(4))


class TestSignedWeightedGraph:
    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(ValueError):
            SignedWeightedGraph(3, {(2, 2): 1.0})
        with pytest.raises(ValueError):
            SignedWeightedGraph(3, {(1, 2): 1.0, (2, 1): 1.0})

    def test_allows_negative(self):
        H = SignedWeightedGraph(3, {(1, 2): -2.0})
        assert H.weights[(1, 2)] == -2.0


class TestJucysMurphy:
    def test_single_row(self):
        for k in range(2, 6):
            for j in range(2, k + 1):
                X = jucys_murphy(Partition((k,)), j)
                assert X[0, 0] == pytest.approx(j - 1, abs=1e-12)

    def test_single_column(self):
        for k in range(2, 6):
            for j in range(2, k + 1):
                X = jucys_murphy(Partition((1,) * k), j)
                assert X[0, 0] == pytest.approx(-(j - 1), abs=1e-12)

    def test_shape_22_top_value(self):
        X = jucys_murphy(Partition((2, 2)), 4)
        assert np.allclose(X, np.zeros((2, 2)), atol=1e-12)

    def test_diagonal_with_contents_up_to_6(self):
        for n in range(2, 7):
            for lam in enumerate_partitions(n):
                tabs = enumerate_syt(lam)
                for j in range(2, n + 1):
                    X = jucys_murphy(lam, j)
                    off = X - np.diag(np.diag(X))
                    assert np.abs(off).max() <= 1e-10
                    for k, t in enumerate(tabs):
                        assert X[k, k] == pytest.approx(content(t, j), abs=1e-10)

    def test_commute(self):
        lam = Partition((3, 2))
        X3, X4 = jucys_murphy(lam, 3), jucys_murphy(lam, 4)
        assert np.abs(X3 @ X4 - X4 @ X3).max() <= 1e-12

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            jucys_murphy(Partition((2, 1)), 1)
        with pytest.raises(ValueError):
            jucys_murphy(Partition((2, 1)), 4)


class TestBranching:
    def test_trivial_shape(self):
        ok, witness = branching_check(Partition((4,)), 1, 2)
        assert ok and witness == (0,)

    def test_31_and_22(self):
        ok, _ = branching_check(Partition((3, 1)), 1, 2)
        assert ok
        ok, _ = branching_check(Partition((2, 2)), 1, 3)
        assert ok

    def test_exhaustive_small(self):
        for n in range(2, 7):
            for lam in enumerate_partitions(n):
                for i in range(1, n - 1):
                    for j in range(i + 1, n):
                        ok, witness = branching_check(lam, i, j)
                        assert ok, (lam, i, j)
                        assert sorted(witness) == list(range(f_dim(lam)))

    def test_witness_is_real_permutation_similarity(self):
        lam = Partition((3, 2))
        ok, witness = branching_check(lam, 1, 3)
        assert ok
        M = rho_transposition(lam, 1, 3)
        P = np.zeros((5, 5))
        for new, old in enumerate(witness):
            P[new, old] = 1.0
        regrouped = P @ M @ P.T
        # top-left block must be the (2,2) matrix, bottom-right the (3,1) one
        assert np.allclose(regrouped[:2, :2], rho_transposition(Partition((2, 2)), 1, 3), atol=1e-12)
        assert np.allclose(regrouped[2:, 2:], rho_transposition(Partition((3, 1)), 1, 3), atol=1e-12)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            branching_check(Partition((2, 2)), 1, 4)

    def test_independent_of_the_branching_builder(self, monkeypatch):
        import aldous.yor as yor

        def refuse(*args):
            raise AssertionError("branching_check used _rho_sums")

        monkeypatch.setattr(yor, "_rho_sums", refuse)
        assert branching_check(Partition((3, 2)), 1, 3)[0]

    def test_dictionary_order_does_not_group_corners(self):
        # recorded empirical fact: dictionary order interleaves the
        # corner-of-n groups for some shapes, so the explicit witness
        # permutation is load-bearing (it is not always the identity)
        corners = [t.position(5) for t in enumerate_syt(Partition((3, 2)))]
        assert corners == [(2, 2), (2, 2), (1, 3), (2, 2), (1, 3)]
        ok, witness = branching_check(Partition((3, 2)), 1, 2)
        assert ok
        assert witness != tuple(range(5))


class TestS4ReferenceData:
    def test_vector_count(self):
        assert len(s4_transposition_vectors()) == 18

    def test_specific_vectors(self):
        vecs = s4_transposition_vectors()
        assert np.allclose(vecs[((3, 1), 1, 2)], [0.0, 0.0, np.sqrt(2)])
        assert np.allclose(vecs[((2, 2), 3, 4)], [0.0, np.sqrt(2)])

    def test_all_matrices_match_generic_construction(self):
        for parts in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
            lam = Partition(parts)
            for i in range(1, 4):
                for j in range(i + 1, 5):
                    golden = s4_transposition_matrix(lam, i, j)
                    generic = rho_transposition(lam, i, j)
                    assert np.abs(golden - generic).max() <= 1e-12, (parts, i, j)

    def test_31_vectors_are_differences(self):
        vecs = s4_transposition_vectors()
        for i in range(1, 3):
            for j in range(i + 1, 4):
                vij = vecs[((3, 1), i, j)]
                diff = vecs[((3, 1), i, 4)] - vecs[((3, 1), j, 4)]
                assert np.allclose(vij, diff, atol=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            s4_transposition_matrix(Partition((3, 2)), 1, 2)
        with pytest.raises(ValueError):
            s4_transposition_matrix(Partition((3, 1)), 2, 2)


class TestSparseKernel:
    def test_adjacent_matches_dense_oracle_exactly(self):
        for n in range(2, 8):
            for lam in enumerate_partitions(n):
                for i in range(1, n):
                    assert np.array_equal(rho_adjacent(lam, i), dense_adjacent_oracle(lam, i))

    def test_transposition_matches_dense_chain(self):
        for n in range(2, 8):
            for lam in enumerate_partitions(n):
                for i in range(1, n):
                    for j in range(i + 1, n + 1):
                        oracle = dense_transposition_oracle(lam, i, j)
                        assert np.abs(rho_transposition(lam, i, j) - oracle).max() <= 1e-14

    def test_tables_build_no_tableau_objects(self, monkeypatch):
        def refuse(self):
            raise AssertionError("StandardTableau constructed on the kernel path")

        monkeypatch.setattr(tableaux.StandardTableau, "__post_init__", refuse)
        # an empty cache, so that the tableaux are enumerated under the refusal too
        monkeypatch.setattr(tableaux, "_LAST_LETTER", {(1,): tableaux._LAST_LETTER[(1,)]})
        for i in range(1, 9):
            diag, off, partner = yor._adjacent_table.__wrapped__((4, 3, 2), i)
            assert len(diag) == len(off) == len(partner) == f_dim(Partition((4, 3, 2)))

    def test_long_shapes_match_dense_oracle(self):
        # past 128 rows or columns an int8 row index overflows
        for parts in ((2,) + (1,) * 255, (256, 1)):
            lam = Partition(parts)
            for i in (1, 2, 127, 128, 255, lam.n - 1):
                assert np.array_equal(rho_adjacent(lam, i), dense_adjacent_oracle(lam, i))
        # with 257 rows, partners are found by words that first differ
        # above their lowest byte (a hook's words always differ against 0)
        parts = (2, 2) + (1,) * 255
        R = tableaux.last_letter_rows(parts)
        for i in (2, 128, 256, 258):
            _, _, partner = yor._adjacent_table(parts, i)
            moved = np.flatnonzero(partner != np.arange(len(R)))
            swapped = R[moved]
            swapped[:, [i - 1, i]] = swapped[:, [i, i - 1]]
            assert len(moved) > 0 and np.array_equal(R[partner[moved]], swapped)

    def test_rho_sigma_matches_dense_product(self):
        lam = Partition((3, 2, 1))
        sigma = Permutation((4, 3, 2, 5, 6, 1))
        M = np.eye(f_dim(lam))
        for i in sigma.adjacent_factorization():
            M = M @ dense_adjacent_oracle(lam, i)
        assert np.abs(rho_sigma(lam, sigma) - M).max() <= 1e-14


def _graph_from_draw(n, weights, signed):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = {pair: w for pair, w in zip(pairs, weights) if w != 0.0}
    return SignedWeightedGraph(n, chosen) if signed else WeightedGraph(n, chosen)


@st.composite
def shape_and_graph(draw, signed):
    n = draw(st.integers(min_value=3, max_value=7))
    lam = draw(st.sampled_from(enumerate_partitions(n)))
    low = -2.0 if signed else 0.0
    weight = st.one_of(st.just(0.0), st.floats(min_value=low, max_value=2.0))
    weights = draw(st.lists(weight, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return lam, _graph_from_draw(n, weights, signed)


class TestBlockOracle:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_is_dense_sum_of_transpositions(self, data):
        # every edge at once, so a slot or corner-group placement error in
        # the level-by-level builder shows even where single edges agree
        n = data.draw(st.integers(min_value=2, max_value=6))
        lam = data.draw(st.sampled_from(enumerate_partitions(n)))
        weight = st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=2.0))
        weights = data.draw(st.lists(weight, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        if data.draw(st.booleans()):
            weights = [0.0] * len(weights)
        G = _graph_from_draw(n, weights, signed=True)
        f = f_dim(lam)
        expected = sum(G.weights.values()) * np.eye(f)
        for (i, j), w in G.weights.items():
            expected -= w * dense_transposition_oracle(lam, i, j)
        scale = 1.0 + sum(abs(w) for w in G.weights.values())
        assert np.abs(irrep_laplacian(lam, G) - expected).max() <= 1e-13 * scale


class TestConjugateTwist:
    @pytest.mark.parametrize("signed", [False, True])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_conjugate_spectrum_is_reflected(self, signed, data):
        lam, G = data.draw(shape_and_graph(signed))
        total = sum(G.weights.values())
        direct = np.linalg.eigvalsh(irrep_laplacian(lam.conjugate(), G))
        twisted = 2.0 * total - np.linalg.eigvalsh(irrep_laplacian(lam, G))[::-1]
        scale = 1.0 + sum(abs(w) for w in G.weights.values())
        assert np.abs(direct - twisted).max() <= 1e-12 * scale

    def test_shape_spectra_matches_direct_solves(self):
        rng = np.random.default_rng(21)
        for n in range(2, 8):
            G = random_connected_graph(n, rng)
            spectra = shape_spectra(G)
            assert [lam for lam, _, _ in spectra] == enumerate_partitions(n)
            for lam, vals, norm in spectra:
                L = irrep_laplacian(lam, G)
                scale = 1.0 + np.abs(L).max()
                assert np.abs(vals - np.linalg.eigvalsh(L)).max() <= 1e-12 * scale
                assert norm == pytest.approx(np.abs(L).max(), rel=1e-12, abs=1e-12)

    def test_signed_weights_norm_uses_reflected_diagonal(self):
        H = SignedWeightedGraph(4, {(1, 4): 1.0, (2, 4): 2.0, (3, 4): 0.5, (1, 2): -0.9})
        for lam, _, norm in shape_spectra(H):
            assert norm == pytest.approx(np.abs(irrep_laplacian(lam, H)).max(), rel=1e-12)


FIXED_GRAPHS = {
    "path": path_graph,
    "star": lambda n: star_graph(n) if n >= 2 else WeightedGraph(1, {}),
    "one_edge": lambda n: WeightedGraph(n, {(1, n): 1.3} if n >= 2 else {}),
    "complete": lambda n: complete_graph(n) if n >= 2 else WeightedGraph(1, {}),
    # level 3 gains column n-1 between the columns n-2 and n of level 2
    "gapped": lambda n: WeightedGraph(n, {(1, n - 2): 1.0, (1, n): 0.7, (2, n - 1): 0.4} if n >= 5 else {}),
}


class TestLoopOracle:
    """The batched builder `_rho_sums` against `loop_rho_sums`, the
    builder with one f x f slot per column that it replaced: every block
    equal bit for bit, signed zeros included."""

    @staticmethod
    def assert_same_blocks(G):
        shapes = [lam.parts for lam in enumerate_partitions(G.n)]
        built = list(yor._rho_sums(G.n, G.weights, shapes))
        looped = list(loop_rho_sums(G.n, G.weights, shapes))
        assert [parts for parts, _ in built] == [parts for parts, _ in looped] == shapes
        for (parts, S), (_, T) in zip(built, looped):
            assert S.shape == T.shape and S.tobytes() == T.tobytes(), parts

    @given(signed_graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_signed_graphs(self, G):
        self.assert_same_blocks(G)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("family", FIXED_GRAPHS)
    def test_fixed_graphs(self, family, n):
        self.assert_same_blocks(FIXED_GRAPHS[family](n))

    @pytest.mark.parametrize(
        "G",
        [wheel_graph(8, seed=2), random_connected_graph(8, np.random.default_rng(4)), comparison_weights(range(1, 8))],
        ids=["wheel", "random", "comparison"],
    )
    def test_shape_spectra_through_the_oracle(self, monkeypatch, G):
        def flat(spectra):
            return [(lam, vals.tobytes(), norm) for lam, vals, norm in spectra]

        built = flat(shape_spectra(G))
        monkeypatch.setattr(yor, "_rho_sums", loop_rho_sums)
        assert flat(shape_spectra(G)) == built


def test_yielded_block_is_freed_before_the_next_is_built(monkeypatch):
    """`_rho_sums` keeps no hold on a top block it has yielded: once the
    caller drops the block, its array is gone before `_grow` starts the
    next top block, so `shape_spectra` holds one top block at a time."""
    G = wheel_graph(7, seed=1)
    shapes = [lam.parts for lam in enumerate_partitions(G.n)]
    grow, previous, freed = yor._grow, [], []

    def watched(lam, below, step):
        if sum(lam) == G.n and previous:
            freed.append(previous[-1]() is None)
        return grow(lam, below, step)

    monkeypatch.setattr(yor, "_grow", watched)
    for _, L in yor._rho_sums(G.n, G.weights, shapes):
        previous.append(weakref.ref(L.base))
        del L
    assert freed == [True] * (len(shapes) - 1)


@st.composite
def rated_graphs(draw):
    """Random connected graphs with rates spread over six decades, or the
    signed comparison weights of `check_conjecture`."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 8))
        G = random_connected_graph(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        scale = st.floats(1e-3, 1e3)
        return WeightedGraph(n, {e: w * draw(scale) for e, w in G.weights.items()})
    k = draw(st.integers(2, 8))
    gamma = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=k - 1, max_size=k - 1))
    assume(k == 2 or sum(gamma) > 0)
    return comparison_weights(gamma)


class TestTraceIdentity:
    @given(rated_graphs())
    @settings(max_examples=60, deadline=None)
    def test_spectrum_sums_to_the_content_trace(self, G):
        # tr L^lam = f W (1 - p1(lam) / C(n, 2)): every transposition has
        # the character f p1 / C(n, 2); the reflected shapes are covered too
        total = sum(G.weights.values())
        pairs = G.n * (G.n - 1) // 2
        for lam, vals, norm in shape_spectra(G):
            f = len(vals)
            trace = f * total * (1 - content_sum(lam) / pairs)
            tol = 4 * f * G.n * np.finfo(float).eps * (1 + norm)
            assert abs(vals.sum() - trace) <= tol, lam


class TestSquaredNormIdentity:
    @given(rated_graphs())
    @settings(max_examples=60, deadline=None)
    def test_squared_spectrum_sums_to_the_content_moment(self, G):
        # tr (L^lam)^2 = f [W^2 (1 - 2 x2) + S0 + S1 x3 + S2 x22], with x2,
        # x3 and x22 the normalised characters of a transposition, a
        # 3-cycle and a double transposition: sum_k J_k^2 = C2 e + (all
        # 3-cycles) and T^2 = C2 e + 3 (all 3-cycles) + 2 (all double
        # transpositions) for the Jucys-Murphy elements J_k and their sum
        # T. The moment is formed exactly, so only the block's error counts.
        n, weights = G.n, {e: Fraction(w) for e, w in G.weights.items()}
        total = sum(weights.values())
        S0 = sum(w * w for w in weights.values())
        at = [[w for e, w in weights.items() if v in e] for v in range(1, n + 1)]
        S1 = sum(sum(ws) ** 2 - sum(w * w for w in ws) for ws in at)  # edges sharing a vertex
        S2 = total * total - S0 - S1
        C2, C3, D = n * (n - 1) // 2, n * (n - 1) * (n - 2) // 3, n * (n - 1) * (n - 2) * (n - 3) // 8
        for lam, vals, norm in shape_spectra(G):
            p1 = content_sum(lam)
            p2 = sum((c - r) ** 2 for r, row in enumerate(lam.parts) for c in range(row))  # squared contents
            x2 = Fraction(p1, C2)
            x3 = Fraction(p2 - C2, C3) if C3 else 0
            x22 = (p1 * p1 - C2 - 3 * C3 * x3) / (2 * D) if D else 0
            f = len(vals)
            moment = f * (total * total * (1 - 2 * x2) + S0 + S1 * x3 + S2 * x22)
            tol = 8 * f * n * np.finfo(float).eps * (1 + norm) ** 2
            assert abs(np.square(vals).sum() - float(moment)) <= tol, lam


SINGLE_SHAPE_BUILDERS = {
    "irrep_laplacian": lambda lam: irrep_laplacian(lam, complete_graph(lam.n)),
    "irrep_laplacian_path": lambda lam: irrep_laplacian(lam, path_graph(lam.n)),
    "rho_transposition": lambda lam: rho_transposition(lam, 1, lam.n),
    "jucys_murphy": lambda lam: jucys_murphy(lam, lam.n),
    "conjecture_matrix": lambda lam: conjecture_matrix(lam, [1.0] * (lam.n - 1)),
}


class TestSingleShapeGuard:
    """The builders of one shape's weighted sum of transpositions refuse,
    before building, a shape whose arrays would not fit."""

    @staticmethod
    def need(lam):
        """The top block and a second f x f array, two stack slots for each
        shape one box below, counted by enumerating the tableaux, and 200
        bytes per box of each tableau."""
        f = len(enumerate_syt(lam))
        below = sum(len(enumerate_syt(mu)) ** 2 for mu in covers_below(lam))
        return (2 * f * f + 2 * below) * 8 + 200 * lam.n * f

    @pytest.mark.parametrize("builder", SINGLE_SHAPE_BUILDERS)
    def test_refuses_exactly_above_the_estimate(self, monkeypatch, builder):
        lam = Partition((3, 2, 1))
        monkeypatch.setattr(yor, "_available_bytes", lambda: self.need(lam))
        SINGLE_SHAPE_BUILDERS[builder](lam)
        monkeypatch.setattr(yor, "_available_bytes", lambda: self.need(lam) - 1)
        with pytest.raises(ValueError, match=r"16 x 16 arrays of shape \(3,2,1\)"):
            SINGLE_SHAPE_BUILDERS[builder](lam)

    @pytest.mark.parametrize("parts", [(4, 3, 2, 1), (3, 3, 2, 1, 1)])
    @pytest.mark.parametrize("builder", SINGLE_SHAPE_BUILDERS)
    def test_estimate_bounds_the_traced_peak(self, monkeypatch, builder, parts):
        """The estimate is at least the peak that `tracemalloc` sees in a
        second run (the first fills the caches of tableaux and adjacent
        tables) and, unless a path leaves most stack slots zero, at most
        1.5 times it."""
        lam = Partition(parts)
        needs = []
        monkeypatch.setattr(yor, "_require_bytes", lambda need, what: needs.append(need))
        SINGLE_SHAPE_BUILDERS[builder](lam)
        tracemalloc.start()
        try:
            SINGLE_SHAPE_BUILDERS[builder](lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert needs[0] == needs[1] == self.need(lam)
        assert peak <= needs[0]
        if builder != "irrep_laplacian_path":
            assert needs[0] <= 1.5 * peak
