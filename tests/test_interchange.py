import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import aldous

from aldous.graphs import (
    SignedWeightedGraph,
    WeightedGraph,
    complete_graph,
    path_graph,
    random_connected_graph,
    rw_laplacian,
    wheel_graph,
)
from aldous.interchange import (
    aldous_check,
    gap_interchange,
    gap_rw,
    interchange_spectrum,
    spectrum_via_irreps,
)
import aldous.conjecture as conjecture
import aldous.interchange as interchange
import aldous.yor as yor
from aldous.conjecture import check_conjecture, comparison_weights
from aldous.spectral import bipartite_laplacian_gap, iterative_solve_bytes, multiset_equal
from aldous.tableaux import Partition, enumerate_partitions, enumerate_syt
from aldous.yor import irrep_laplacian, shape_spectra
from helpers import (
    arpack_error,
    forbid_large_factorials,
    loop_module_rates,
    loop_interchange_laplacian,
    no_convergence,
    searchsorted_module_block,
    signed_graphs,
    transpose_bipartite_laplacian_gap,
    wrong_eigenpair,
)


def assert_same_csr(A, B):
    """Equal CSR arrays, bit for bit, with equal dtypes and sorted rows.
    The order of a row's entries decides how a matvec rounds, which
    `(A != B).nnz` cannot see."""
    assert A.shape == B.shape and A.has_sorted_indices and B.has_sorted_indices
    for a, b in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def dense_gap(G):
    """Second-smallest value of the dense n!-point spectrum."""
    return float(interchange_spectrum(G)[1])


def pairs(n):
    """(2, 1^(n-2)), the module whose block is the even-to-odd block."""
    return (2,) + (1,) * (n - 2)


def hook(n, k):
    """(k, 1^(n-k)), the module of k identical labels."""
    return (k,) + (1,) * (n - k)


def block_and_total(G):
    return interchange._module_block(G, pairs(G.n)), float(sum(G.weights.values()))


def odd_words(n):
    """Parity of each word in rank order, by counting its inversions."""
    return np.array(
        [sum(a > b for k, a in enumerate(w) for b in w[k + 1:]) % 2 for w in permutations(range(n))],
        dtype=bool,
    )


def even_odd_block(G):
    """`_module_block(G, (2, 1^(n-2)))` with its rows in the rank order of
    the even words and its columns in that of the odd words, and sorted
    rows. A word gives each letter the label of the place that holds it,
    1..n-2 for the first n - 2 places and 0 for the last two, and the row
    of its label word is that word's rank among the distinct label words
    in lexicographic order; the even and the odd word of a row differ by
    a swap of their last two places."""
    n = G.n
    words = np.array(list(permutations(range(n)))).reshape(-1, n)
    labels = np.empty_like(words)
    labels[np.arange(len(words))[:, None], words] = list(range(1, n - 1)) + [0, 0]
    row = np.unique(labels, axis=0, return_inverse=True)[1].reshape(-1)
    odd = odd_words(n)
    block = interchange._module_block(G, pairs(n))[row[~odd]][:, row[odd]]
    block.sort_indices()
    return block


def loop_block(G):
    """The negated block of the loop-built Laplacian between the even rows
    and the odd columns, with sorted rows."""
    odd = odd_words(G.n)
    block = -loop_interchange_laplacian(G)[np.flatnonzero(~odd)][:, np.flatnonzero(odd)]
    block.sort_indices()
    return block


GAP_FAMILIES = {
    "path": path_graph,
    "complete": complete_graph,
    "wheel": wheel_graph,
    "random": lambda n: random_connected_graph(n, np.random.default_rng(n), extra_edge_prob=0.3),
    "one_edge": lambda n: WeightedGraph(n, {(1, n): 1.3}),
}


def gap_cases(low, high):
    """(family, n) for n = low..high; a wheel needs four vertices."""
    return [(f, n) for f in GAP_FAMILIES for n in range(low, high + 1) if f != "wheel" or n >= 4]


class TestInterchangeLaplacian:
    def test_one_vertex(self):
        assert interchange_spectrum(WeightedGraph(1, {})).tolist() == [0.0]

    def test_two_vertices(self):
        a = 0.9
        G = WeightedGraph(2, {(1, 2): a})
        assert interchange._module_block(G, pairs(2)).toarray().tolist() == [[a]]
        assert np.allclose(interchange_spectrum(G), [0.0, 2 * a], atol=1e-15)

    def test_k3_structure(self):
        # each even word of S_3 reaches each odd word by one transposition
        B = interchange._module_block(complete_graph(3), pairs(3))
        assert np.array_equal(B.toarray(), np.ones((3, 3)))
        assert np.allclose(interchange_spectrum(complete_graph(3)), [0, 3, 3, 3, 3, 6], atol=1e-12)

    def test_disconnected_kernel_multiplicity(self):
        G = WeightedGraph(4, {(1, 2): 1.0, (3, 4): 1.0})
        assert np.sum(np.abs(interchange_spectrum(G)) < 1e-10) > 1

    def test_connected_kernel_is_one_dimensional(self):
        rng = np.random.default_rng(17)
        G = random_connected_graph(4, rng)
        assert np.sum(np.abs(interchange_spectrum(G)) < 1e-10) == 1

    def test_nnz_count(self):
        G = complete_graph(3)
        B = interchange._module_block(G, pairs(3))
        assert B.nnz == math.factorial(3) // 2 * len(G.positive_edges())

    @settings(max_examples=60, deadline=None)
    @given(signed_graphs())
    def test_matches_loop_oracle(self, G):
        """The spectrum taken from the even-to-odd block is the spectrum of
        the loop-built n! x n! Laplacian, for signed, zero and all-zero
        weights."""
        direct = np.linalg.eigvalsh(loop_interchange_laplacian(G).toarray())
        values = interchange_spectrum(G)
        assert values.shape == direct.shape == (math.factorial(G.n),)
        assert np.abs(values - direct).max() <= 1e-12 * (1.0 + np.abs(direct).max())

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_loop_oracle_large(self, n):
        """B, with its rows and columns put in the order of the even and the
        odd words, is bit for bit in its CSR arrays the negated block of the
        loop-built Laplacian between the even rows and the odd columns."""
        G = random_connected_graph(n, np.random.default_rng(n), extra_edge_prob=0.3)
        block = loop_block(G)
        assert block.nnz == math.factorial(n) // 2 * len(G.weights)
        assert_same_csr(even_odd_block(G), block)

    @settings(max_examples=60, deadline=None)
    @given(signed_graphs())
    def test_block_matches_loop_oracle_bit_for_bit(self, G):
        """The same for signed, zero and all-zero weights, whose rows include
        the diagonal entry of a swap of the two equal labels."""
        assume(G.n >= 2)
        assert_same_csr(even_odd_block(G), loop_block(G))


class TestGaps:
    def test_two_vertex_gap(self, monkeypatch):
        """The module of (2) has one row, whose dense double gives the gap
        without ARPACK."""
        G = WeightedGraph(2, {(1, 2): 1.7})
        assert interchange._covering_shape(2) == (2,) and interchange._rows(2, (2,)) == 1
        monkeypatch.setattr(spla, "eigsh", arpack_error)
        assert gap_interchange(G) == pytest.approx(3.4, abs=1e-12)
        assert gap_rw(G) == pytest.approx(3.4, abs=1e-12)

    def test_k3_gap_is_three(self):
        assert gap_interchange(complete_graph(3)) == pytest.approx(3.0, abs=1e-10)
        assert gap_rw(complete_graph(3)) == pytest.approx(3.0, abs=1e-10)

    def test_complete_graph_rw_gap_is_n(self):
        for n in range(2, 7):
            assert gap_rw(complete_graph(n)) == pytest.approx(n, abs=1e-9)

    def test_gap_scales_linearly(self):
        rng = np.random.default_rng(2)
        G = random_connected_graph(4, rng)
        g1 = gap_interchange(G)
        g3 = gap_interchange(G.scaled(3.0))
        assert g3 == pytest.approx(3.0 * g1, rel=1e-9)

    def test_gap_invariant_under_relabeling(self):
        rng = np.random.default_rng(4)
        G = random_connected_graph(4, rng)
        H = G.relabeled({1: 3, 3: 4, 4: 1})
        assert gap_interchange(H) == pytest.approx(gap_interchange(G), rel=1e-9)

    def test_gap_rw_matches_laplacian_second_smallest(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            G = random_connected_graph(n, rng)
            direct = float(np.sort(np.linalg.eigvalsh(rw_laplacian(G)))[1])
            assert gap_rw(G) == pytest.approx(direct, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("n", [3, 6])
    def test_negative_rates_are_refused(self, n):
        """The iterative solve needs B >= 0: on the star-minus-clique rates
        at n = 6 it passed its residual check on the minimum of shape
        (4, 2), 0.0615, where the spectrum starts at about 0. Such weights
        go to interchange_spectrum, which takes them."""
        G = comparison_weights(np.random.default_rng(0).uniform(0.25, 2.0, size=n - 1))
        with pytest.raises(ValueError, match="nonnegative rates"):
            gap_interchange(G)
        assert abs(interchange_spectrum(G)[0]) <= 1e-12 * (1.0 + float(sum(G.weights.values())))

    def test_reducible_chain_has_zero_gap(self):
        """Exactly 0.0, with no solver's rounding: one edge, and two paths
        with no edge between them."""
        assert gap_interchange(WeightedGraph(3, {(1, 2): 1.0})) == 0.0
        for n in (5, 6, 7, 8):
            assert gap_interchange(WeightedGraph(n, {(1, n): 1.3})) == 0.0
            halves = {(i, i + 1): 0.7 + 0.1 * i for i in range(1, n) if i != n // 2}
            assert gap_interchange(WeightedGraph(n, halves)) == 0.0

    def test_iterative_solver_matches_dense_on_interchange_matrix(self):
        rng = np.random.default_rng(55)
        G = random_connected_graph(5, rng)
        dense = dense_gap(G)
        iterative = bipartite_laplacian_gap(*block_and_total(G))
        assert iterative == pytest.approx(dense, rel=1e-7, abs=1e-8)

    @pytest.mark.parametrize("n", [6, 7])
    def test_default_solve_matches_dense(self, n):
        G = random_connected_graph(n, np.random.default_rng(60 + n), extra_edge_prob=0.3)
        assert gap_interchange(G) == pytest.approx(dense_gap(G), rel=1e-12)

    def test_iterative_solve_is_repeatable(self):
        G = random_connected_graph(6, np.random.default_rng(7), extra_edge_prob=0.3)
        B, total = block_and_total(G)
        first = bipartite_laplacian_gap(B, total)
        second = bipartite_laplacian_gap(B, total)
        assert first.hex() == second.hex()

    def test_n8_gap_via_iterative_path(self):
        # 40320 states: above the dense limit, solved on the 1120 label
        # words of (3, 3, 1, 1)
        rng = np.random.default_rng(88)
        G = random_connected_graph(8, rng, extra_edge_prob=0.25)
        assert gap_interchange(G) == pytest.approx(gap_rw(G), rel=1e-8)


class TestEvenOddBlock:
    @pytest.mark.parametrize("family, n", gap_cases(3, 7))
    def test_three_labels_match_the_loop_oracle(self, family, n):
        """The block of the hook (3, 1^(n-3)) is the rate matrix of the
        loop-built process with three identical labels; the diagonal sums
        the rates of the swaps of two of them, in another order."""
        G = GAP_FAMILIES[family](n)
        B = interchange._module_block(G, hook(n, 3))
        edges = sum(1 for w in G.weights.values() if w != 0)
        assert B.shape[0] == math.factorial(n) // 6 and np.all(np.diff(B.indptr) == edges)
        dense, rates = B.toarray(), loop_module_rates(G, hook(n, 3))
        assert np.abs(dense - rates).max() <= 1e-15 * (1.0 + float(sum(G.weights.values())))
        off = ~np.eye(len(rates), dtype=bool)
        assert np.array_equal(dense[off], rates[off])

    @pytest.mark.parametrize("family, n", gap_cases(3, 7))
    def test_module_matches_the_loop_oracle(self, family, n):
        """The same on the module that `gap_interchange` solves and on
        the other hooks (k, 1^(n-k)), k >= 2: off the diagonal bit for bit,
        with one entry per edge in each row."""
        G = GAP_FAMILIES[family](n)
        edges = sum(1 for w in G.weights.values() if w != 0)
        hooks = [hook(n, k) for k in range(2, n + 1) if k != 3]
        for mu in [interchange._covering_shape(n)] + hooks:
            B = interchange._module_block(G, mu)
            assert B.shape[0] == interchange._rows(n, mu) and np.all(np.diff(B.indptr) == edges)
            dense, rates = B.toarray(), loop_module_rates(G, mu)
            assert np.abs(dense - rates).max() <= 1e-15 * (1.0 + float(sum(G.weights.values()))), mu
            off = ~np.eye(len(rates), dtype=bool)
            assert np.array_equal(dense[off], rates[off]), mu

    @pytest.mark.parametrize("family, n", gap_cases(2, 6))
    def test_is_the_odd_columns_of_the_even_rows(self, family, n):
        """Each row holds one entry per edge, and B, in the order of the even
        and the odd words, is the negated block of the interchange
        Laplacian between them, with parity counted from each word's
        inversions."""
        G = GAP_FAMILIES[family](n)
        total = float(sum(G.weights.values()))
        edges = sum(1 for w in G.weights.values() if w != 0)
        assert np.all(np.diff(block_and_total(G)[0].indptr) == edges)
        B = even_odd_block(G)
        odd = odd_words(n)
        L = loop_interchange_laplacian(G).toarray()
        assert np.array_equal(B.toarray(), -L[np.ix_(~odd, odd)])
        # with the even words first, L is [[W I, -B], [-B^T, W I]]
        diagonal, b = total * np.eye(len(B.indptr) - 1), B.toarray()
        assembled = np.block([[diagonal, -b], [-b.T, diagonal]])
        assert multiset_equal(np.linalg.eigvalsh(assembled), np.linalg.eigvalsh(L), tol=1e-12)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_equals_its_transpose(self, n):
        """Entry for entry, on (2, 1^(n-2)), (3, 1^(n-3)) and the module
        that `gap_interchange` solves, for positive rates and for the
        signed star-minus-clique rates."""
        rng = np.random.default_rng(n)
        positive = random_connected_graph(n, rng, extra_edge_prob=0.5)
        signed = comparison_weights(rng.uniform(0.25, 2.0, size=n - 1))
        for G in (positive, signed):
            for mu in (pairs(n), hook(n, 3), interchange._covering_shape(n)):
                B = interchange._module_block(G, mu)
                assert B.nnz == interchange._rows(n, mu) * len(G.weights)
                assert (B != B.T).nnz == 0

    @pytest.mark.parametrize("n", [2, 5])
    def test_one_label_is_one_row(self, n):
        """mu = (n): one word, and every swap lands on the diagonal."""
        B = interchange._module_block(complete_graph(n), (n,))
        assert B.toarray().tolist() == [[n * (n - 1) / 2]]

    def test_codes_beyond_64_bits_are_refused(self):
        """Ten labels on 19 letters: 10^19 >= 2^63, refused before any
        word is built."""
        with pytest.raises(ValueError, match="beyond 64 bits"):
            interchange._module_block(WeightedGraph(19, {(1, 2): 1.0}), hook(19, 10))

    @pytest.mark.parametrize("n", range(2, 10))
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_ranks_match_the_binary_search(self, n, data):
        """On every partition mu of n, including one label (mu = (n)), odd
        n and a one-letter tail (n = 2, 3), the two-table ranks give the
        same CSR arrays, bit for bit, as a binary search of the sorted
        codes, for signed rates with zero ones among them."""
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        weight = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
        weights = data.draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
        G = SignedWeightedGraph(n, dict(zip(edges, weights)))
        for lam in enumerate_partitions(n):
            assert_same_csr(interchange._module_block(G, lam.parts), searchsorted_module_block(G, lam.parts))


def covered(values, targets, tol=1e-10):
    """Whether every value lies within tol (1 + the largest |value| of
    either side) of a target."""
    eps = tol * (1.0 + max(np.abs(values).max(), np.abs(targets).max()))
    targets = np.sort(targets)
    at = np.clip(np.searchsorted(targets, values), 1, len(targets) - 1)
    nearest = np.minimum(np.abs(values - targets[at - 1]), np.abs(values - targets[at]))
    return bool(nearest.max() <= eps)


class TestYoungsRule:
    @pytest.mark.parametrize(
        "family, n", gap_cases(5, 7) + [("comparison", n) for n in range(5, 8)]
    )
    def test_three_labels_cover_every_eigenvalue(self, family, n):
        """By Young's rule the double [[W I, -B_k], [-B_k, W I]] of the
        block B_k of the hook (k, 1^(n-k)) holds the shapes with at least
        k columns in their first row or at least k rows, and every shape of n > (k - 1)^2 boxes is one of them. At
        n = 5-7 and k = 3 the spectrum of the interchange Laplacian and
        the values W -+ beta over the eigenvalues beta of B_3 therefore
        cover each other. At k = 4 the shapes inside a 3 x 3 box are
        missing and the spectrum is not covered, except on one edge, whose
        rho_(1 n) has the eigenvalues 0 and 2 w alone on every shape of more
        than one tableau."""
        if family == "comparison":
            G = comparison_weights(np.random.default_rng(n).uniform(0.25, 2.0, size=n - 1))
        else:
            G = GAP_FAMILIES[family](n)
        spectrum = interchange_spectrum(G)
        total = float(sum(G.weights.values()))

        def double(k):
            beta = np.linalg.eigvalsh(interchange._module_block(G, hook(n, k)).toarray())
            return np.concatenate([total - beta, total + beta])

        three, four = double(3), double(4)
        assert covered(spectrum, three) and covered(three, spectrum)
        assert covered(four, spectrum)
        assert covered(spectrum, four) == (family == "one_edge")

    @pytest.mark.parametrize(
        "family, n", gap_cases(5, 7) + [("comparison", n) for n in range(5, 8)]
    )
    def test_covering_shape_covers_every_eigenvalue(self, family, n):
        """The same for the module that `gap_interchange` solves: its double
        and the spectrum cover each other. The double of each partition of
        fewer rows leaves part of the spectrum out, except on one edge, once
        each rate is scaled by a seeded factor: on the unit wheel and the
        star-minus-clique rates at n = 5 and 7, the self-conjugate shapes
        that (3, 2), (3, 3, 1) and (3, 2, 2) miss share their eigenvalues
        with shapes they hold."""
        if family == "comparison":
            G = comparison_weights(np.random.default_rng(n).uniform(0.25, 2.0, size=n - 1))
        else:
            G = GAP_FAMILIES[family](n)
        factors = np.random.default_rng(n).uniform(0.5, 1.5, size=len(G.weights))
        generic = type(G)(n, {e: w * f for (e, w), f in zip(sorted(G.weights.items()), factors)})
        mu = interchange._covering_shape(n)

        def double(G, mu):
            total = float(sum(G.weights.values()))
            beta = np.linalg.eigvalsh(interchange._module_block(G, mu).toarray())
            return np.concatenate([total - beta, total + beta])

        for H in (G, generic):
            spectrum, chosen = interchange_spectrum(H), double(H, mu)
            assert covered(spectrum, chosen) and covered(chosen, spectrum)
        fewer = [nu.parts for nu in enumerate_partitions(n) if interchange._rows(n, nu.parts) < interchange._rows(n, mu)]
        assert fewer
        for nu in fewer:
            assert covered(spectrum, double(generic, nu)) == (family == "one_edge"), nu


def dominates(lam, mu):
    """lam >= mu in the dominance order: every partial sum of lam's parts
    at least mu's."""
    return all(sum(lam.parts[:i]) >= sum(mu.parts[:i]) for i in range(1, mu.n + 1))


def covers(mu):
    """Whether every partition lam of mu's size has lam >= mu or lam' >= mu."""
    return all(dominates(lam, mu) or dominates(lam.conjugate(), mu) for lam in enumerate_partitions(mu.n))


class TestCoveringShape:
    ROWS = {7: 420, 8: 1120, 9: 10080, 10: 25200, 12: 831600}

    @pytest.mark.parametrize("n", range(2, 13))
    def test_covers_with_the_fewest_rows(self, n):
        """The chosen mu covers every shape, no partition of fewer rows
        does, and its rows are pinned where they were first tabulated."""
        mu = Partition(interchange._covering_shape(n))
        rows = math.factorial(n) // math.prod(math.factorial(p) for p in mu)
        assert covers(mu) and interchange._rows(n, mu.parts) == rows
        assert rows == self.ROWS.get(n, rows)
        for nu in enumerate_partitions(n):
            if math.factorial(n) // math.prod(math.factorial(p) for p in nu) < rows:
                assert not covers(nu), nu

    @pytest.mark.parametrize("n", range(2, 13))
    def test_covering_parts_fit_the_refusal_bound(self, n):
        """Every covering partition has parts of at most s = 1 + isqrt(n - 1),
        so at least the rows of (s, ..., s, n mod s), the estimate that
        `gap_interchange` checks before its search."""
        s = 1 + math.isqrt(n - 1)
        whole, rest = divmod(n, s)
        fewest = interchange._rows(n, (s,) * whole + (rest,) * (rest > 0))
        for mu in enumerate_partitions(n):
            if covers(mu):
                assert mu.parts[0] <= s and interchange._rows(n, mu.parts) >= fewest


class TestEvenHalfSolve:
    @pytest.mark.parametrize("family, n", gap_cases(3, 7))
    def test_matches_dense_second_eigenvalue(self, family, n):
        G = GAP_FAMILIES[family](n)
        # the reducible one-edge chain has gap 0, so its values are rounding
        assert gap_interchange(G) == pytest.approx(dense_gap(G), rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("n", [6, 7])
    def test_edgeless_graph_gap_is_exactly_zero(self, n):
        assert gap_interchange(WeightedGraph(n, {})) == 0.0
        assert gap_interchange(WeightedGraph(n, {(1, 2): 0.0})) == 0.0

    def test_repeat_calls_give_the_same_bits(self):
        G = random_connected_graph(8, np.random.default_rng(3), extra_edge_prob=0.3)
        assert gap_interchange(G).hex() == gap_interchange(G).hex()

    @pytest.mark.parametrize("family, n", [(f, n) for f, n in gap_cases(3, 10) if f != "one_edge"])
    def test_one_operand_solve_matches_the_transpose_kernel(self, family, n):
        """The solve multiplies by the symmetric B_mu alone and gives the
        gap bit for bit as the kernel that multiplied by a CSC view of its
        transpose (`helpers.transpose_bipartite_laplacian_gap`): both sum
        each row in ascending column order. On the covering shape, (2,
        1^(n-2)) and (3, 1^(n-3)); the hooks only up to n = 9, as at n = 10
        their 0.6-1.8 million rows take seconds a solve."""
        G = GAP_FAMILIES[family](n)
        total = float(sum(G.weights.values()))
        shapes = [interchange._covering_shape(n)] + ([hook(n, 2), hook(n, 3)] if n <= 9 else [])
        for mu in shapes:
            if interchange._rows(n, mu) < 2:
                continue
            B = interchange._module_block(G, mu)
            gap = bipartite_laplacian_gap(B, total)
            assert gap.hex() == transpose_bipartite_laplacian_gap(B, total).hex(), mu

    @pytest.mark.parametrize("family, n", gap_cases(3, 8))
    def test_answers_without_the_dense_fallback(self, monkeypatch, family, n):
        """The iterative solve, with its Krylov space of KRYLOV_VECTORS or
        of every row of the module, passes its residual check on its own:
        with the dense double made to fail, the gap is the walk's gap, and
        the dense one up to n = 7."""
        G = GAP_FAMILIES[family](n)
        eps = 1e-9 * (1.0 + float(sum(G.weights.values())))
        expected = [gap_rw(G)] + ([dense_gap(G)] if n <= 7 else [])

        def refuse(G, mu):
            raise AssertionError("fell back to the dense double")

        monkeypatch.setattr(interchange, "_double_spectrum", refuse)
        gap = gap_interchange(G)
        assert all(abs(gap - value) <= eps for value in expected), (gap, expected)


class TestDenseFallback:
    """When the iterative solve fails its residual check, gap_interchange
    reads the gap off the dense double of the same module block, up to
    the dense limit on the states of the double (n <= 8)."""

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("fake", [wrong_eigenpair, no_convergence, arpack_error])
    def test_falls_back_to_dense(self, monkeypatch, fake, n):
        G = random_connected_graph(n, np.random.default_rng(70 + n), extra_edge_prob=0.3)
        double = interchange._double_spectrum(G, interchange._covering_shape(n))
        expected = dense_gap(G) if n <= 7 else gap_rw(G)
        monkeypatch.setattr(spla, "eigsh", fake)
        gap = gap_interchange(G)
        assert gap.hex() == float(double[1]).hex()
        assert abs(gap - expected) <= 1e-12 * (1.0 + float(sum(G.weights.values())))

    @pytest.mark.parametrize("fake", [wrong_eigenpair, no_convergence, arpack_error])
    def test_raises_above_dense_limit(self, monkeypatch, fake):
        monkeypatch.setattr(spla, "eigsh", fake)
        # twice the 10080 label words of (3, 3, 1, 1, 1)
        message = "iterative eigensolve of dimension 20160 did not converge: residual"
        with pytest.raises(ValueError, match=message):
            gap_interchange(path_graph(9))

    def test_fallback_is_refused_when_it_would_not_fit(self, monkeypatch):
        """Memory enough for the iterative solve but not for the dense one
        gives a refusal, not a MemoryError part way through."""
        G = wheel_graph(7)
        needs = []
        monkeypatch.setattr(interchange, "_require_bytes", lambda need, what: needs.append(need))
        gap_interchange(G)
        interchange._double_spectrum(G, interchange._covering_shape(7))
        # the estimates of the refusal bound, the block it builds and the dense solve
        _, iterative, dense = needs
        assert iterative < dense
        monkeypatch.undo()
        monkeypatch.setattr(spla, "eigsh", wrong_eigenpair)
        monkeypatch.setattr(yor, "_available_bytes", lambda: (iterative + dense) // 2)
        subject = "7-vertex graph with 12 edges and its dense eigensolve"
        with pytest.raises(ValueError, match=subject):
            gap_interchange(G)


class TestSpectrumViaIrreps:
    def test_n2_by_hand(self):
        a = 0.6
        values = spectrum_via_irreps(WeightedGraph(2, {(1, 2): a}))
        assert np.allclose(values, [0.0, 2 * a], atol=1e-12)

    @pytest.mark.parametrize(
        "G",
        [
            random_connected_graph(4, np.random.default_rng(13)),
            SignedWeightedGraph(
                4, {(1, 2): 1.3, (1, 3): -0.4, (2, 4): 0.7, (3, 4): -1.1, (1, 4): 0.2}
            ),
        ],
        ids=["random", "signed"],
    )
    def test_matches_direct_n4(self, G):
        direct = interchange_spectrum(G)
        assert multiset_equal(direct, spectrum_via_irreps(G), tol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(signed_graphs(max_n=5))
    def test_matches_explicit_route_on_signed_weights(self, G):
        # negative weights exercise the signed conjugate twist that
        # check_conjecture relies on
        direct = interchange_spectrum(G)
        assert multiset_equal(direct, spectrum_via_irreps(G), tol=1e-8)

    def test_counts(self):
        rng = np.random.default_rng(14)
        for n in range(2, 6):
            G = random_connected_graph(n, rng)
            assert len(spectrum_via_irreps(G)) == math.factorial(n)
            assert sum(len(v) ** 2 for _, v, _ in shape_spectra(G)) == math.factorial(n)


class TestAldousCheck:
    def test_two_vertices(self):
        report = aldous_check(WeightedGraph(2, {(1, 2): 1.1}))
        assert report.passed
        assert report.gap_interchange == pytest.approx(2.2, abs=1e-12)
        assert report.gap_rw == pytest.approx(2.2, abs=1e-12)

    def test_wheel7_unit(self):
        report = aldous_check(wheel_graph(7))
        assert report.passed
        assert report.argmin_partition == Partition((6, 1))
        assert report.gap_interchange == pytest.approx(report.gap_rw, rel=1e-9)

    def test_k4_random_weights(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            weights = rng.uniform(0.05, 3.0, size=6)
            G = complete_graph(4, weights=weights)
            report = aldous_check(G)
            assert report.passed

    def test_disconnected_passes_trivially(self):
        report = aldous_check(WeightedGraph(4, {(1, 2): 1.0, (3, 4): 2.0}))
        assert report.passed
        assert report.gap_rw == pytest.approx(0.0, abs=1e-10)
        assert report.gap_interchange == pytest.approx(0.0, abs=1e-10)

    def test_gap_equals_direct_interchange_gap(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            G = random_connected_graph(4, rng)
            report = aldous_check(G)
            assert report.gap_interchange == pytest.approx(gap_interchange(G), rel=1e-8)

    def test_multiplicity_lower_bound(self):
        rng = np.random.default_rng(61)
        graphs = [wheel_graph(5)] + [random_connected_graph(n, rng) for n in (4, 4, 5, 5)]
        checked = 0
        for G in graphs:
            report = aldous_check(G)
            if report.argmin_partition != Partition((G.n - 1, 1)):
                continue
            checked += 1
            values = spectrum_via_irreps(G)
            count = np.sum(np.abs(values - report.gap_interchange) <= 1e-8 * (1 + values.max()))
            assert count >= report.gap_multiplicity_lower_bound == G.n - 1
        assert checked >= 3  # generic weighted graphs attain the minimum at (n-1, 1)


class TestConjugateTwist:
    @given(
        n=st.integers(min_value=2, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        extra=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_minima_match_direct_solves(self, n, seed, extra):
        G = random_connected_graph(n, np.random.default_rng(seed), extra_edge_prob=extra)
        minima = aldous_check(G).minima
        direct = {
            lam: float(np.linalg.eigvalsh(irrep_laplacian(lam, G))[0])
            for lam in enumerate_partitions(n)
            if lam.parts != (n,)
        }
        assert list(minima) == list(direct)
        scale = 1.0 + max(abs(v) for v in direct.values())
        for lam, value in direct.items():
            assert abs(minima[lam] - value) <= 1e-12 * scale, lam

    def test_spectra_match_direct_solves(self):
        G = wheel_graph(7)
        for lam, vals, _ in shape_spectra(G):
            direct = np.linalg.eigvalsh(irrep_laplacian(lam, G))
            assert len(vals) == len(direct)
            assert np.abs(vals - direct).max() <= 1e-12 * (1.0 + np.abs(direct).max())


def test_per_shape_route_imports_no_scipy():
    src = str(Path(aldous.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import aldous, aldous.cli, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestMemoryGuard:
    @staticmethod
    def need(G):
        """Two stack slots per shape of n - 1 boxes, plus two arrays the
        size of the largest block of n boxes, counted by enumerating the
        tableaux, and numpy's OpenBLAS buffer."""
        below = sum(len(enumerate_syt(mu)) ** 2 for mu in enumerate_partitions(G.n - 1))
        largest = max(len(enumerate_syt(lam)) for lam in enumerate_partitions(G.n))
        return (2 * below + 2 * largest**2) * 8 + 2**25

    @pytest.mark.parametrize("check", [aldous_check, spectrum_via_irreps, shape_spectra])
    def test_refuses_exactly_above_the_estimate(self, monkeypatch, check):
        G = wheel_graph(6)
        monkeypatch.setattr(yor, "_available_bytes", lambda: self.need(G))
        check(G)
        monkeypatch.setattr(yor, "_available_bytes", lambda: self.need(G) - 1)
        with pytest.raises(ValueError, match="6-vertex graph"):
            check(G)

    def test_check_conjecture_refuses_exactly_above_the_estimate(self, monkeypatch):
        gamma = (1.0, 2.0, 3.0, 4.0, 5.0)
        need = self.need(comparison_weights(gamma))
        monkeypatch.setattr(yor, "_available_bytes", lambda: need)
        assert check_conjecture(6, gamma).passed
        monkeypatch.setattr(yor, "_available_bytes", lambda: need - 1)
        with pytest.raises(ValueError, match="6-vertex graph with 15 edges"):
            check_conjecture(6, gamma)

    def test_cli_gap_exits_2(self, monkeypatch, capsys, tmp_path):
        from aldous.cli import main

        path = tmp_path / "w.json"
        path.write_text(json.dumps({"n": 6, "edges": [[1, i, 1.0] for i in range(2, 7)]}))
        monkeypatch.setattr(yor, "_available_bytes", lambda: 0)
        assert main(["gap", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "per-shape blocks" in captured.err

    def test_cli_check_conjecture_exits_2_one_byte_short(self, monkeypatch, capsys):
        from aldous.cli import main

        argv = ["check-conjecture", "--k", "6", "--gamma", "1,2,3,4,5"]
        need = self.need(comparison_weights((1.0, 2.0, 3.0, 4.0, 5.0)))
        monkeypatch.setattr(yor, "_available_bytes", lambda: need)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
        monkeypatch.setattr(yor, "_available_bytes", lambda: need - 1)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "per-shape blocks" in captured.err

    def test_cli_refuses_large_n_before_enumerating_partitions(self, monkeypatch, capsys, tmp_path):
        from aldous.cli import main

        def refuse(n):
            raise AssertionError(f"enumerated the partitions of {n}")

        monkeypatch.setattr(yor, "enumerate_partitions", refuse)
        path = tmp_path / "n80.json"
        path.write_text(json.dumps({"n": 80, "edges": [[1, 2, 1.0]]}))
        assert main(["gap", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "80-vertex graph" in captured.err

    def test_reader_reports_positive_memory(self):
        assert yor._available_bytes() > 0

    def test_gap_interchange_refuses_exactly_above_the_estimate(self, monkeypatch):
        G = wheel_graph(6)
        subject = r"M\^\(3,2,1\) for a 6-vertex graph with 10 edges and its eigensolve"
        # the block on the 60 label words of (3, 2, 1): int32 columns,
        # float64 values and row pointers, two freed int64 temporaries per
        # row; beside it 30 float64 per row (10 Lanczos and 10 Ritz vectors,
        # and ten more) and the BLAS buffer
        half, edges = 60, 10
        block = half * (edges * 12 + 4 + 16) + 4
        need = block + 240 * half + 2**25
        monkeypatch.setattr(yor, "_available_bytes", lambda: need)
        gap_interchange(G)
        monkeypatch.setattr(yor, "_available_bytes", lambda: need - 1)
        with pytest.raises(ValueError, match=subject):
            gap_interchange(G)

    @pytest.mark.parametrize(
        "G, edges",
        [(wheel_graph(6), 10), (comparison_weights((1.0, 2.0, 3.0, 4.0, 5.0)), 15)],
        ids=["wheel", "dirichlet"],
    )
    def test_spectrum_refuses_exactly_above_the_estimate(self, monkeypatch, G, edges):
        """The block between the 360 even and 360 odd words as above; beside
        it the dense block, eigvalsh's copy of it, LAPACK's work array of
        34 float64 per row and the BLAS buffer."""
        half = 360
        block = half * (edges * 12 + 4 + 16) + 4
        need = block + 8 * half * half + 8 * half * (half + 34) + 2**25
        monkeypatch.setattr(yor, "_available_bytes", lambda: need)
        assert interchange_spectrum(G).shape == (720,)
        monkeypatch.setattr(yor, "_available_bytes", lambda: need - 1)
        subject = f"6-vertex graph with {edges} edges and its dense eigensolve"
        with pytest.raises(ValueError, match=subject):
            interchange_spectrum(G)

    @staticmethod
    def refuse_to_enumerate(n):
        raise AssertionError(f"searched the partitions of {n}")

    @staticmethod
    def traced_estimate(monkeypatch, run, G):
        """The last estimate `run(G)` passes to `_require_bytes`, the one of
        the block it builds, and the peak that `tracemalloc` sees in a
        second run (scipy is loaded by the first, outside the traced run)."""
        needs = []
        monkeypatch.setattr(interchange, "_require_bytes", lambda need, what: needs.append(need))
        run(G)
        needs.clear()
        tracemalloc.start()
        try:
            run(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return needs[-1], peak

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("family", [path_graph, complete_graph])
    def test_estimates_bound_the_traced_peak(self, monkeypatch, n, family):
        """The estimate of gap_interchange is at least the peak that
        `tracemalloc` sees and at most 1.5 times it. tracemalloc cannot see
        the BLAS work buffer, the part of the solve's memory that does not
        grow with the states, so it is left out."""
        need, peak = self.traced_estimate(monkeypatch, gap_interchange, family(n))
        assert peak <= need - iterative_solve_bytes(0) <= 1.5 * peak

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("family", [path_graph, complete_graph])
    def test_spectrum_estimate_bounds_the_traced_peak(self, monkeypatch, n, family):
        """The same for interchange_spectrum, once what eigvalsh maps outside
        Python's allocator (its copy of the dense block, LAPACK's work array
        of 34 float64 per row, the BLAS buffer) is left out."""
        need, peak = self.traced_estimate(monkeypatch, interchange_spectrum, family(n))
        half = math.factorial(n) // 2
        assert peak <= need - 8 * half * (half + 34) - 2**25 <= 1.5 * peak

    @pytest.mark.parametrize("n", range(7, 11))
    @pytest.mark.parametrize("family", [path_graph, wheel_graph, complete_graph])
    def test_block_footprint_bounds_the_traced_peak(self, n, family):
        """The peak of `_block_footprint` is at least the peak that
        `tracemalloc` sees while `_module_block` alone runs and at most 1.5
        times it, on the covering mu and on the hook (3, 1^(n-3))."""
        G = family(n)
        for mu in (interchange._covering_shape(n), hook(n, 3)):
            tracemalloc.start()
            try:
                interchange._module_block(G, mu)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= interchange._block_footprint(G, mu)[0] <= 1.5 * peak, mu

    def test_spectrum_refuses_above_the_dense_limit(self, monkeypatch):
        def build(G):
            raise AssertionError("built the block")

        monkeypatch.setattr(interchange, "_module_block", build)
        with pytest.raises(ValueError, match="limited to 6000 states; a 8-vertex graph has 8! states"):
            interchange_spectrum(path_graph(8))

    def test_cli_rep_needs_only_the_matrix(self, monkeypatch, capsys):
        """`aldous rep` makes its text a row at a time, so rho_sigma's
        estimate, two f x f arrays and 200 bytes per box of each tableau
        (f = 90 here), is all it checks: with that much it prints the
        text it prints unchecked, with one byte less it exits 2."""
        from aldous.cli import main

        f = len(enumerate_syt(Partition((4, 2, 1, 1))))
        matrix = 2 * f * f * 8 + 200 * 8 * f
        for fmt in ("json", "csv"):
            argv = ["--format", fmt, "rep", "4,2,1,1", "(1 2)"]
            assert main(argv) == 0
            text = capsys.readouterr().out
            monkeypatch.setattr(yor, "_available_bytes", lambda: matrix)
            assert main(argv) == 0
            assert capsys.readouterr().out == text
            monkeypatch.setattr(yor, "_available_bytes", lambda: matrix - 1)
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "90 x 90 arrays of shape (4,2,1,1)" in captured.err
            monkeypatch.undo()

    def test_huge_n_refused_before_forming_its_factorial(self, monkeypatch):
        forbid_large_factorials(monkeypatch)
        monkeypatch.setattr(interchange, "enumerate_partitions", self.refuse_to_enumerate)
        G = WeightedGraph(10**6, {(1, 2): 1.0})
        subject = "the per-shape blocks of a 1000000-vertex graph with 1 edges need about inf GiB"
        for run in (aldous_check, spectrum_via_irreps, shape_spectra):
            with pytest.raises(ValueError, match=subject):
                run(G)
        with pytest.raises(ValueError, match=r"limited to 6000 states; a 1000000-vertex graph has 1000000! states"):
            interchange_spectrum(G)
        subject = (
            r"M\^\(1000\^1000\) for a 1000000-vertex graph with 1 edges"
            r" and its eigensolve need about inf GiB"
        )
        with pytest.raises(ValueError, match=subject):
            gap_interchange(G)

    @pytest.mark.parametrize("n", [100, 199, 200, 201, 5000])
    def test_refusal_counts_the_stacks_as_before(self, n):
        need = 16 * math.factorial(n - 1)
        gib = need / 2**30 if need < 2**1000 else math.inf
        with pytest.raises(ValueError, match=f"need about {re.escape(f'{gib:.3g}')} GiB"):
            aldous_check(WeightedGraph(n, {(1, 2): 1.0}))

    def test_check_conjecture_refuses_large_k_before_the_weights(self, monkeypatch):
        forbid_large_factorials(monkeypatch)
        monkeypatch.setattr(conjecture, "comparison_weights", lambda gamma: pytest.fail("built the weights"))
        with pytest.raises(ValueError, match="the per-shape blocks of 3000 boxes need about inf GiB"):
            check_conjecture(3000, [1.0] * 2999)

    def test_thirty_vertices_refused_without_a_cap(self, monkeypatch):
        monkeypatch.setattr(interchange, "enumerate_partitions", self.refuse_to_enumerate)
        with pytest.raises(ValueError, match=r"the Young module M\^\(6\^5\) for a 30-vertex graph"):
            gap_interchange(complete_graph(30))
        with pytest.raises(ValueError, match="30-vertex graph"):
            interchange_spectrum(complete_graph(30))


_UNDER_LIMIT = """
import os, resource, sys
import scipy.sparse.linalg
from aldous import interchange
from aldous.graphs import complete_graph, path_graph

class Estimate(Exception):
    pass

def estimate(need, what):
    raise Estimate(need)

G = {"path": path_graph, "complete": complete_graph}[sys.argv[1]](8)
interchange._require_bytes, require = estimate, interchange._require_bytes
try:
    interchange.gap_interchange(G)
except Estimate as exc:
    need = exc.args[0]
interchange._require_bytes = require
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (mapped + int(float(sys.argv[2]) * need), hard))
try:
    print(interchange.gap_interchange(G))
except ValueError as exc:
    print("refused:", exc)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/statm")
@pytest.mark.parametrize("family", ["path", "complete"])
def test_address_space_limit_gives_refusal_or_result(family):
    """Under an address-space limit of the mapped size plus 0.5-2 times
    the estimate, gap_interchange at n = 8 either refuses or returns the
    gap; it never runs out of memory part way."""
    src = str(Path(aldous.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outcomes = []
    for factor in ("0.5", "1.0", "1.5", "2.0"):
        run = subprocess.run(
            [sys.executable, "-c", _UNDER_LIMIT, family, factor],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0 and run.stderr == "", (factor, run.stderr)
        outcomes.append(run.stdout.startswith("refused:"))
        if not outcomes[-1]:
            assert float(run.stdout) > 0
    assert outcomes[0] and not outcomes[-1]


def test_nine_vertices_both_routes():
    """n = 9 (362880 states) is within reach of the explicit route."""
    G = random_connected_graph(9, np.random.default_rng(9), extra_edge_prob=0.1)
    assert gap_interchange(G) == pytest.approx(aldous_check(G).gap_interchange, rel=1e-8)


def test_ten_vertices_explicit_route():
    """At n = 10 the explicit route solves the 25200 label words of
    (4, 3, 1, 1, 1)."""
    G = wheel_graph(10, seed=1)
    eps = 1e-9 * (1.0 + float(sum(G.weights.values())))
    assert abs(gap_interchange(G) - aldous_check(G).gap_interchange) <= eps


def test_ten_vertices():
    assert aldous_check(complete_graph(10)).passed
    assert check_conjecture(10, tuple(float(g) for g in range(1, 10))).passed
    G = random_connected_graph(10, np.random.default_rng(10))
    assert gap_rw(G) == pytest.approx(np.linalg.eigvalsh(rw_laplacian(G))[1], rel=1e-12)
