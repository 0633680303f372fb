import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aldous.conjecture import (
    GammaVector,
    check_conjecture,
    comparison_weights,
    conjecture_matrix,
    equal_gamma_lower_bound,
    equal_gamma_min_eig,
    k4_closed_forms,
)
from aldous.interchange import interchange_spectrum
from aldous.spectral import is_psd, multiset_equal
from aldous.tableaux import Partition, content, enumerate_partitions, enumerate_syt
from helpers import loop_interchange_laplacian


def dirichlet_spectrum(gamma):
    """Spectrum of the quadratic form Q of (star form) - (weighted clique
    form): twice the explicit interchange spectrum on the comparison
    weights."""
    return 2.0 * interchange_spectrum(comparison_weights(gamma))


def loop_dirichlet_matrix(gamma):
    """Q as a dense k! x k! array: twice the loop-built Laplacian."""
    return 2.0 * loop_interchange_laplacian(comparison_weights(gamma)).toarray()


class TestGammaVector:
    def test_k(self):
        assert GammaVector((1.0, 2.0, 3.0)).k == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            GammaVector((-1.0,))
        with pytest.raises(ValueError):
            GammaVector(())

    def test_all_zero_rejected_for_k3(self):
        with pytest.raises(ValueError):
            comparison_weights(GammaVector((0.0, 0.0)))
        with pytest.raises(ValueError):
            conjecture_matrix(Partition((2, 1)), GammaVector((0.0, 0.0)))


class TestDirichletGapMatrix:
    def test_k2_explicit(self):
        Q = loop_dirichlet_matrix(GammaVector((0.8,)))
        assert np.allclose(Q, [[1.6, -1.6], [-1.6, 1.6]], atol=1e-15)
        assert is_psd(Q)
        assert np.allclose(dirichlet_spectrum(GammaVector((0.8,))), [0.0, 3.2], atol=1e-15)

    def test_k2_zero_rate_allowed(self):
        assert dirichlet_spectrum(GammaVector((0.0,))).tolist() == [0.0, 0.0]

    def test_k3_unit_is_psd(self):
        values = dirichlet_spectrum(GammaVector((1.0, 1.0)))
        assert values.shape == (6,)
        assert values[0] >= -1e-10 * (1.0 + values[-1])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.1, 3.0, allow_nan=False)), min_size=1, max_size=5
        ).filter(lambda g: len(g) == 1 or sum(g) > 0)
    )
    def test_equals_loop_built_matrix(self, gamma):
        expected = np.linalg.eigvalsh(loop_dirichlet_matrix(GammaVector(gamma)))
        values = dirichlet_spectrum(GammaVector(gamma))
        assert np.abs(values - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())

    def test_k4_seeded_is_psd(self):
        values = dirichlet_spectrum(GammaVector((1.0, 2.0, 3.0)))
        assert values.shape == (24,)
        assert values[0] >= -1e-10 * (1.0 + values[-1])

    def test_quadratic_form_matches_sum_over_states(self):
        # brute-force oracle: evaluate both Dirichlet sums on random g
        from itertools import permutations as iter_permutations

        rng = np.random.default_rng(5)
        gam = GammaVector(tuple(rng.uniform(0, 2, size=3)))
        k = gam.k
        words = list(iter_permutations(range(1, k + 1)))
        rank_of = {w: r for r, w in enumerate(words)}
        g = rng.normal(size=len(words))

        def swap(word, a, b):
            return tuple(b if v == a else a if v == b else v for v in word)

        lhs = sum(
            gam.gamma[i - 1] * (g[r] - g[rank_of[swap(w, i, k)]]) ** 2
            for r, w in enumerate(words)
            for i in range(1, k)
        )
        rhs = sum(
            gam.gamma[i - 1] * gam.gamma[j - 1] / gam.total
            * (g[r] - g[rank_of[swap(w, i, j)]]) ** 2
            for r, w in enumerate(words)
            for i in range(1, k)
            for j in range(i + 1, k)
        )
        Q = loop_dirichlet_matrix(gam)
        assert g @ Q @ g == pytest.approx(lhs - rhs, rel=1e-12, abs=1e-12)
        q_min = np.linalg.eigvalsh(Q)[0]
        assert dirichlet_spectrum(gam)[0] == pytest.approx(q_min, rel=1e-12, abs=1e-12)


class TestConjectureMatrix:
    def test_trivial_shape_is_zero(self):
        D = conjecture_matrix(Partition((4,)), GammaVector((1.0, 2.0, 0.5)))
        assert np.array_equal(D, [[0.0]])

    def test_hook_shape_is_rank_one(self):
        gam = GammaVector((0.7, 1.3, 0.2))
        D = conjecture_matrix(Partition((3, 1)), gam)
        vals = np.linalg.eigvalsh(D)
        assert vals[0] >= -1e-12
        assert np.sum(vals > 1e-10) <= 1

    def test_sign_shape_scalar(self):
        gam = GammaVector((1.0, 2.0, 3.0))
        D = conjecture_matrix(Partition((1, 1, 1, 1)), gam)
        g1, g2, g3 = gam.gamma
        expected = 2.0 * (g1**2 + g2**2 + g3**2 + g1 * g2 + g1 * g3 + g2 * g3) / gam.total
        assert D[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_homogeneity(self):
        gam = GammaVector((0.5, 1.5, 2.5))
        scaled = GammaVector(tuple(3.0 * g for g in gam.gamma))
        for lam in enumerate_partitions(4):
            D1 = conjecture_matrix(lam, gam)
            D3 = conjecture_matrix(lam, scaled)
            assert np.allclose(D3, 3.0 * D1, atol=1e-12)

    def test_gamma_permutation_leaves_spectrum(self):
        gam = GammaVector((0.5, 1.5, 2.5))
        swapped = GammaVector((1.5, 0.5, 2.5))
        for lam in enumerate_partitions(4):
            a = np.linalg.eigvalsh(conjecture_matrix(lam, gam))
            b = np.linalg.eigvalsh(conjecture_matrix(lam, swapped))
            assert multiset_equal(a, b, tol=1e-10)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            conjecture_matrix(Partition((2, 1)), GammaVector((1.0, 1.0, 1.0)))


class TestEquivalenceOfForms:
    def test_dirichlet_min_equals_twice_block_min(self):
        rng = np.random.default_rng(77)
        for k in (2, 3, 4, 5):
            for _ in range(5):
                gam = GammaVector(tuple(rng.uniform(0, 2, size=k - 1)))
                if k >= 3 and gam.total == 0:
                    continue
                q_min = float(dirichlet_spectrum(gam)[0])
                block_min = min(
                    float(np.linalg.eigvalsh(conjecture_matrix(lam, gam))[0])
                    for lam in enumerate_partitions(k)
                )
                assert q_min == pytest.approx(2.0 * block_min, rel=1e-8, abs=1e-8)


class TestCheckConjecture:
    def test_k4_seeded_pass(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            gam = tuple(rng.uniform(0, 3, size=3))
            report = check_conjecture(4, gam)
            assert report.passed
            assert len(report.per_shape) == 5

    def test_k5_equal_rates(self):
        report = check_conjecture(5, (1.0, 1.0, 1.0, 1.0))
        assert report.passed

    def test_k3_degenerate_rate(self):
        report = check_conjecture(3, (1.0, 0.0))
        assert report.passed

    def test_boundary_status_on_k4_unit(self):
        report = check_conjecture(4, (1.0, 1.0, 1.0))
        by_shape = {v.partition.parts: v for v in report.per_shape}
        assert by_shape[(4,)].status == "boundary"
        assert by_shape[(2, 1, 1)].status == "boundary"
        assert by_shape[(2, 2)].status == "positive"

    def test_gamma_length_mismatch(self):
        with pytest.raises(ValueError):
            check_conjecture(4, (1.0, 1.0))


class TestConjugateTwist:
    @given(
        gamma=st.integers(min_value=3, max_value=7).flatmap(
            lambda k: st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=k - 1, max_size=k - 1)
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_per_shape_solves(self, gamma):
        k = len(gamma) + 1
        report = check_conjecture(k, gamma)
        assert [v.partition for v in report.per_shape] == enumerate_partitions(k)
        for v in report.per_shape:
            D = conjecture_matrix(v.partition, gamma)
            min_eig = float(np.linalg.eigvalsh(D)[0])
            scale = 1.0 + np.abs(D).max()
            assert abs(v.min_eig - min_eig) <= 1e-12 * scale, v.partition
            assert v.dim == D.shape[0]
            if abs(abs(min_eig) - 1e-9 * scale) > 1e-12 * scale:  # clear of the status threshold
                expected = "boundary" if abs(min_eig) <= 1e-9 * scale else "positive"
                assert v.status == expected, v.partition


class TestEqualGamma:
    def test_trivial_shape_is_zero(self):
        for k in range(2, 8):
            assert equal_gamma_min_eig(Partition((k,))) == 0

    def test_column_shape(self):
        for k in range(2, 8):
            assert equal_gamma_min_eig(Partition((1,) * k)) == k * (k - 1)
            assert equal_gamma_lower_bound(Partition((1,) * k)) == 0

    def test_shape_22_value_from_box_enumeration(self):
        # contents of (2,2) boxes: 0, 1, -1, 0 -> sum 0; corner content 0
        assert equal_gamma_min_eig(Partition((2, 2))) == 6
        assert equal_gamma_lower_bound(Partition((2, 2))) == 2

    def test_matches_numeric_matrix_and_bound(self):
        for k in range(2, 8):
            ones = GammaVector((1.0,) * (k - 1))
            for lam in enumerate_partitions(k):
                M = (k - 1) * conjecture_matrix(lam, ones)
                numeric_min = float(np.linalg.eigvalsh(M)[0])
                exact = equal_gamma_min_eig(lam)
                assert numeric_min == pytest.approx(exact, abs=1e-9)
                assert exact >= equal_gamma_lower_bound(lam) >= 0

    def test_diagonal_with_integer_entries(self):
        for k in range(2, 8):
            ones = GammaVector((1.0,) * (k - 1))
            for lam in enumerate_partitions(k):
                M = (k - 1) * conjecture_matrix(lam, ones)
                off = M - np.diag(np.diag(M))
                assert np.abs(off).max() < 1e-10
                for idx, t in enumerate(enumerate_syt(lam)):
                    expected = k * (k - 1) // 2 + sum(
                        content(t, i) for i in range(1, k + 1)
                    ) - k * content(t, k)
                    assert M[idx, idx] == pytest.approx(expected, abs=1e-10)

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            equal_gamma_min_eig(Partition((1,)))


class TestK4ClosedForms:
    def test_unit_rates(self):
        report = k4_closed_forms((1.0, 1.0, 1.0))
        assert report.passed
        assert report.rank1_residual_31 <= 1e-12
        assert report.min_eig_211 == pytest.approx(0.0, abs=1e-12)
        # u = (1, -1, 1): (w.u)^2/|u|^2 = 9/3 -> lower bound 2
        assert report.lower_bound_22 == pytest.approx(2.0, abs=1e-12)
        assert report.min_eig_22 >= 2.0 - 1e-9

    def test_seeded_rates(self):
        rng = np.random.default_rng(200)
        for _ in range(25):
            gam = tuple(rng.uniform(0, 2.5, size=3))
            report = k4_closed_forms(gam)
            assert report.passed, gam
            assert report.rank1_residual_31 <= 1e-11
            assert report.decomposition_residual_22 <= 1e-11
            assert report.identity_residual_211 <= 1e-11
            if report.lower_bound_22 is not None:
                assert report.lower_bound_22 >= -1e-12
                assert report.gram_residual_22 >= -1e-9

    def test_pointwise_bound_is_scale_covariant_only(self):
        # the projection bound is invariant under gamma -> c*gamma while
        # the block eigenvalues scale like c^2, so the raw inequality
        # min_eig >= bound holds at large scale and fails at small scale;
        # the Gram-weighted form holds at every scale
        gam = (0.283964108014359, 0.3531028648568235, 1.11711929016177)
        small = k4_closed_forms(gam)
        large = k4_closed_forms(tuple(4.0 * g for g in gam))
        assert small.lower_bound_22 == pytest.approx(large.lower_bound_22, rel=1e-12)
        assert small.min_eig_22 < small.lower_bound_22
        assert large.min_eig_22 == pytest.approx(16.0 * small.min_eig_22, rel=1e-10)
        assert large.min_eig_22 > large.lower_bound_22
        assert small.gram_residual_22 >= -1e-10
        assert large.gram_residual_22 >= -1e-10
        assert small.passed and large.passed

    def test_matches_generic_blocks(self):
        rng = np.random.default_rng(300)
        gam = GammaVector(tuple(rng.uniform(0.1, 2.0, size=3)))
        scaled = {
            (3, 1): conjecture_matrix(Partition((3, 1)), gam) * gam.total,
            (2, 2): conjecture_matrix(Partition((2, 2)), gam) * gam.total,
        }
        report = k4_closed_forms(gam)
        # the reported minima come from the same scaled blocks
        assert report.min_eig_22 == pytest.approx(
            float(np.linalg.eigvalsh(scaled[(2, 2)])[0]), rel=1e-10, abs=1e-10
        )

    def test_zero_edge_cases(self):
        report = k4_closed_forms((1.0, 0.0, 0.0))
        assert report.lower_bound_22 is None
        assert report.passed

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            k4_closed_forms((1.0, 1.0))


class TestComparisonWeights:
    def test_structure(self):
        H = comparison_weights(GammaVector((2.0, 4.0)))
        assert H.n == 3
        assert H.weights[(1, 3)] == 2.0
        assert H.weights[(2, 3)] == 4.0
        assert H.weights[(1, 2)] == pytest.approx(-8.0 / 6.0)
