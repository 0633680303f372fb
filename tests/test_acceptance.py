"""Acceptance gate: one test per criterion, run with `pytest -v -s` to
see the per-criterion pass lines. Tolerances are fixed here, not
configurable."""

from contextlib import contextmanager

import numpy as np
import pytest

from aldous.conjecture import (
    GammaVector,
    check_conjecture,
    comparison_weights,
    conjecture_matrix,
    equal_gamma_lower_bound,
    equal_gamma_min_eig,
    k4_closed_forms,
)
from aldous.graphs import (
    collapse_last_vertex,
    complete_graph,
    cycle_graph,
    gt_pattern,
    nested_triangulation,
    random_connected_graph,
    rank1_identity_check,
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
from aldous.permutations import Permutation
from aldous.reduction import (
    Skeleton,
    certify_elimination,
    reduce_to_edge,
    replay_elimination,
    replay_reduction,
)
from aldous.spectral import interlace_check, multiset_equal, shift_bound_check
from aldous.tableaux import Partition, content, enumerate_partitions, enumerate_syt, f_dim
from aldous.yor import (
    branching_check,
    jucys_murphy,
    rho_sigma,
    rho_transposition,
    s4_transposition_matrix,
)
from helpers import all_trees, seeded_graph_stream, tree_graph


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def desk_scale_suite():
    """Named graphs of the equality suite, unit weights."""
    graphs = []
    for n in range(2, 7):
        for edges in all_trees(n):
            graphs.append(tree_graph(n, edges))
    for n in range(3, 7):
        graphs.append(cycle_graph(n))
    for n in range(4, 7):
        graphs.append(wheel_graph(n))
    graphs.append(complete_graph(4))
    graphs.append(nested_triangulation(1, 1))
    return graphs


def test_criterion_1_aldous_equality_desk_scale():
    with criterion(1, "interchange gap equals walk gap on the fixed suite"):
        suite = desk_scale_suite() + seeded_graph_stream(1001, 50, 2, 6)
        assert len(suite) >= 63
        for G in suite:
            gi = gap_interchange(G)
            gr = gap_rw(G)
            assert gi == pytest.approx(gr, rel=1e-8, abs=1e-10), G.weights
        # at n = 9 and 10 the explicit route, the per-shape route and the walk
        # agree on seeded wheels and random graphs
        frontier = [G for n in (9, 10) for G in (wheel_graph(n, seed=n), *seeded_graph_stream(1000 + n, 1, n, n))]
        for G in frontier:
            eps = 1e-9 * (1.0 + float(sum(G.weights.values())))
            gi, gr = gap_interchange(G), gap_rw(G)
            assert abs(gi - aldous_check(G).gap_interchange) <= eps and abs(gi - gr) <= eps, G.weights


def test_criterion_2_interchange_decomposition():
    with criterion(2, "n! spectrum equals shape-block multiset"):
        for n in (3, 4, 5):
            for G in seeded_graph_stream(2000 + n, 20, n, n):
                direct = interchange_spectrum(G)
                assert multiset_equal(direct, spectrum_via_irreps(G), tol=1e-8)
        (G6,) = seeded_graph_stream(2600, 1, 6, 6)
        direct = interchange_spectrum(G6)
        assert multiset_equal(direct, spectrum_via_irreps(G6), tol=1e-8)


def test_criterion_3_rw_decomposition():
    with criterion(3, "walk spectrum is zero plus the two-row block"):
        from aldous.yor import irrep_laplacian

        for G in seeded_graph_stream(3000, 50, 2, 8):
            rw = np.linalg.eigvalsh(rw_laplacian(G))
            block = np.linalg.eigvalsh(irrep_laplacian(Partition((G.n - 1, 1)), G))
            assert multiset_equal(rw, np.concatenate([[0.0], block]), tol=1e-9)


def test_criterion_4_interlacing_rank1_shift():
    with criterion(4, "collapse interlacing, rank-one identity, shift bound"):
        instances = seeded_graph_stream(4000, 100, 2, 8)
        for G in instances:
            assert rank1_identity_check(G, tol=1e-12)
            assert shift_bound_check(G, tol=1e-9)
            before = np.linalg.eigvalsh(rw_laplacian(G))
            H = collapse_last_vertex(G, G.n)
            after = np.sort(np.concatenate([np.linalg.eigvalsh(rw_laplacian(H)), [0.0]]))
            assert interlace_check(after, before, tol=1e-9)
        for G in instances[:25]:
            levels = gt_pattern(G)
            assert [len(level) for level in levels] == list(range(G.n, 0, -1))
            for upper, lower in zip(levels, levels[1:]):
                assert interlace_check(sorted(lower + [0.0]), upper, tol=1e-9)


def test_criterion_5_conjecture_sweep_with_dirichlet_oracle():
    with criterion(5, "per-shape PSD sweep, brute-force Dirichlet agreement"):
        rng = np.random.default_rng(5000)
        for k in range(2, 7):
            for _ in range(100):
                gamma = GammaVector(tuple(rng.uniform(0.0, 3.0, size=k - 1)))
                if k >= 3 and gamma.total == 0:
                    continue
                report = check_conjecture(k, gamma)
                assert report.passed, (k, gamma.gamma)
                if k <= 5:
                    q_min = 2.0 * float(interchange_spectrum(comparison_weights(gamma))[0])
                    block_min = report.min_eigenvalue()
                    assert q_min == pytest.approx(2.0 * block_min, rel=1e-8, abs=1e-8)


def test_criterion_6_k4_closed_forms():
    with criterion(6, "four-box closed forms"):
        # anchored instance: bound 2 attained below the actual minimum 6
        unit = k4_closed_forms((1.0, 1.0, 1.0))
        assert unit.lower_bound_22 == pytest.approx(2.0, abs=1e-12)
        assert unit.min_eig_22 >= unit.lower_bound_22 - 1e-9
        assert unit.min_eig_211 == pytest.approx(0.0, abs=1e-9)
        rng = np.random.default_rng(6000)
        for _ in range(100):
            gamma = tuple(rng.uniform(0.0, 3.0, size=3))
            report = k4_closed_forms(gamma)
            assert report.passed, gamma
            assert report.rank1_residual_31 <= 1e-12 * (1 + max(gamma) ** 4)
            assert report.decomposition_residual_22 <= 1e-12 * (1 + max(gamma) ** 4)
            assert abs(report.min_eig_211) <= 1e-9 * (1 + max(gamma) ** 4)
            assert report.scalar_4 == 0.0
            assert report.scalar_1111 == pytest.approx(
                report.scalar_1111_expected, rel=1e-12, abs=1e-12
            )
            if report.lower_bound_22 is not None:
                # the scale-correct reading of the projection bound: it is
                # nonnegative and dominates in the Gram-weighted sense
                # (see the decisions ledger for why the raw eigenvalue
                # comparison cannot hold at every rate scale)
                assert report.lower_bound_22 >= -1e-12
                assert report.gram_residual_22 >= -1e-9 * (1 + max(gamma) ** 4)
                assert report.min_eig_22 >= -1e-9 * (1 + max(gamma) ** 4)


def test_criterion_7_equal_rate_diagonal():
    with criterion(7, "equal-rate matrix diagonal with exact integers"):
        for k in range(2, 8):
            ones = GammaVector((1.0,) * (k - 1))
            for lam in enumerate_partitions(k):
                M = (k - 1) * conjecture_matrix(lam, ones)
                off = M - np.diag(np.diag(M))
                assert np.abs(off).max() < 1e-10
                tabs = enumerate_syt(lam)
                expected = [
                    k * (k - 1) // 2
                    + sum(content(t, i) for i in range(1, k + 1))
                    - k * content(t, k)
                    for t in tabs
                ]
                assert np.allclose(np.diag(M), expected, atol=1e-9)
                assert min(expected) == equal_gamma_min_eig(lam)
                assert equal_gamma_min_eig(lam) >= equal_gamma_lower_bound(lam) >= 0


def test_criterion_8_representation_kernel():
    with criterion(8, "homomorphism, reference matrices, JM, branching"):
        rng = np.random.default_rng(8000)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            options = enumerate_partitions(n)
            lam = options[int(rng.integers(0, len(options)))]
            sigma = Permutation(tuple(rng.permutation(n) + 1))
            tau = Permutation(tuple(rng.permutation(n) + 1))
            Ms, Mt = rho_sigma(lam, sigma), rho_sigma(lam, tau)
            assert np.abs(Ms @ Mt - rho_sigma(lam, sigma * tau)).max() <= 1e-10
            assert np.abs(Ms.T @ Ms - np.eye(len(Ms))).max() <= 1e-10
            i = int(rng.integers(1, n))
            j = int(rng.integers(i + 1, n + 1))
            T = rho_transposition(lam, i, j)
            assert np.abs(T - T.T).max() <= 1e-10
            assert np.abs(T @ T - np.eye(len(T))).max() <= 1e-10
        for parts in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
            lam = Partition(parts)
            for i in range(1, 4):
                for j in range(i + 1, 5):
                    reference = s4_transposition_matrix(lam, i, j)
                    assert np.abs(reference - rho_transposition(lam, i, j)).max() <= 1e-12
        for n in range(2, 8):
            for lam in enumerate_partitions(n):
                tabs = enumerate_syt(lam)
                for j in range(2, n + 1):
                    X = jucys_murphy(lam, j)
                    assert np.abs(X - np.diag(np.diag(X))).max() <= 1e-10
                    for idx, t in enumerate(tabs):
                        assert abs(X[idx, idx] - content(t, j)) <= 1e-10
        for n in range(3, 7):
            for lam in enumerate_partitions(n):
                for i in range(1, n - 1):
                    for j in range(i + 1, n):
                        ok, witness = branching_check(lam, i, j, tol=1e-10)
                        assert ok, (lam.parts, i, j)
                        assert sorted(witness) == list(range(f_dim(lam)))


def test_criterion_9_reduction_engine():
    with criterion(9, "reduction certificates and bounded-degree elimination"):
        for n in range(4, 13):
            result = reduce_to_edge(Skeleton.from_graph(wheel_graph(n)))
            assert result.reduced, f"wheel {n}"
            assert replay_reduction(result.certificate)
        for n in range(3, 13):
            result = reduce_to_edge(Skeleton.from_graph(cycle_graph(n)))
            assert result.reduced, f"cycle {n}"
            assert replay_reduction(result.certificate)
        for n in range(2, 9):
            for edges in all_trees(n):
                result = reduce_to_edge(Skeleton.from_graph(tree_graph(n, edges)))
                assert result.reduced, (n, edges)
                assert replay_reduction(result.certificate)
        triangulations = []
        for depth, branching in [(1, 1), (1, 2), (2, 1)]:
            G = nested_triangulation(depth, branching, seed=900 + depth * 10 + branching)
            triangulations.append(G)
            result = reduce_to_edge(Skeleton.from_graph(G))
            assert result.reduced, (depth, branching)
            assert replay_reduction(result.certificate)

        k5 = reduce_to_edge(Skeleton.from_graph(complete_graph(5)))
        assert k5.status == "irreducible"

        certified_small = []
        for G in triangulations:
            result = certify_elimination(G, K=4)
            assert result.certified
            assert replay_elimination(result.certificate)
            assert max(d for _, d in result.certificate.steps) <= 3
            if G.n <= 6:
                certified_small.append(G)
        assert certified_small
        for G in certified_small:
            assert gap_interchange(G) == pytest.approx(gap_rw(G), rel=1e-8, abs=1e-10)
            assert aldous_check(G).passed
