import math
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from aldous.graphs import (
    WeightedGraph,
    collapse_last_vertex,
    complete_graph,
    cycle_graph,
    is_connected,
    nested_triangulation,
    path_graph,
    random_connected_graph,
    wheel_graph,
)
from aldous.reduction import (
    DegreeOne,
    EliminationCertificate,
    InapplicableRule,
    Parallel,
    ReductionCertificate,
    Series,
    Skeleton,
    YDelta,
    apply_rule,
    certify_elimination,
    reduce_to_edge,
    replay_elimination,
    replay_reduction,
)
from helpers import (
    TREE_COUNTS,
    all_trees,
    reference_candidate_steps,
    reference_certify_elimination,
    reference_collapse,
    reference_reduce_to_edge,
    seeded_graph_stream,
    stepped_reduce_to_edge,
    tree_canonical,
    tree_graph,
)


def skeleton_of(G):
    return Skeleton.from_graph(G)


class TestSkeleton:
    def test_multiplicity_accumulates(self):
        S = Skeleton([1, 2], [(1, 2), (2, 1)])
        assert S.multiplicity(1, 2) == 2
        assert S.degree(1) == 2

    def test_rejects_self_loop_and_unknown_vertex(self):
        with pytest.raises(ValueError):
            Skeleton([1, 2], [(1, 1)])
        with pytest.raises(ValueError):
            Skeleton([1, 2], [(1, 3)])

    def test_equality_and_hash(self):
        a = Skeleton([1, 2, 3], [(1, 2), (2, 3)])
        b = Skeleton([1, 2, 3], [(2, 3), (1, 2)])
        assert a == b and hash(a) == hash(b)

    def test_from_graph_drops_zero_edges(self):
        G = WeightedGraph(3, {(1, 2): 1.0, (2, 3): 0.0})
        S = skeleton_of(G)
        assert S.multiplicity(1, 2) == 1
        assert S.multiplicity(2, 3) == 0


class TestApplyRule:
    def test_series_on_path(self):
        S = Skeleton([1, 2, 3], [(1, 2), (2, 3)])
        out = apply_rule(S, Series(2, 1, 3))
        assert out.is_single_edge()

    def test_parallel_merge(self):
        S = Skeleton([1, 2], {(1, 2): 2})
        out = apply_rule(S, Parallel(1, 2))
        assert out.is_single_edge()

    def test_degree_one(self):
        S = Skeleton([1, 2, 3], [(1, 2), (2, 3)])
        out = apply_rule(S, DegreeOne(1))
        assert out.vertices == frozenset({2, 3})

    def test_ydelta_creates_parallels(self):
        # W4 = K4: triangle move on an outer vertex doubles the rim edges
        S = skeleton_of(wheel_graph(4))
        out = apply_rule(S, YDelta(2, 1, 3, 4))
        assert out.vertices == frozenset({1, 3, 4})
        assert out.multiplicity(1, 3) == 2
        assert out.multiplicity(3, 4) == 2
        assert out.multiplicity(1, 4) == 2

    def test_preconditions(self):
        S = Skeleton([1, 2, 3], [(1, 2), (2, 3)])
        with pytest.raises(InapplicableRule):
            apply_rule(S, DegreeOne(2))
        with pytest.raises(InapplicableRule):
            apply_rule(S, Parallel(1, 2))
        with pytest.raises(InapplicableRule):
            apply_rule(S, Series(1, 2, 3))
        with pytest.raises(InapplicableRule):
            apply_rule(S, YDelta(2, 1, 3, 3))


class TestReduceToEdge:
    def test_already_an_edge(self):
        result = reduce_to_edge(Skeleton([1, 2], [(1, 2)]))
        assert result.reduced and result.certificate.steps == () and result.states_expanded == 0

    def test_wheels(self):
        for n in range(4, 10):
            result = reduce_to_edge(skeleton_of(wheel_graph(n)))
            assert result.reduced, n
            assert replay_reduction(result.certificate)

    def test_cycles(self):
        for n in range(3, 10):
            result = reduce_to_edge(skeleton_of(cycle_graph(n)))
            assert result.reduced
            assert replay_reduction(result.certificate)

    def test_trees(self):
        for n in range(2, 7):
            for edges in all_trees(n):
                result = reduce_to_edge(skeleton_of(tree_graph(n, edges)))
                assert result.reduced
                assert replay_reduction(result.certificate)

    def test_k5_irreducible(self):
        result = reduce_to_edge(skeleton_of(complete_graph(5)))
        assert result.status == "irreducible"
        assert result.reason == "no applicable rule"

    def test_k5_plus_pendant_irreducible(self):
        # pendant then stuck at K5: rules apply somewhere, but no sequence works
        S = Skeleton(range(1, 7), [(i, j) for i in range(1, 6) for j in range(i + 1, 6)] + [(5, 6)])
        result = reduce_to_edge(S)
        assert result.status == "irreducible"
        assert "exhausted" in result.reason
        assert result.states_expanded == 2

    def test_budget(self):
        for budget in (0, 1):
            result = reduce_to_edge(skeleton_of(wheel_graph(9)), budget=budget)
            assert result.status == "inconclusive"
            assert result.reason == "budget exhausted"
            assert result.states_expanded == budget

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            reduce_to_edge(Skeleton([1, 2, 3, 4], [(1, 2), (3, 4)]))

    def test_replay_detects_tampering(self):
        result = reduce_to_edge(skeleton_of(cycle_graph(4)))
        cert = result.certificate
        assert not replay_reduction(ReductionCertificate(cert.initial, cert.steps[:-1]))
        assert not replay_reduction(ReductionCertificate(cert.initial, cert.steps[1:]))

    def test_replay_requires_a_single_edge_at_the_end(self):
        S = Skeleton.from_graph(path_graph(5))
        assert not replay_reduction(ReductionCertificate(S, ()))
        assert replay_reduction(reduce_to_edge(S).certificate)

    def test_greedy_matches_exhaustive_oracle_small(self):
        # independent breadth-first oracle over all rule applications
        from collections import deque

        def bfs_reducible(S):
            queue, seen = deque([S]), {S}
            while queue:
                state = queue.popleft()
                if state.is_single_edge():
                    return True
                for step in reference_candidate_steps(state):
                    nxt = apply_rule(state, step)
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            return False

        for n in range(2, 6):
            pairs = list(combinations(range(1, n + 1), 2))
            for mask in range(1 << len(pairs)):
                edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
                if len(edges) < n - 1:
                    continue
                S = Skeleton(range(1, n + 1), edges)
                if not S.is_connected():
                    continue
                result = reduce_to_edge(S)
                assert result.reduced == bfs_reducible(S), S

    def test_all_connected_graphs_up_to_six_vertices(self):
        counts = {"reduced": 0, "irreducible": 0}
        for n in range(2, 7):
            pairs = list(combinations(range(1, n + 1), 2))
            for mask in range(1 << len(pairs)):
                edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
                if len(edges) < n - 1:
                    continue
                S = Skeleton(range(1, n + 1), edges)
                if not S.is_connected():
                    continue
                result = reduce_to_edge(S)
                counts[result.status] += 1
                if result.reduced:
                    assert replay_reduction(result.certificate), S
        assert counts == {"reduced": 26918, "irreducible": 557}

    def test_pendant_core_is_irreducible_and_repeats(self):
        # the benchmark's kind of core: K5 plus 7 leaves, labels shuffled
        core = skeleton_of(pendant_core(7, np.random.default_rng(5)))
        assert reduce_to_edge(core).status == "irreducible"
        assert reduce_to_edge(core).states_expanded == 8
        for S in (core, skeleton_of(nested_triangulation(3, 1, seed=5))):
            runs = [reduce_to_edge(S) for _ in range(3)]
            assert len({(r.status, r.states_expanded, r.certificate and r.certificate.steps) for r in runs}) == 1

    def test_parallel_edges_are_merged_in_the_certificate(self):
        S = Skeleton([1, 2, 3, 4], {(1, 2): 2, (2, 3): 3, (3, 4): 1, (1, 4): 2})
        result = reduce_to_edge(S)
        assert result.reduced and replay_reduction(result.certificate)
        assert terminal(result.certificate).is_single_edge()
        assert sum(isinstance(step, Parallel) for step in result.certificate.steps) == 5


class TestCertifyElimination:
    def test_trees_with_k2(self):
        rng = np.random.default_rng(1)
        for n in range(2, 8):
            for edges in all_trees(n):
                G = tree_graph(n, edges, weights=rng.uniform(0.2, 2.0, size=len(edges)))
                result = certify_elimination(G, K=2)
                assert result.certified, edges
                assert replay_elimination(result.certificate)

    def test_nested_triangulations_with_k4(self):
        for depth, branching in [(1, 1), (1, 2), (2, 1)]:
            G = nested_triangulation(depth, branching, seed=7)
            result = certify_elimination(G, K=4)
            assert result.certified, (depth, branching)
            assert replay_elimination(result.certificate)
            assert max(d for _, d in result.certificate.steps) <= 3

    def test_k5_fails_definitively(self):
        result = certify_elimination(complete_graph(5), K=4)
        assert result.status == "no_certificate"

    def test_path_needs_only_degree_one(self):
        result = certify_elimination(path_graph(6), K=2)
        assert result.certified
        assert all(d <= 1 for _, d in result.certificate.steps)

    @pytest.mark.parametrize("p", range(6, 11))
    def test_k5_with_leaves_counts_every_leaf_order(self, p):
        # the plain search visits every ordering of every subset of the
        # leaves; the memo searches each of the 2^p subsets once
        edges = {(i, j): 1.0 for i in range(1, 6) for j in range(i + 1, 6)}
        edges.update({(1 + k % 5, 5 + k): 1.0 for k in range(1, p + 1)})
        result = certify_elimination(WeightedGraph(5 + p, edges), K=4, budget=10**9)
        assert result.status == "no_certificate"
        assert result.states_expanded == sum(math.perm(p, k) for k in range(p + 1))

    def test_budget_inconclusive(self):
        result = certify_elimination(complete_graph(6, seed=3), K=5, budget=0)
        assert result.status == "inconclusive"

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            certify_elimination(path_graph(3), K=1)

    def test_replay_detects_weight_tampering(self):
        G = path_graph(4, seed=5)
        cert = certify_elimination(G, K=2).certificate
        # a zeroed rate changes the positive degree of a vertex the steps remove
        tampered = dict(G.weights)
        tampered[(1, 2)] = 0.0
        bad = EliminationCertificate(cert.max_degree_bound, cert.steps, WeightedGraph(G.n, tampered))
        assert not replay_elimination(bad)
        (v, degree), rest = cert.steps[0], cert.steps[1:]
        for first in [(v, degree + 1), (v, degree - 1), (0, degree), (G.n + 1, degree)]:
            bad = EliminationCertificate(cert.max_degree_bound, (first,) + rest, G)
            assert not replay_elimination(bad), first
        assert not replay_elimination(EliminationCertificate(0, cert.steps, G))

    def test_replay_requires_at_most_two_vertices_at_the_end(self):
        G = wheel_graph(7)
        cert = certify_elimination(G, K=4).certificate
        assert replay_elimination(cert)
        for steps in [(), cert.steps[:1], cert.steps[:-1]]:
            assert not replay_elimination(EliminationCertificate(3, steps, G)), steps
        # a step past the end is not part of an elimination to two vertices
        extra = cert.steps + ((1, 1),)
        assert not replay_elimination(EliminationCertificate(3, extra, G))
        assert replay_elimination(EliminationCertificate(3, (), path_graph(2)))

    def test_tiny_rates_keep_their_fill_in(self):
        # K4 less the edge (1, 2), with vertex 5 joined to 1 and 2: removing
        # 5 joins 1 and 2 however small its rates, and K4 has no order of
        # positive degree at most 2
        edges = {(1, 3): 1.0, (1, 4): 1.0, (2, 3): 1.0, (2, 4): 1.0, (3, 4): 1.0}
        for rate in (1.0, 1e-200):
            G = WeightedGraph(5, {**edges, (1, 5): rate, (2, 5): rate})
            assert certify_elimination(G, K=3).status == "no_certificate", rate
            # an order that holds only if the fill-in (1, 2) is lost
            lost = EliminationCertificate(2, ((5, 2), (1, 2), (1, 2)), G)
            assert not replay_elimination(lost), rate

    def test_replay_keeps_a_fill_in_below_the_float_range(self):
        # removing vertex 1 joins 4 and 5 at 1e-200 * 1e-200 / s, which
        # rounds to 0.0 as a float, but is a positive rate all the same
        strong = {(1, 3): 1.0, (2, 4): 1.0, (3, 4): 1.0}
        weak = {(1, 4): 1e-200, (1, 5): 1e-200, (2, 3): 1e-200, (2, 5): 1e-200, (3, 5): 1e-200}
        result = certify_elimination(WeightedGraph(5, {**strong, **weak}), K=4)
        assert result.certified and result.certificate.steps == ((1, 3), (1, 3), (1, 2))
        assert replay_elimination(result.certificate)

    def test_mixed_scale_certificates_replay(self):
        # rates 180-200 orders of magnitude apart within one graph
        rng = np.random.default_rng(7)
        certified = 0
        for _ in range(1000):
            n = int(rng.integers(5, 10))
            G = random_connected_graph(n, rng)
            rates = rng.choice([1.0, 1e-180, 1e-200], size=len(G.weights)).tolist()
            G = WeightedGraph(n, dict(zip(G.weights, rates)))
            for K in (3, 4):
                result = certify_elimination(G, K=K)
                certified += result.certified
                assert not result.certified or replay_elimination(result.certificate), (G, K)
        assert certified == 1274

    def test_replay_matches_the_float_collapse_at_one_scale(self):
        # with every rate in [0.25, 2] no fill-in underflows, so replay
        # accepts a step list exactly when the recorded degrees are the
        # positive degrees along the float collapse and within the bound
        rng = np.random.default_rng(5)
        for G in seeded_graph_stream(13, 200, 3, 9):
            H, steps = G, []
            while H.n > 2:
                v = int(rng.integers(1, H.n + 1))
                steps.append((v, H.positive_degree(v)))
                H = collapse_last_vertex(H, v)
            bound = int(rng.integers(1, G.n))
            want = all(d <= bound for _, d in steps)
            assert replay_elimination(EliminationCertificate(bound, tuple(steps), G)) == want, G
            k = int(rng.integers(len(steps)))
            off = steps[:k] + [(steps[k][0], steps[k][1] + 1)] + steps[k + 1 :]
            assert not replay_elimination(EliminationCertificate(G.n, tuple(off), G)), (G, k)

    def test_scale_invariance(self):
        # the order depends only on which rates are positive, and every
        # collapse along it stays positive where the rates were
        graphs = seeded_graph_stream(11, 60, 5, 12, extra_edge_prob=0.35)
        graphs += [nested_triangulation(2, 1), wheel_graph(8)]
        for G in graphs:
            for K in (3, 4, 5):
                want = certify_elimination(G, K=K)
                for c in (1e-300, 1e-160, 1e150, 1e300):
                    got = certify_elimination(G.scaled(c), K=K)
                    steps = got.certificate and got.certificate.steps
                    assert (got.status, got.states_expanded, steps) == (
                        want.status, want.states_expanded, want.certificate and want.certificate.steps
                    ), (G, K, c)
                    assert not got.certified or replay_elimination(got.certificate), (G, K, c)

    def test_fill_in_degrees_recorded(self):
        # collapsing the hub of a star fills in the leaf clique
        G = WeightedGraph(4, {(1, 4): 1.0, (2, 4): 1.0, (3, 4): 1.0})
        result = certify_elimination(G, K=4)
        assert result.certified
        first_vertex, first_degree = result.certificate.steps[0]
        assert first_degree <= 3


def pendant_core(pendants, rng):
    """K5 plus leaves on random core vertices, labels shuffled: no K = 4
    elimination order exists and no reduction sequence reaches an edge."""
    n = 5 + pendants
    label = [0] + [int(v) + 1 for v in rng.permutation(n)]
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    pairs += [(int(rng.integers(1, 6)), 6 + k) for k in range(pendants)]
    rates = rng.uniform(0.25, 2.0, size=len(pairs))
    return WeightedGraph(n, {(label[i], label[j]): w for (i, j), w in zip(pairs, rates)})


def search_suite():
    """Seeded random graphs (n <= 14), triangulations and pendant cores."""
    rng = np.random.default_rng(23)
    graphs = seeded_graph_stream(29, 40, 3, 14, extra_edge_prob=0.35)
    graphs += [nested_triangulation(d, b, seed=d + 4 * b) for d, b in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]]
    graphs += [pendant_core(p, rng) for p in (1, 3, 5)]
    # at K = 4 this search backtracks out of a dead end, then certifies
    edges = [(1, 2), (1, 6), (1, 7), (2, 3), (2, 5), (3, 4), (3, 6), (3, 7), (4, 5), (4, 6), (5, 7)]
    graphs.append(WeightedGraph(7, dict(zip(edges, rng.uniform(0.25, 2.0, size=len(edges))))))
    return graphs


def terminal(cert):
    """The skeleton a reduction certificate's steps end at."""
    return reduce(apply_rule, cert.steps, cert.initial)


def elimination_bits(result, collapse):
    """Status, state count, steps and the float bits of every intermediate
    graph, derived from the input and the steps by `collapse`."""
    cert = result.certificate
    graphs = None
    if cert is not None:
        graphs = [cert.graph]
        for v, _ in cert.steps:
            graphs.append(collapse(graphs[-1], v))
        graphs = [(H.n, [(k, w.hex()) for k, w in H.weights.items()]) for H in graphs]
        graphs = (cert.max_degree_bound, cert.steps, graphs)
    return result.status, result.states_expanded, graphs


class TestAgainstReference:
    """The elimination search matches its recursive all-pairs reference
    exactly: status, state count and steps, and every intermediate graph's
    weights in dict order with their float bits, as
    `collapse_last_vertex` and the reference's all-pairs collapse derive
    them from the input and the steps. The reduction search
    decides the same question as its reference rule-order search by a
    different route, so the two agree on verdicts, not on steps."""

    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_elimination(self, K):
        for G in search_suite():
            for budget in (2000, 7, 0):
                got = certify_elimination(G, K=K, budget=budget)
                want = reference_certify_elimination(G, K=K, budget=budget)
                assert elimination_bits(got, collapse_last_vertex) == elimination_bits(
                    want, reference_collapse
                ), (G, K, budget)

    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_elimination_at_every_budget(self, K):
        # the memo's skipped subtrees count as searched, and one that would
        # pass the budget stops the search exactly where the reference stops
        rng = np.random.default_rng(31)
        graphs = [pendant_core(p, rng) for p in range(1, 6)] + [search_suite()[-1]]
        for G in graphs:
            full = reference_certify_elimination(G, K=K, budget=10**6).states_expanded
            for budget in range(full + 2):
                got = certify_elimination(G, K=K, budget=budget)
                want = reference_certify_elimination(G, K=K, budget=budget)
                assert elimination_bits(got, collapse_last_vertex) == elimination_bits(
                    want, reference_collapse
                ), (G, K, budget)

    def test_elimination_certificate_starts_at_the_input(self):
        G = nested_triangulation(2, 1, seed=3)
        assert certify_elimination(G, K=4).certificate.graph is G

    def test_reduction(self):
        # two skeletons whose reference search backtracks out of a dead end, then reduces
        backtracking = [
            Skeleton(range(1, 9), [(1, 4), (1, 5), (1, 8), (2, 5), (3, 4), (3, 5), (3, 6), (3, 7),
                                   (3, 8), (4, 7), (5, 6), (6, 7), (7, 8)]),
            Skeleton(range(1, 7), [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5),
                                   (4, 6), (5, 6)]),
        ]
        for S in backtracking + [skeleton_of(G) for G in search_suite()]:
            decided = reduce_to_edge(S)
            assert decided.status != "inconclusive", S
            for budget in (100_000, 5, 0):
                got, want = reduce_to_edge(S, budget=budget), reference_reduce_to_edge(S, budget=budget)
                if want.reason == "budget exhausted":
                    assert got.status in ("inconclusive", decided.status), (S, budget)
                elif want.reduced:
                    assert got.reduced, (S, budget)
                else:  # the reference's exhausted search is a proof too
                    assert got.status == "irreducible", (S, budget)
                    assert (got.reason == "no applicable rule") == (want.reason == "no applicable rule")
                if got.reduced:
                    assert replay_reduction(got.certificate)
                    assert terminal(got.certificate).is_single_edge()

    def test_reduction_steps_match_the_stepped_construction(self):
        rng = np.random.default_rng(17)
        skeletons = [skeleton_of(wheel_graph(n)) for n in range(4, 12)]
        skeletons += [skeleton_of(cycle_graph(n)) for n in range(3, 12)]
        skeletons += [skeleton_of(tree_graph(n, edges)) for n in range(2, 8) for edges in all_trees(n)]
        skeletons += [skeleton_of(nested_triangulation(d, 1)) for d in range(5)]
        skeletons += [skeleton_of(nested_triangulation(d, 2)) for d in range(3)]
        for G in seeded_graph_stream(37, 80, 2, 14, extra_edge_prob=0.35):
            S = skeleton_of(G)
            skeletons += [S, Skeleton(S.vertices, {e: int(rng.integers(1, 4)) for e in S.edge_multiplicities()})]
        for S in skeletons:
            for budget in (100_000, 3, 0):
                got, want = reduce_to_edge(S, budget), stepped_reduce_to_edge(S, budget)
                assert got == want, (S, budget)

    def test_reduction_decides_the_k4_elimination_question(self):
        # a rule sequence is an elimination order with at most three neighbours per removal
        for G in search_suite():
            elimination = certify_elimination(G, K=4)
            if elimination.status != "inconclusive":
                assert reduce_to_edge(skeleton_of(G)).reduced == elimination.certified, G


class TestLongSearches:
    def test_path_1500_elimination(self):
        G = path_graph(1500)
        result = certify_elimination(G, K=3)
        assert result.certified and result.states_expanded == 1498
        assert result.certificate.graph is G and len(result.certificate.steps) == 1498
        assert all(d == 1 for _, d in result.certificate.steps)
        assert replay_elimination(result.certificate)

    def test_path_1500_reduction(self):
        result = reduce_to_edge(skeleton_of(path_graph(1500)))
        assert result.reduced and len(result.certificate.steps) == 1498
        assert replay_reduction(result.certificate)


class TestTreeEnumeration:
    def test_counts_match_known_sequence(self):
        for n in range(2, 9):
            assert len(all_trees(n)) == TREE_COUNTS[n]

    def test_generated_trees_are_distinct_spanning_trees(self):
        # with the counts above, distinctness makes the list complete
        for n in range(2, 9):
            trees = all_trees(n)
            for edges in trees:
                assert len(edges) == n - 1 and all(i < j for i, j in edges)
                assert is_connected(tree_graph(n, edges))
            assert len({tree_canonical(n, edges) for edges in trees}) == len(trees)

    def test_canonical_invariant_under_relabeling(self):
        edges = [(1, 2), (2, 3), (2, 4), (4, 5)]
        relabeled = [(5, 4), (4, 3), (4, 2), (2, 1)]
        assert tree_canonical(5, edges) == tree_canonical(5, relabeled)
