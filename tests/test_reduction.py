import numpy as np
import pytest

from aldous.graphs import (
    WeightedGraph,
    complete_graph,
    cycle_graph,
    is_connected,
    nested_triangulation,
    path_graph,
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
from helpers import TREE_COUNTS, all_trees, tree_canonical, tree_graph


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
        assert result.reduced and result.certificate.steps == ()

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

    def test_k5_plus_pendant_inconclusive(self):
        # pendant then stuck at K5: rules apply somewhere, but no sequence works
        S = Skeleton(range(1, 7), [(i, j) for i in range(1, 6) for j in range(i + 1, 6)] + [(5, 6)])
        result = reduce_to_edge(S)
        assert result.status == "inconclusive"
        assert "exhausted" in result.reason

    def test_budget(self):
        result = reduce_to_edge(skeleton_of(wheel_graph(9)), budget=1)
        assert result.status == "inconclusive"
        assert result.reason == "budget exhausted"

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            reduce_to_edge(Skeleton([1, 2, 3, 4], [(1, 2), (3, 4)]))

    def test_replay_detects_tampering(self):
        result = reduce_to_edge(skeleton_of(cycle_graph(4)))
        cert = result.certificate
        bad = ReductionCertificate(cert.initial, cert.steps, Skeleton([1, 2], {(1, 2): 2}))
        assert not replay_reduction(bad)

    def test_greedy_matches_exhaustive_oracle_small(self):
        # independent breadth-first oracle over all rule applications
        from collections import deque
        from itertools import combinations

        from aldous.reduction import _candidate_steps

        def bfs_reducible(S):
            queue, seen = deque([S]), {S}
            while queue:
                state = queue.popleft()
                if state.is_single_edge():
                    return True
                for step in _candidate_steps(state):
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

    def test_budget_inconclusive(self):
        result = certify_elimination(complete_graph(6, seed=3), K=5, budget=0)
        assert result.status == "inconclusive"

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            certify_elimination(path_graph(3), K=1)

    def test_replay_detects_weight_tampering(self):
        G = path_graph(4, seed=5)
        cert = certify_elimination(G, K=2).certificate
        graphs = list(cert.graphs)
        tampered = dict(graphs[1].weights)
        key = next(iter(tampered))
        tampered[key] += 1e-6
        graphs[1] = WeightedGraph(graphs[1].n, tampered)
        bad = EliminationCertificate(cert.max_degree_bound, cert.steps, tuple(graphs))
        assert not replay_elimination(bad)

    def test_fill_in_degrees_recorded(self):
        # collapsing the hub of a star fills in the leaf clique
        G = WeightedGraph(4, {(1, 4): 1.0, (2, 4): 1.0, (3, 4): 1.0})
        result = certify_elimination(G, K=4)
        assert result.certified
        first_vertex, first_degree = result.certificate.steps[0]
        assert first_degree <= 3


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
