import numpy as np
import pytest

from aldous.graphs import (
    _FAMILIES,
    SignedWeightedGraph,
    WeightedGraph,
    collapse_last_vertex,
    complete_graph,
    cycle_graph,
    generate,
    generated_edges,
    graph_from_json_dict,
    graph_to_json_dict,
    gt_pattern,
    is_connected,
    nested_triangulation,
    path_graph,
    positive_component_count,
    random_connected_graph,
    rank1_identity_check,
    rw_laplacian,
    star_graph,
    wheel_graph,
)
from aldous.spectral import interlace_check
from helpers import reference_collapse


def weight_bits(G):
    """(n, edges in dict order with exact float bits)."""
    return G.n, [(key, w.hex()) for key, w in G.weights.items()]


class TestWeightedGraph:
    def test_key_normalization(self):
        G = WeightedGraph(3, {(3, 1): 2.0})
        assert G.weight(1, 3) == 2.0
        assert G.weight(3, 1) == 2.0
        assert G.weight(1, 2) == 0.0

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, {(1, 1): 1.0})
        with pytest.raises(ValueError):
            WeightedGraph(3, {(1, 4): 1.0})
        with pytest.raises(ValueError):
            WeightedGraph(3, {(1, 2): -0.5})
        with pytest.raises(ValueError):
            WeightedGraph(0, {})

    def test_rejects_integers_beyond_the_float_range(self):
        # float() of a 401-digit integer raises OverflowError
        for graph in (WeightedGraph, SignedWeightedGraph):
            for w in (10**400, -(10**400)):
                with pytest.raises(ValueError, match=r"must be finite.*got -?inf"):
                    graph(3, {(1, 2): w})

    def test_rejects_duplicate_unordered_pair(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, {(1, 2): 1.0, (2, 1): 2.0})

    def test_positive_degree(self):
        G = WeightedGraph(3, {(1, 2): 1.0, (1, 3): 0.0})
        assert G.positive_degree(1) == 1
        assert G.positive_degree(3) == 0


class TestRwLaplacian:
    def test_two_vertices(self):
        w = 0.7
        L = rw_laplacian(WeightedGraph(2, {(1, 2): w}))
        assert np.array_equal(L, [[w, -w], [-w, w]])

    def test_k3_unit_spectrum(self):
        L = rw_laplacian(complete_graph(3))
        assert np.allclose(np.linalg.eigvalsh(L), [0.0, 3.0, 3.0], atol=1e-12)

    def test_all_zero_weights(self):
        L = rw_laplacian(WeightedGraph(3, {(1, 2): 0.0, (2, 3): 0.0}))
        assert np.array_equal(L, np.zeros((3, 3)))

    def test_row_sums_and_psd_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            G = random_connected_graph(int(rng.integers(2, 9)), rng)
            L = rw_laplacian(G)
            assert np.abs(L.sum(axis=1)).max() < 1e-12
            assert np.linalg.eigvalsh(L).min() > -1e-10

    def test_zero_multiplicity_counts_components(self):
        G = WeightedGraph(5, {(1, 2): 1.0, (2, 3): 2.0, (4, 5): 1.0})
        vals = np.linalg.eigvalsh(rw_laplacian(G))
        assert np.sum(np.abs(vals) < 1e-10) == 2
        assert positive_component_count(G) == 2


class TestCollapse:
    def test_hand_example(self):
        G = WeightedGraph(3, {(1, 3): 1.0, (2, 3): 1.0, (1, 2): 0.0})
        H = collapse_last_vertex(G, 3)
        assert H.n == 2
        assert H.weight(1, 2) == pytest.approx(0.5, abs=1e-15)

    def test_single_spoke_is_plain_restriction(self):
        G = WeightedGraph(4, {(1, 4): 2.5, (1, 2): 1.0, (2, 3): 3.0})
        H = collapse_last_vertex(G, 4)
        assert H.weight(1, 2) == 1.0
        assert H.weight(2, 3) == 3.0
        assert H.weight(1, 3) == 0.0

    def test_isolated_vertex_restriction(self):
        G = WeightedGraph(3, {(1, 2): 1.5})
        H = collapse_last_vertex(G, 3)
        assert H.n == 2 and H.weight(1, 2) == 1.5

    def test_collapse_arbitrary_vertex_relabels(self):
        # collapsing vertex 1 of the path 1-2-3 hands label 1 to vertex 3
        G = path_graph(3, weights=[1.0, 2.0])
        H = collapse_last_vertex(G, 1)
        assert H.n == 2
        # vertex 1 had a single neighbor: restriction of the relabeled graph
        assert H.weights == {(1, 2): 2.0}

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            collapse_last_vertex(WeightedGraph(1, {}), 1)
        with pytest.raises(ValueError):
            collapse_last_vertex(path_graph(3), 5)

    def test_matches_all_pairs_reference_bit_for_bit(self):
        # every vertex of seeded graphs, some rates set to 0.0 or -0.0 and
        # some edges listed out of order: the sparse update may skip only
        # pairs whose all-pairs update adds an exact 0.0 to a nonzero weight
        rng = np.random.default_rng(17)
        for _ in range(120):
            n = int(rng.integers(3, 14))
            G = random_connected_graph(n, rng, extra_edge_prob=float(rng.uniform(0.1, 0.7)))
            weights = {}
            for (i, j), w in reversed(list(G.weights.items())):
                r = rng.random()
                weights[(j, i) if r < 0.5 else (i, j)] = 0.0 if r < 0.1 else -0.0 if r < 0.2 else w
            G = WeightedGraph(n, weights)
            for v in range(1, n + 1):
                assert weight_bits(collapse_last_vertex(G, v)) == weight_bits(reference_collapse(G, v))

    def test_large_finite_rates_do_not_overflow(self):
        # a_i a_j overflows at 1e200, the fill-in a_i a_j / s <= min(a_i, a_j) does not
        G = cycle_graph(4, weights=[1e200] * 4)
        H = collapse_last_vertex(G, 1)
        assert H.weights == {(1, 2): 5e199, (1, 3): 1e200, (2, 3): 1e200}
        K = collapse_last_vertex(H, 1)
        assert K.weights == {(1, 2): 1e200 + 5e199 * (1e200 / 1.5e200)}
        # ordinary rates keep the product form a_i a_j / s
        G = WeightedGraph(4, {(1, 4): 0.1, (2, 4): 0.7, (3, 4): 1.3})
        assert collapse_last_vertex(G, 4).weight(2, 3) == (0.7 * 1.3) / (0.1 + 0.7 + 1.3)

    def test_small_rates_do_not_underflow(self):
        # a_i a_j underflows to 0 at 1e-200, the fill-in a_i a_j / s does not
        H = collapse_last_vertex(cycle_graph(4, weights=[1e-200] * 4), 4)
        assert H.weights == {(1, 2): 1e-200, (1, 3): 5e-201, (2, 3): 1e-200}

    def test_interlacing_on_seeded_collapses(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            G = random_connected_graph(int(rng.integers(3, 9)), rng)
            before = np.linalg.eigvalsh(rw_laplacian(G))
            H = collapse_last_vertex(G, G.n)
            after = np.sort(np.concatenate([np.linalg.eigvalsh(rw_laplacian(H)), [0.0]]))
            assert interlace_check(after, before, tol=1e-9)


class TestRank1Identity:
    def test_star_into_last_vertex(self):
        G = WeightedGraph(5, {(i, 5): float(i) for i in range(1, 5)})
        assert rank1_identity_check(G, tol=1e-12)

    def test_seeded_random(self):
        rng = np.random.default_rng(5)
        G = random_connected_graph(5, rng)
        assert rank1_identity_check(G, tol=1e-12)

    def test_perturbed_weight_fails(self):
        G = complete_graph(4)
        broken = WeightedGraph(4, {**G.weights, (1, 2): 1.4})
        # compare the broken graph's laplacian against the original's collapse
        lhs = rw_laplacian(broken)
        H = collapse_last_vertex(G, 4)
        rhs = np.zeros((4, 4))
        rhs[:3, :3] = rw_laplacian(H)
        beta = np.array([1.0, 1.0, 1.0, -3.0])
        rhs += np.outer(beta, beta) / 3.0
        assert np.abs(lhs - rhs).max() > 0.1

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            rank1_identity_check(WeightedGraph(3, {(1, 2): 1.0}))


class TestGenerators:
    def test_nested_triangulation_depth0(self):
        for branching in (1, 2, 5):
            G = nested_triangulation(0, branching)
            assert G.n == 3 and len(G.weights) == 3

    def test_nested_triangulation_11_is_k4(self):
        G = nested_triangulation(1, 1)
        assert G.n == 4 and len(G.weights) == 6
        assert sorted(G.weights) == sorted(complete_graph(4).weights)

    def test_nested_triangulation_12_and_21(self):
        assert nested_triangulation(1, 2).n == 5
        assert len(nested_triangulation(1, 2).weights) == 9
        # three triangles created at level 1, one new vertex each
        assert nested_triangulation(2, 1).n == 7
        assert len(nested_triangulation(2, 1).weights) == 15

    def test_wheel7(self):
        G = wheel_graph(7)
        assert G.n == 7 and len(G.weights) == 12
        assert G.positive_degree(1) == 6

    def test_other_kinds(self):
        assert len(path_graph(4).weights) == 3
        assert len(cycle_graph(5).weights) == 5
        assert len(star_graph(4).weights) == 3
        assert len(complete_graph(5).weights) == 10

    def test_generate_dispatch_and_errors(self):
        assert generate("wheel", 7).n == 7
        with pytest.raises(ValueError):
            generate("moebius", 7)
        with pytest.raises(ValueError):
            generate("wheel", 3)
        with pytest.raises(ValueError):
            generate("cycle", 2)
        with pytest.raises(ValueError):
            generate("wheel")
        with pytest.raises(ValueError):
            generate("nested_triangulation", 2)

    @pytest.mark.parametrize("kind", sorted(_FAMILIES))
    def test_generated_edges_counts_without_building(self, kind):
        if kind == "nested_triangulation":
            params = [(d, b) for d in range(4) for b in range(1, 4)]
        else:
            params = [(n,) for n in range(4, 12)]
        for p in params:
            assert generated_edges(kind, *p) == len(generate(kind, *p).weights), p
        with pytest.raises(ValueError, match="parameter"):
            generated_edges(kind)

    def test_generated_edges_of_oversized_requests(self):
        assert generated_edges("complete", 30000) == 449985000
        assert generated_edges("nested_triangulation", 30, 1) == 3 + 3 * (3**30 - 1) // 2
        assert generated_edges("nested_triangulation", 10**12, 5) > 2**64  # the count stops there
        assert generated_edges("complete", -10**9) == 0  # left to generate to reject

    def test_explicit_weights_and_seeded(self):
        G = path_graph(3, weights=[2.0, 5.0])
        assert G.weight(1, 2) == 2.0 and G.weight(2, 3) == 5.0
        with pytest.raises(ValueError):
            path_graph(3, weights=[1.0])
        a = wheel_graph(5, seed=11)
        b = wheel_graph(5, seed=11)
        assert a.weights == b.weights
        assert all(0.5 <= w <= 1.5 for w in a.weights.values())


class TestGtPattern:
    def test_two_vertices(self):
        levels = gt_pattern(WeightedGraph(2, {(1, 2): 0.8}))
        assert len(levels) == 2
        assert levels[0] == pytest.approx([0.0, 1.6])
        assert levels[1] == [0.0]

    def test_disconnected_pair(self):
        levels = gt_pattern(WeightedGraph(2, {}))
        assert levels == [[0.0, 0.0], [0.0]]

    def test_path3_levels_interlace(self):
        levels = gt_pattern(path_graph(3))
        assert [len(level) for level in levels] == [3, 2, 1]
        for upper, lower in zip(levels, levels[1:]):
            padded = sorted(lower + [0.0])
            assert interlace_check(padded, upper, tol=1e-9)

    def test_random_patterns_interlace(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            G = random_connected_graph(int(rng.integers(2, 8)), rng)
            levels = gt_pattern(G)
            assert [len(level) for level in levels] == list(range(G.n, 0, -1))
            assert levels[-1] == [0.0]
            for upper, lower in zip(levels, levels[1:]):
                assert interlace_check(sorted(lower + [0.0]), upper, tol=1e-9)


class TestConnectivity:
    def test_k3(self):
        assert is_connected(complete_graph(3))

    def test_zero_edge_pair(self):
        assert not is_connected(WeightedGraph(2, {(1, 2): 0.0}))
        assert not is_connected(WeightedGraph(2, {}))

    def test_wheel_with_zeroed_rim(self):
        G = wheel_graph(7)
        weights = {k: (w if 1 in k else 0.0) for k, w in G.weights.items()}
        assert is_connected(WeightedGraph(7, weights))


class TestJson:
    def test_roundtrip(self):
        G = wheel_graph(5, seed=2)
        data = graph_to_json_dict(G)
        H = graph_from_json_dict(data)
        assert H.n == G.n and H.weights == G.weights

    @pytest.mark.parametrize(
        "data",
        [
            {"n": 3},
            {"edges": []},
            {"n": 0, "edges": []},
            {"n": 3, "edges": [[1, 1, 1.0]]},
            {"n": 3, "edges": [[2, 1, 1.0]]},
            {"n": 3, "edges": [[1, 2, -1.0]]},
            {"n": 3, "edges": [[1, 2, 1.0], [1, 2, 2.0]]},
            {"n": 3, "edges": [[1, 4, 1.0]]},
            {"n": 3, "edges": [[1, 2]]},
            "nope",
            {"n": 3, "edges": [[1, 2, 10**400]]},
        ],
    )
    def test_rejects_malformed(self, data):
        with pytest.raises(ValueError):
            graph_from_json_dict(data)
