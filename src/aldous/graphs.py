"""Weighted graphs, their random-walk Laplacians, and vertex collapse.

Vertices are labeled 1..n. Edge weights are nonnegative interchange
rates keyed on unordered pairs, so symmetry holds by construction.
Collapsing a vertex redistributes its incident rates onto the remaining
pairs (the fill-in update); the collapsed Laplacian differs from the
original by a rank-one term, which is what makes the spectra interlace.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass

import numpy as np


def _edge_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _normalized_weights(n: int, weights, signed: bool) -> dict[tuple[int, int], float]:
    """Validate edge weights on vertices 1..n and key them as (i, j), i < j.

    Weights must be finite, and also nonnegative unless `signed`.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    normalized: dict[tuple[int, int], float] = {}
    for (i, j), w in weights.items():
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop on vertex {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        key = _edge_key(i, j)
        if key in normalized:
            raise ValueError(f"duplicate edge {key}")
        try:
            w = float(w)
        except OverflowError:  # an integer beyond the float range
            w = math.inf if w > 0 else -math.inf
        if not math.isfinite(w) or (w < 0 and not signed):
            bound = "finite" if signed else "finite and >= 0"
            raise ValueError(f"weight for edge {key} must be {bound}, got {w}")
        normalized[key] = w
    return normalized


@dataclass(frozen=True)
class WeightedGraph:
    """Simple weighted graph on vertices 1..n with nonnegative rates."""

    n: int
    weights: dict[tuple[int, int], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _normalized_weights(self.n, self.weights, signed=False))

    def weight(self, i: int, j: int) -> float:
        return self.weights.get(_edge_key(i, j), 0.0)

    def positive_edges(self) -> list[tuple[int, int]]:
        return sorted(k for k, w in self.weights.items() if w > 0)

    def positive_degree(self, v: int) -> int:
        """Number of strictly positive edges incident to v."""
        return sum(1 for (i, j), w in self.weights.items() if w > 0 and v in (i, j))

    def scaled(self, c: float) -> WeightedGraph:
        return WeightedGraph(self.n, {k: c * w for k, w in self.weights.items()})

    def relabeled(self, perm: dict[int, int]) -> WeightedGraph:
        """Apply a bijection of vertex labels (missing keys are fixed)."""
        mapped = {v: perm.get(v, v) for v in range(1, self.n + 1)}
        if sorted(mapped.values()) != list(range(1, self.n + 1)):
            raise ValueError("relabeling is not a bijection of 1..n")
        return WeightedGraph(
            self.n, {_edge_key(mapped[i], mapped[j]): w for (i, j), w in self.weights.items()}
        )


@dataclass(frozen=True)
class SignedWeightedGraph:
    """Edge weights keyed on unordered pairs, signs unrestricted.

    Carrier for comparison matrices whose edge coefficients may be
    negative; weights need only be finite.
    """

    n: int
    weights: dict[tuple[int, int], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _normalized_weights(self.n, self.weights, signed=True))


def rw_laplacian(G: WeightedGraph) -> np.ndarray:
    """Laplacian of the one-particle walk: off-diagonal -a_ij, zero row sums."""
    L = np.zeros((G.n, G.n))
    for (i, j), w in G.weights.items():
        L[i - 1, j - 1] -= w
        L[j - 1, i - 1] -= w
        L[i - 1, i - 1] += w
        L[j - 1, j - 1] += w
    return L


def collapse_last_vertex(G: WeightedGraph, v: int) -> WeightedGraph:
    """Remove vertex v, redistributing its rates onto the remaining pairs.

    v is first relabeled to position n; then each remaining pair gains
    a_in * a_jn / s where s is the total rate into v, summed in ascending
    label order. When s == 0 the vertex is already isolated and the
    result is the plain restriction.

    Only v's edges and the pairs among its neighbours are touched, in
    O(E + deg^2): every other pair would gain an exact signed zero, which
    leaves a nonzero weight as it is but can flip the sign of a zero one
    (-0.0 + 0.0 is 0.0), so zero weights get the full update too.
    a_i (a_j / s) replaces a_i a_j / s only where the product overflows
    or falls below the smallest normal float, which would drop a positive
    fill-in to zero; the fill-in itself is at most min(a_i, a_j). Keys
    come back sorted.
    """
    if G.n < 2:
        raise ValueError("collapse needs at least 2 vertices")
    if not 1 <= v <= G.n:
        raise ValueError(f"vertex {v} out of range for n={G.n}")
    rates: dict[int, float] = {}
    kept: dict[tuple[int, int], float] = {}
    zeros = []
    for (i, j), w in G.weights.items():
        if i == v or j == v:
            u = i + j - v
            rates[v if u == G.n else u] = w
            continue
        if j == G.n:
            i, j = (i, v) if i < v else (v, i)
        kept[(i, j)] = w
        if w == 0:
            zeros.append((i, j))
    s = sum(rates[u] for u in sorted(rates))
    if s > 0:
        ends = sorted(rates)
        pairs = [(i, j) for x, i in enumerate(ends) for j in ends[x + 1 :]]
        pairs += [(i, j) for i, j in zeros if i not in rates or j not in rates]
        for key in pairs:
            a, b = rates.get(key[0], 0.0), rates.get(key[1], 0.0)
            fill = a * b
            fill = fill / s if sys.float_info.min <= fill < math.inf else a * (b / s)
            w = kept.get(key, 0.0) + fill
            if w != 0 or key in kept:
                kept[key] = w
    return WeightedGraph(G.n - 1, dict(sorted(kept.items())))


def rank1_identity_check(G: WeightedGraph, tol: float = 1e-9) -> bool:
    """Verify L(a) equals the collapsed Laplacian plus its rank-one term.

    The term is b b^T / s with b = sum_i a_in (e_i - e_n), s = sum_i a_in.
    """
    n = G.n
    s = sum(G.weight(i, n) for i in range(1, n))
    if s <= 0:
        raise ValueError("total rate into the last vertex must be positive")
    lhs = rw_laplacian(G)
    collapsed = collapse_last_vertex(G, n)
    rhs = np.zeros((n, n))
    rhs[: n - 1, : n - 1] = rw_laplacian(collapsed)
    beta = np.zeros(n)
    for i in range(1, n):
        a = G.weight(i, n)
        beta[i - 1] += a
        beta[n - 1] -= a
    rhs += np.outer(beta, beta) / s
    scale = 1.0 + max(np.abs(lhs).max(), np.abs(rhs).max())
    return bool(np.abs(lhs - rhs).max() <= tol * scale)


def _component_count(vertices, edges) -> int:
    """Connected components of the graph on `vertices` with edge pairs `edges`."""
    parent = {v: v for v in vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    return len({find(v) for v in parent})


def positive_component_count(G: WeightedGraph) -> int:
    """Connected components of the graph spanned by strictly positive edges."""
    return _component_count(range(1, G.n + 1), (k for k, w in G.weights.items() if w > 0))


def is_connected(G: WeightedGraph) -> bool:
    """Connectivity of the graph spanned by strictly positive edges."""
    return positive_component_count(G) == 1


def gt_pattern(G: WeightedGraph) -> list[list[float]]:
    """Spectra of the graphs obtained by collapsing the last vertex repeatedly.

    Returns n lists of lengths n, n-1, ..., 1; consecutive levels
    interlace once the shorter one is padded with the isolated vertex's
    zero eigenvalue, and the final level is [0.0].
    """
    levels = []
    current = G
    while True:
        levels.append([float(x) for x in np.linalg.eigvalsh(rw_laplacian(current))])
        if current.n == 1:
            return levels
        current = collapse_last_vertex(current, current.n)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _with_weights(
    n: int, edges: list[tuple[int, int]], weights=None, seed: int | None = None
) -> WeightedGraph:
    """Attach weights to an edge list in its documented order.

    Priority: explicit `weights` sequence, else Uniform(0.5, 1.5) draws
    from default_rng(seed), else unit weights.
    """
    if weights is not None:
        weights = [float(w) for w in weights]
        if len(weights) != len(edges):
            raise ValueError(f"expected {len(edges)} weights, got {len(weights)}")
    elif seed is not None:
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 1.5, size=len(edges)).tolist()
    else:
        weights = [1.0] * len(edges)
    return WeightedGraph(n, dict(zip(edges, weights)))


def path_graph(n: int, weights=None, seed: int | None = None) -> WeightedGraph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return _with_weights(n, [(i, i + 1) for i in range(1, n)], weights, seed)


def cycle_graph(n: int, weights=None, seed: int | None = None) -> WeightedGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return _with_weights(n, edges, weights, seed)


def star_graph(n: int, weights=None, seed: int | None = None) -> WeightedGraph:
    """Center is vertex 1, leaves 2..n."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return _with_weights(n, [(1, i) for i in range(2, n + 1)], weights, seed)


def complete_graph(n: int, weights=None, seed: int | None = None) -> WeightedGraph:
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return _with_weights(n, edges, weights, seed)


def wheel_graph(n: int, weights=None, seed: int | None = None) -> WeightedGraph:
    """Hub is vertex 1; rim cycle on 2..n. Spokes listed before rim edges."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    spokes = [(1, i) for i in range(2, n + 1)]
    rim = [(i, i + 1) for i in range(2, n)] + [(2, n)]
    return _with_weights(n, spokes + rim, weights, seed)


def nested_triangulation(
    depth: int, branching: int, weights=None, seed: int | None = None
) -> WeightedGraph:
    """Recursively triangulated graph: start from a triangle; at each level
    attach `branching` new vertices to every triangle created at the
    previous level, each joined to that triangle's three vertices.

    depth=0 gives the triangle for any branching; depth=1, branching=1
    gives the complete graph on 4 vertices.
    """
    if depth < 0 or branching < 1:
        raise ValueError("need depth >= 0 and branching >= 1")
    edges: list[tuple[int, int]] = [(1, 2), (1, 3), (2, 3)]
    new_triangles: list[tuple[int, int, int]] = [(1, 2, 3)]
    next_vertex = 4
    for _ in range(depth):
        created: list[tuple[int, int, int]] = []
        for a, b, c in new_triangles:
            for _ in range(branching):
                w = next_vertex
                next_vertex += 1
                edges.extend([(a, w), (b, w), (c, w)])
                created.extend([(a, b, w), (a, c, w), (b, c, w)])
        new_triangles = created
    return _with_weights(next_vertex - 1, edges, weights, seed)


def _nested_triangulation_edges(depth: int, branching: int) -> int:
    """3 for the triangle and 3 per added vertex: level l adds `branching`
    vertices to each of the (3 branching)^(l-1) triangles that the level
    before created. Counting stops past 2^64 edges, which no memory holds."""
    edges, triangles = 3, 1
    for _ in range(depth if branching > 0 else 0):
        if edges > 2**64:
            break
        edges += 3 * branching * triangles
        triangles *= 3 * branching
    return edges


# Each named family: its generator, and its edge count from the parameters.
_FAMILIES = {
    "path": (path_graph, lambda n: n - 1),
    "cycle": (cycle_graph, lambda n: n),
    "star": (star_graph, lambda n: n - 1),
    "complete": (complete_graph, lambda n: n * (n - 1) // 2),
    "wheel": (wheel_graph, lambda n: 2 * (n - 1)),
    "nested_triangulation": (nested_triangulation, _nested_triangulation_edges),
}


def _family(kind: str, params: tuple[int, ...]):
    """The (generator, edge count) of the family named `kind`, after
    checking that `params` fill the generator's parameters without
    defaults."""
    try:
        family = _FAMILIES[kind]
    except KeyError:
        raise ValueError(f"unknown graph kind {kind!r}; choose from {sorted(_FAMILIES)}")
    required = [p for p in inspect.signature(family[0]).parameters.values() if p.default is p.empty]
    if len(params) != len(required):
        raise ValueError(f"{kind} takes {len(required)} parameter(s), got {len(params)}")
    return family


def generate(kind: str, *params: int, weights=None, seed: int | None = None) -> WeightedGraph:
    """Dispatch to a named generator; `params` fill its parameters without defaults."""
    generator, _ = _family(kind, params)
    return generator(*params, weights=weights, seed=seed)


def generated_edges(kind: str, *params: int) -> int:
    """The number of edges `generate(kind, *params)` makes, from the
    parameters alone, so that an oversized request can be refused before
    anything is built. Negative parameters count as 0: `generate` rejects
    them."""
    _, edge_count = _family(kind, params)
    return edge_count(*(max(p, 0) for p in params))


def random_connected_graph(
    n: int, rng: np.random.Generator, extra_edge_prob: float = 0.3
) -> WeightedGraph:
    """Random tree plus extra edges, with Uniform(0.25, 2.0) rates.

    The tree is drawn uniformly (random parent attachment), so the
    positive-weight graph is always connected. Deterministic given the
    generator state.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    edges = set()
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.add((u, v))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    ordered = sorted(edges)
    weights = rng.uniform(0.25, 2.0, size=len(ordered))
    return WeightedGraph(n, dict(zip(ordered, weights)))


# ---------------------------------------------------------------------------
# JSON interchange format
# ---------------------------------------------------------------------------


def graph_from_json_dict(data) -> WeightedGraph:
    """Parse {"n": int, "edges": [[i, j, weight], ...]}, 1-based, i < j."""
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    if "n" not in data or "edges" not in data:
        raise ValueError('graph JSON needs keys "n" and "edges"')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f'"n" must be a positive integer, got {n!r}')
    edges = data["edges"]
    if not isinstance(edges, list):
        raise ValueError('"edges" must be a list')
    weights: dict[tuple[int, int], float] = {}
    for entry in edges:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError(f"edge entry must be [i, j, weight], got {entry!r}")
        i, j, w = entry
        if any(isinstance(x, bool) for x in entry) or not (
            isinstance(i, int) and isinstance(j, int) and isinstance(w, (int, float))
        ):
            raise ValueError(f"edge entry must be [int, int, number], got {entry!r}")
        if i >= j:
            raise ValueError(f"edges must satisfy i < j, got ({i}, {j})")
        if (i, j) in weights:
            raise ValueError(f"duplicate edge ({i}, {j})")
        weights[(i, j)] = w
    # range, finiteness and sign are WeightedGraph's checks
    return WeightedGraph(n, weights)


def graph_to_json_dict(G: WeightedGraph) -> dict:
    return {"n": G.n, "edges": [[i, j, w] for (i, j), w in sorted(G.weights.items())]}
