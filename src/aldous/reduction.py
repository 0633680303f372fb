"""Skeleton reduction rules and weighted elimination certificates.

Two certificate machines live here. The first works on unweighted
multigraph skeletons with four rules (drop a pendant vertex, contract a
degree-two vertex, merge a parallel pair, replace a degree-three vertex
by a triangle on its neighbors) and asks for a rule sequence ending in
a single edge; the inverse triangle-to-star move is deliberately not
available. The second works on weighted graphs and searches for a
vertex elimination order in which every removed vertex touches at most
K-1 strictly positive rates at removal time, applying the collapse
update (with its fill-in) at each step. A certificate of either kind
is its input and its steps, written once from the order its search
found, and checked once by its replay: `replay_reduction` re-applies
the rule steps to the input skeleton through the validating
`apply_rule` and requires a single edge at the end, and
`replay_elimination` collapses the positive support of the input graph
along its (vertex, positive degree) steps. Each collapse is fixed by the
graph it acts on and the vertex removed, so the input and the order
determine every intermediate graph, and none is recorded.

A rule sequence is an elimination order on the skeleton's simple
support in which every removed vertex has at most three neighbours, so
`reduce_to_edge` decides it as that elimination game: a depth-first
search over sets of removed vertices that remembers the sets that
failed, removes simplicial vertices without branching, and chooses the
next vertex among those with at most three neighbours. An exhausted
search is a proof. The order found becomes rule steps through one
count of edge multiplicities per pair: each removed vertex's pairs are
taken out with a `Parallel` merge for every edge past the first, its
rule follows, and each pair of its neighbours gains one edge; the last
pair's merges end the certificate. Nothing is validated while building:
that is the replay's job.

Whether an elimination order qualifies depends only on which rates are
positive: a collapse joins every two positive neighbours of the removed
vertex by a positive fill-in a_i a_j / s and leaves the sign of every
other rate as it was. So `certify_elimination` searches the positive
support too, by a depth-first search (lowest positive degree first,
ties by current label), and keeps the collapse's relabelling in a slot
list. It remembers each failed set of removed vertices with the number
of states its search took, and adds that number on a later visit
instead of searching again, so its state counts, budget stops and
steps are those of the plain search. Both searches edit one adjacency
structure in place through `_remove` and `_restore`: a removal and its
undo cost O(deg^2) set operations; the elimination game also looks up
the common neighbours of each fill-in edge, to refresh its simplicial
vertices. Both keep an explicit stack. `replay_elimination` checks
a certificate on the same positive support, without `_remove`: it joins
the neighbours of each removed vertex with set unions of its own and
relabels through a map of slots. No float collapse enters it, because a
fill-in a_i a_j / s below the smallest subnormal rounds to 0.0 although
it is positive (rates 1e-200 on a_i and a_j give 1e-400).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Union

from .graphs import WeightedGraph, _component_count, _edge_key


class InapplicableRule(ValueError):
    """The requested step's preconditions do not hold."""


class Skeleton:
    """Unweighted multigraph: a vertex set plus edge multiplicities.

    No self-loops; parallel edges allowed (the triangle rule can create
    them). Equality and hashing are structural.
    """

    __slots__ = ("vertices", "_edges")

    def __init__(self, vertices, edges):
        self.vertices = frozenset(int(v) for v in vertices)
        counts: dict[tuple[int, int], int] = {}
        for item in edges.items() if isinstance(edges, dict) else ((e, 1) for e in edges):
            (i, j), mult = item
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop on vertex {i}")
            if i not in self.vertices or j not in self.vertices:
                raise ValueError(f"edge ({i},{j}) uses unknown vertex")
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
            counts[_edge_key(i, j)] = counts.get(_edge_key(i, j), 0) + int(mult)
        self._edges = counts

    @classmethod
    def from_graph(cls, G: WeightedGraph) -> Skeleton:
        """Positive-weight edges of a weighted graph, multiplicity one."""
        return cls(range(1, G.n + 1), {k: 1 for k in G.positive_edges()})

    def edge_multiplicities(self) -> dict[tuple[int, int], int]:
        return dict(self._edges)

    def multiplicity(self, i: int, j: int) -> int:
        return self._edges.get(_edge_key(i, j), 0)

    def degree(self, v: int) -> int:
        return sum(m for (i, j), m in self._edges.items() if v in (i, j))

    def neighbors(self, v: int) -> list[int]:
        out = set()
        for i, j in self._edges:
            if i == v:
                out.add(j)
            elif j == v:
                out.add(i)
        return sorted(out)

    def is_single_edge(self) -> bool:
        return len(self.vertices) == 2 and sum(self._edges.values()) == 1

    def is_connected(self) -> bool:
        return _component_count(self.vertices, self._edges) == 1

    def _replace(self, drop_vertex=None, remove=(), add=()) -> Skeleton:
        """Successor skeleton. Not re-validated: the edges come from this
        skeleton and from a rule whose preconditions `apply_rule` checked."""
        counts = dict(self._edges)
        for key in remove:
            counts[key] -= 1
            if counts[key] == 0:
                del counts[key]
        for key in add:
            counts[key] = counts.get(key, 0) + 1
        out = Skeleton.__new__(Skeleton)
        out.vertices = self.vertices - {drop_vertex} if drop_vertex is not None else self.vertices
        out._edges = counts
        return out

    def canonical(self) -> tuple:
        return self.vertices, tuple(sorted(self._edges.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Skeleton) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        edges = ", ".join(
            f"{i}-{j}" + (f"x{m}" if m > 1 else "") for (i, j), m in sorted(self._edges.items())
        )
        return f"Skeleton({sorted(self.vertices)}; {edges})"


@dataclass(frozen=True)
class DegreeOne:
    v: int


@dataclass(frozen=True)
class Series:
    v: int
    i: int
    j: int


@dataclass(frozen=True)
class Parallel:
    i: int
    j: int


@dataclass(frozen=True)
class YDelta:
    v: int
    i: int
    j: int
    l: int


Step = Union[DegreeOne, Series, Parallel, YDelta]


def apply_rule(S: Skeleton, step: Step) -> Skeleton:
    """Apply one reduction step, validating its preconditions."""
    if isinstance(step, DegreeOne):
        v = step.v
        if v not in S.vertices or S.degree(v) != 1:
            raise InapplicableRule(f"vertex {v} does not have degree 1")
        (u,) = S.neighbors(v)
        return S._replace(drop_vertex=v, remove=[_edge_key(v, u)])
    if isinstance(step, Series):
        v, i, j = step.v, step.i, step.j
        if v not in S.vertices or S.degree(v) != 2:
            raise InapplicableRule(f"vertex {v} does not have degree 2")
        if i == j or S.multiplicity(v, i) != 1 or S.multiplicity(v, j) != 1:
            raise InapplicableRule(f"series step needs single edges to distinct {i}, {j}")
        return S._replace(
            drop_vertex=v, remove=[_edge_key(v, i), _edge_key(v, j)], add=[_edge_key(i, j)]
        )
    if isinstance(step, Parallel):
        i, j = step.i, step.j
        if S.multiplicity(i, j) < 2:
            raise InapplicableRule(f"no parallel pair between {i} and {j}")
        return S._replace(remove=[_edge_key(i, j)])
    if isinstance(step, YDelta):
        v, ends = step.v, (step.i, step.j, step.l)
        if v not in S.vertices or S.degree(v) != 3:
            raise InapplicableRule(f"vertex {v} does not have degree 3")
        if len(set(ends)) != 3 or any(S.multiplicity(v, u) != 1 for u in ends):
            raise InapplicableRule(f"triangle step needs single edges to 3 distinct neighbors")
        i, j, l = ends
        return S._replace(
            drop_vertex=v,
            remove=[_edge_key(v, i), _edge_key(v, j), _edge_key(v, l)],
            add=[_edge_key(i, j), _edge_key(i, l), _edge_key(j, l)],
        )
    raise InapplicableRule(f"unknown step {step!r}")


@dataclass(frozen=True)
class ReductionCertificate:
    initial: Skeleton
    steps: tuple[Step, ...]


def replay_reduction(cert: ReductionCertificate) -> bool:
    """Re-apply the recorded steps; they must end at a single edge."""
    state = cert.initial
    try:
        for step in cert.steps:
            state = apply_rule(state, step)
    except InapplicableRule:
        return False
    return state.is_single_edge()


@dataclass(frozen=True)
class ReductionResult:
    status: str  # "reduced" | "irreducible" (proved) | "inconclusive" (budget hit)
    reason: str
    certificate: ReductionCertificate | None
    states_expanded: int

    @property
    def reduced(self) -> bool:
        return self.status == "reduced"


def reduce_to_edge(S: Skeleton, budget: int = 100_000) -> ReductionResult:
    """Search for a rule sequence ending in a single edge.

    Such a sequence is an elimination order on the skeleton's simple
    support: `Parallel` merges aside, each rule removes a vertex with at
    most three distinct neighbours and joins them pairwise (`Series` and
    `YDelta` add the fill-in, `DegreeOne` needs none), until one pair is
    left. `_elimination_game` searches those orders; the order found is
    written into the certificate through one multiplicity count per
    pair, merging parallel edges at each removed vertex and on the last
    pair. An input that is already a single edge gets an empty order and
    so no steps.

    An exhausted search is a proof that no sequence exists and reports
    "irreducible"; the reason is "no applicable rule" when no rule
    applies to the input at all. Only a budget hit is "inconclusive".
    `states_expanded` counts the sets of removed vertices searched.
    """
    if not S.is_connected():
        raise ValueError("skeleton must be connected")
    labels = sorted(S.vertices)
    index = {v: k for k, v in enumerate(labels)}
    adj: list[set[int]] = [set() for _ in labels]
    for i, j in S._edges:
        adj[index[i]].add(index[j])
        adj[index[j]].add(index[i])
    if all(m == 1 for m in S._edges.values()) and not any(1 <= len(ends) <= 3 for ends in adj):
        return ReductionResult("irreducible", "no applicable rule", None, 0)
    status, expanded, order = _elimination_game(adj, budget)
    if status == "budget":
        return ReductionResult("inconclusive", "budget exhausted", None, expanded)
    if status == "exhausted":
        return ReductionResult("irreducible", "search exhausted without success", None, expanded)

    counts, steps = S.edge_multiplicities(), []
    for v, ends in order:
        v, ends = labels[v], [labels[u] for u in ends]
        for u in ends:
            steps += [Parallel(*_edge_key(v, u))] * (counts.pop(_edge_key(v, u)) - 1)
        steps.append(DegreeOne(v) if len(ends) == 1 else Series(v, *ends) if len(ends) == 2 else YDelta(v, *ends))
        for a, b in combinations(ends, 2):
            counts[a, b] = counts.get((a, b), 0) + 1
    ((pair, m),) = counts.items()
    steps += [Parallel(*pair)] * (m - 1)
    cert = ReductionCertificate(S, tuple(steps))
    return ReductionResult("reduced", "single edge reached", cert, expanded)


def _elimination_game(adj: list[set[int]], budget: int) -> tuple[str, int, list[tuple[int, list[int]]]]:
    """Search for an order removing all but two vertices of the simple
    graph `adj`, each with at most three neighbours when it goes; removing
    a vertex joins its neighbours pairwise.

    The graph left after removing a set of vertices does not depend on
    the order of removal, so a set whose search failed is remembered (as
    a bitmask) and never searched again. A vertex whose neighbours are
    pairwise adjacent (simplicial) goes without branching: removing it
    adds no edge, so an order that works with it still works, less that
    vertex, without it (Bodlaender and Koster, Treewidth computations I,
    2010). Otherwise the candidates are tried lowest degree first, ties
    by index. `adj` is
    edited in place, with an undo record per removal, and is restored
    unless the search succeeds.

    Returns (status, sets expanded, order): status "reduced" with the
    order as (vertex, its sorted neighbours when it went) pairs,
    "exhausted" when no order exists, or "budget".
    """
    low: set[int] = set()  # remaining vertices with at most three neighbours
    simplicial: set[int] = set()  # those of them whose neighbours are pairwise adjacent
    path = []  # (vertex, removed without branching?, fill-in edges, vertices to refresh)

    def refresh(u):
        ends = adj[u]
        if len(ends) > 3:
            low.discard(u)
            simplicial.discard(u)
            return
        low.add(u)
        if all(b in adj[a] for a, b in combinations(ends, 2)):
            simplicial.add(u)
        else:
            simplicial.discard(u)

    def remove(v, forced):
        low.discard(v)
        simplicial.discard(v)
        fill = _remove(adj, v)
        # a neighbourhood can stop or start being a clique only at v's
        # neighbours and at the common neighbours of a fill-in edge
        touched = set(adj[v])
        for a, b in fill:
            touched |= adj[a] & adj[b]
        for u in touched:
            refresh(u)
        path.append((v, forced, fill, touched))

    def restore():
        v, forced, fill, touched = path.pop()
        _restore(adj, v, fill)
        for u in touched | {v}:
            refresh(u)
        return v, forced

    def key(u):
        return len(adj[u]), u

    for u in range(len(adj)):
        refresh(u)
    failed: set[int] = set()
    removed = 0  # bitmask of the removed vertices
    expanded = 0
    while len(path) < len(adj) - 2:
        v = None
        if removed not in failed:
            if expanded >= budget:
                return "budget", expanded, []
            expanded += 1
            if simplicial:
                v, forced = min(simplicial), True
            elif low:
                v, forced = min(low, key=key), False
        while v is None:  # this set fails; back up to the last branching choice
            failed.add(removed)
            if not path:
                return "exhausted", expanded, []
            u, forced = restore()
            removed ^= 1 << u
            if not forced:
                tried = key(u)
                v = min((w for w in low if key(w) > tried), key=key, default=None)
        remove(v, forced)
        removed |= 1 << v
    return "reduced", expanded, [(v, sorted(adj[v])) for v, *_ in path]


def _remove(adj: list[set[int]], v: int) -> list[tuple[int, int]]:
    """Remove vertex v from the simple graph `adj` in place and join its
    neighbours pairwise. Returns the fill-in edges added.

    adj[v] is left intact: no later removal touches it while v is out,
    so `_restore(adj, v, fill)` undoes this removal once every later one
    is undone."""
    ends = adj[v]
    for u in ends:
        adj[u].discard(v)
    fill = [(a, b) for a, b in combinations(ends, 2) if b not in adj[a]]
    for a, b in fill:
        adj[a].add(b)
        adj[b].add(a)
    return fill


def _restore(adj: list[set[int]], v: int, fill: list[tuple[int, int]]) -> None:
    """Undo the `_remove(adj, v)` that added the fill-in edges `fill`."""
    for a, b in fill:
        adj[a].discard(b)
        adj[b].discard(a)
    for u in adj[v]:
        adj[u].add(v)


@dataclass(frozen=True)
class EliminationCertificate:
    """Elimination order of an input graph, with the positive degree of
    each vertex when it was removed."""

    max_degree_bound: int  # each step's positive degree is <= this (= K-1)
    steps: tuple[tuple[int, int], ...]  # (vertex label at removal time, positive degree)
    graph: WeightedGraph  # the input


def replay_elimination(cert: EliminationCertificate) -> bool:
    """Collapse the input's positive support along the steps.

    Each step must remove a vertex of a graph with more than two
    vertices, whose positive degree there is the recorded one and at
    most the bound; at most two vertices may be left at the end.
    Removing a vertex joins its positive neighbours pairwise, as a
    collapse does with its positive fill-in a_i a_j / s, however small
    that is as a float; removing label v hands label n to v. Memory
    and time grow with the positive edges and the steps, not with n.
    """
    n = cert.graph.n
    adj: dict[int, set[int]] = {}  # by input vertex, for those with a positive rate
    for i, j in cert.graph.positive_edges():
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    slot: dict[int, int] = {}  # label -> the input vertex holding it, where they differ
    for v, degree in cert.steps:
        if n <= 2 or not 1 <= v <= n or degree > cert.max_degree_bound:
            return False
        x = slot.get(v, v)
        ends = adj.get(x, set())
        if len(ends) != degree:
            return False
        for u in ends:
            adj[u] |= ends
            adj[u] -= {u, x}
        slot[v] = slot.get(n, n)
        n -= 1
    return n <= 2


@dataclass(frozen=True)
class EliminationResult:
    status: str  # "certified" | "no_certificate" | "inconclusive"
    certificate: EliminationCertificate | None
    states_expanded: int

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def certify_elimination(G: WeightedGraph, K: int = 4, budget: int = 100_000) -> EliminationResult:
    """Search for an order eliminating all but two vertices where every
    removal touches at most K-1 positive rates.

    Candidates are tried lowest positive degree first (ties by label)
    with backtracking; collapse fill-in can raise later degrees, which
    is why greedy alone is not complete. Exhausting the search space
    proves no such order exists; hitting the budget is inconclusive.
    The search edits G's positive support in place with an explicit
    stack; collapsing vertex v of a graph on 1..n hands label n to v.

    `states_expanded` and the budget count the states of the plain
    depth-first search, one per visit of a set of removed vertices, as
    if no set were skipped. The support left after removing a set does
    not depend on the order, and a failed search tries every candidate,
    so the states it takes depend on the set alone: each failed set is
    kept (as a bitmask of input vertices) with that count, and a later
    visit adds the count instead of searching again. When the count
    would pass the budget, the plain search would stop inside it, so the
    result is "inconclusive" at exactly `budget` states. The memo holds
    one entry per set searched, so at most `budget` entries.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    adj: list[set[int]] = [set() for _ in range(G.n + 1)]  # by input label; 0 unused
    for i, j in G.positive_edges():
        adj[i].add(j)
        adj[j].add(i)
    slot = list(range(G.n + 1))  # slot[v]: the input vertex that holds label v now
    n = G.n
    path = []  # per removal: (positive degree, label, input vertex, fill-in edges, states before the next)

    def lowest(degree=0, label=0):
        """The least (positive degree, label) above (degree, label) whose
        degree is below K, or None."""
        degrees = [len(adj[x]) for x in slot[1 : n + 1]]  # label v at v - 1
        for d in range(degree, min(K, n)):  # no degree reaches n
            if d in degrees[label:]:
                return d, degrees.index(d, label) + 1
            label = 0
        return None

    failed: dict[int, int] = {}  # failed set of removed input vertices (bitmask) -> states its search took
    removed = 0  # bitmask of the removed input vertices
    expanded = 0
    while n > 2:
        size = failed.get(removed)
        if size is None:
            if expanded >= budget:
                return EliminationResult("inconclusive", None, expanded)
            expanded += 1
            step = lowest()
        elif expanded + size > budget:  # the search would stop inside this subtree
            return EliminationResult("inconclusive", None, budget)
        else:
            expanded += size
            step = None
        while step is None:  # this state fails; back up to the last choice
            if not path:
                return EliminationResult("no_certificate", None, expanded)
            degree, v, x, fill, start = path.pop()
            failed[removed] = expanded - start
            removed ^= 1 << x
            n += 1
            slot[n], slot[v] = slot[v], x
            _restore(adj, x, fill)
            step = lowest(degree, v)
        degree, v = step
        x = slot[v]
        removed |= 1 << x
        path.append((degree, v, x, _remove(adj, x), expanded))
        slot[v] = slot[n]
        n -= 1
    steps = tuple((v, degree) for degree, v, *_ in path)
    cert = EliminationCertificate(max_degree_bound=K - 1, steps=steps, graph=G)
    return EliminationResult("certified", cert, expanded)
