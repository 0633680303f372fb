"""Skeleton reduction rules and weighted elimination certificates.

Two certificate machines live here. The first works on unweighted
multigraph skeletons with four rules (drop a pendant vertex, contract a
degree-two vertex, merge a parallel pair, replace a degree-three vertex
by a triangle on its neighbors) and searches for a rule sequence ending
in a single edge; the inverse triangle-to-star move is deliberately not
available. The second works on weighted graphs and searches for a
vertex elimination order in which every removed vertex touches at most
K-1 strictly positive rates at removal time, applying the collapse
update (with its fill-in) at each step. Both certificates are replayable
records: the steps plus every intermediate state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .graphs import WeightedGraph, _component_count, _edge_key, collapse_last_vertex


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

    def edge_count(self) -> int:
        return sum(self._edges.values())

    def is_single_edge(self) -> bool:
        return len(self.vertices) == 2 and self.edge_count() == 1

    def is_connected(self) -> bool:
        return _component_count(self.vertices, self._edges) == 1

    def _replace(self, drop_vertex=None, remove=(), add=()) -> Skeleton:
        counts = dict(self._edges)
        for key in remove:
            counts[key] -= 1
            if counts[key] == 0:
                del counts[key]
        for key in add:
            counts[key] = counts.get(key, 0) + 1
        vertices = self.vertices - {drop_vertex} if drop_vertex is not None else self.vertices
        return Skeleton(vertices, counts)

    def canonical(self) -> tuple:
        return (self.vertices, tuple(sorted(self._edges.items())))

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
    terminal: Skeleton


def replay_reduction(cert: ReductionCertificate) -> bool:
    """Re-apply the recorded steps and compare with the recorded terminal."""
    state = cert.initial
    try:
        for step in cert.steps:
            state = apply_rule(state, step)
    except InapplicableRule:
        return False
    return state == cert.terminal


@dataclass(frozen=True)
class ReductionResult:
    status: str  # "reduced" | "irreducible" | "inconclusive"
    reason: str
    certificate: ReductionCertificate | None
    states_expanded: int

    @property
    def reduced(self) -> bool:
        return self.status == "reduced"


def _candidate_steps(S: Skeleton) -> list[Step]:
    """Applicable steps in greedy priority order: pendant, parallel,
    series, triangle. Deterministic by vertex/pair label."""
    steps: list[Step] = []
    degrees = {v: S.degree(v) for v in S.vertices}
    for v in sorted(S.vertices):
        if degrees[v] == 1:
            steps.append(DegreeOne(v))
    for (i, j), mult in sorted(S.edge_multiplicities().items()):
        if mult >= 2:
            steps.append(Parallel(i, j))
    for v in sorted(S.vertices):
        if degrees[v] == 2:
            ends = S.neighbors(v)
            if len(ends) == 2:
                steps.append(Series(v, ends[0], ends[1]))
    for v in sorted(S.vertices):
        if degrees[v] == 3:
            ends = S.neighbors(v)
            if len(ends) == 3:
                steps.append(YDelta(v, ends[0], ends[1], ends[2]))
    return steps


def reduce_to_edge(S: Skeleton, budget: int = 100_000) -> ReductionResult:
    """Depth-first search for a rule sequence ending in a single edge.

    Rules are tried greedily in priority order with backtracking; every
    rule strictly shrinks vertices+edges, so the search space is a DAG
    and visited states are memoized. A budget hit or an exhausted search
    is reported "inconclusive" (search failure is not a proof); only a
    skeleton where no rule applies at all is called irreducible.
    """
    if not S.is_connected():
        raise ValueError("skeleton must be connected")
    if S.is_single_edge():
        return ReductionResult("reduced", "already a single edge", ReductionCertificate(S, (), S), 0)
    if not _candidate_steps(S):
        return ReductionResult("irreducible", "no applicable rule", None, 0)

    visited: set[Skeleton] = set()
    expanded = 0

    def dfs(state: Skeleton, trail: list[Step]) -> tuple[str, tuple[Step, ...] | None]:
        nonlocal expanded
        if state.is_single_edge():
            return "reduced", tuple(trail)
        if state in visited:
            return "exhausted", None
        visited.add(state)
        if expanded >= budget:
            return "budget", None
        expanded += 1
        for step in _candidate_steps(state):
            trail.append(step)
            status, steps = dfs(apply_rule(state, step), trail)
            trail.pop()
            if status != "exhausted":
                return status, steps
        return "exhausted", None

    status, steps = dfs(S, [])
    if status == "reduced":
        terminal = S
        for step in steps:
            terminal = apply_rule(terminal, step)
        return ReductionResult("reduced", "single edge reached", ReductionCertificate(S, steps, terminal), expanded)
    if status == "budget":
        return ReductionResult("inconclusive", "budget exhausted", None, expanded)
    return ReductionResult("inconclusive", "search exhausted without success", None, expanded)


@dataclass(frozen=True)
class EliminationCertificate:
    """Elimination order with per-step positive degrees and every
    intermediate graph (`graphs[0]` is the input)."""

    max_degree_bound: int  # each step's positive degree is <= this (= K-1)
    steps: tuple[tuple[int, int], ...]  # (vertex label at removal time, positive degree)
    graphs: tuple[WeightedGraph, ...]


def replay_elimination(cert: EliminationCertificate, tol: float = 1e-12) -> bool:
    """Re-run the collapses and compare weights against the record."""
    if len(cert.graphs) != len(cert.steps) + 1:
        return False
    for idx, (v, degree) in enumerate(cert.steps):
        current = cert.graphs[idx]
        if not 1 <= v <= current.n or current.positive_degree(v) != degree:
            return False
        if degree > cert.max_degree_bound:
            return False
        collapsed = collapse_last_vertex(current, v)
        recorded = cert.graphs[idx + 1]
        if collapsed.n != recorded.n:
            return False
        keys = set(collapsed.weights) | set(recorded.weights)
        scale = 1.0 + max((abs(w) for w in recorded.weights.values()), default=0.0)
        for key in keys:
            if abs(collapsed.weight(*key) - recorded.weight(*key)) > tol * scale:
                return False
    return True


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
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    expanded = 0

    def dfs(current: WeightedGraph):
        nonlocal expanded
        if current.n <= 2:
            return "certified", ((), (current,))
        if expanded >= budget:
            return "budget", None
        expanded += 1
        candidates = sorted(
            (current.positive_degree(v), v) for v in range(1, current.n + 1)
        )
        for degree, v in candidates:
            if degree > K - 1:
                break
            status, rest = dfs(collapse_last_vertex(current, v))
            if status == "certified":
                steps, graphs = rest
                return "certified", (((v, degree),) + steps, (current,) + graphs)
            if status == "budget":
                return "budget", None
        return "exhausted", None

    status, payload = dfs(G)
    if status == "certified":
        steps, graphs = payload
        cert = EliminationCertificate(max_degree_bound=K - 1, steps=steps, graphs=graphs)
        return EliminationResult("certified", cert, expanded)
    if status == "budget":
        return EliminationResult("inconclusive", None, expanded)
    return EliminationResult("no_certificate", None, expanded)
