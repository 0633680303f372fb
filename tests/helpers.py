"""Shared fixtures for the test suite: exhaustive tree enumeration,
seeded graph suites, failing stand-ins for ARPACK and loop-built
reference builders. Kept independent of the library's graph machinery
where they serve as oracles."""

import math
from collections.abc import Iterator
from functools import lru_cache
from itertools import permutations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import strategies as st

from aldous.graphs import SignedWeightedGraph, WeightedGraph, random_connected_graph
from aldous.reduction import (
    DegreeOne,
    EliminationCertificate,
    EliminationResult,
    Parallel,
    ReductionCertificate,
    ReductionResult,
    Series,
    Skeleton,
    YDelta,
    _elimination_game,
    _edge_key,
    apply_rule,
)
from aldous.spectral import KRYLOV_VECTORS, SOLVER_TOL, NoConvergence
from aldous.tableaux import Partition, f_dim
from aldous.yor import _adjacent_table, _corner_groups

# unlabeled trees on 1..8 vertices (classic counts)
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


def tree_canonical(n, edges):
    """Canonical string of an unlabeled tree: rooted encoding at the
    center(s), minimized over the at-most-two choices."""
    if n == 1:
        return "()"
    adjacency = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    # peel leaves to find the center(s)
    remaining = set(range(1, n + 1))
    degree = {v: len(adjacency[v]) for v in remaining}
    layer = [v for v in remaining if degree[v] <= 1]
    while len(remaining) > 2:
        next_layer = []
        for v in layer:
            remaining.discard(v)
            for w in adjacency[v]:
                if w in remaining:
                    degree[w] -= 1
                    if degree[w] == 1:
                        next_layer.append(w)
        layer = next_layer

    def encode(root):
        def rec(v, parent):
            children = sorted(rec(w, v) for w in adjacency[v] if w != parent)
            return "(" + "".join(children) + ")"

        return rec(root, None)

    return min(encode(root) for root in remaining)


def _next_rooted(levels, p=None):
    """Beyer-Hedetniemi successor of a canonical level sequence (root at
    level 0, preorder), or None after the last one. By default the
    sequence is advanced at its last vertex above level 1; `p` overrides
    that position."""
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = list(levels)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split(levels):
    """Level sequences of the root's first subtree (rooted at its own top
    vertex) and of the tree with that subtree removed."""
    m = next((i for i in range(2, len(levels)) if levels[i] == 1), len(levels))
    return [h - 1 for h in levels[1:m]], [0] + levels[m:]


def _level_edges(levels):
    """Edges of a level sequence, vertices labeled 1..n in preorder."""
    last = {}
    edges = []
    for v, h in enumerate(levels, start=1):
        if h:
            edges.append((last[h - 1], v))
        last[h] = v
    return edges


@lru_cache(maxsize=None)
def all_trees(n):
    """Edge lists of every unlabeled tree on n vertices (n >= 2), one each.

    Wright-Richmond-Odlyzko-McKay (1986): walk the canonical level
    sequences of trees rooted at a center in Beyer-Hedetniemi order,
    keep those whose first root subtree is lower than the rest (or as
    high and no larger, in size then sequence order), and jump over runs
    that cannot qualify. Starts from the path rooted at its center.
    """
    trees = []
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        left, rest = _split(levels)
        if max(rest) > max(left) or (
            max(rest) == max(left) and (len(left), left) <= (len(rest), rest)
        ):
            trees.append(_level_edges(levels))
            levels = _next_rooted(levels)
            continue
        p = len(left)
        jumped = _next_rooted(levels, p)
        if levels[p] > 2:
            height = max(_split(jumped)[0])
            jumped[-(height + 1) :] = range(1, height + 2)
        levels = jumped
    return trees


def tree_graph(n, edges, weights=None):
    if weights is None:
        weights = [1.0] * len(edges)
    return WeightedGraph(n, dict(zip(edges, weights)))


def seeded_graph_stream(seed, count, n_low, n_high, extra_edge_prob=0.3):
    """Deterministic stream of random connected weighted graphs."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_low, n_high + 1))
        out.append(random_connected_graph(n, rng, extra_edge_prob=extra_edge_prob))
    return out


def wrong_eigenpair(A, k, **kwargs):
    """Stands in for eigsh: a unit vector that is no eigenvector."""
    v = np.zeros((A.shape[0], 1))
    v[0, 0] = 1.0
    return np.array([0.5]), v


def no_convergence(A, k, **kwargs):
    """Stands in for eigsh: ARPACK gives up with no eigenpair."""
    raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((A.shape[0], 0)))


def arpack_error(A, k, **kwargs):
    """Stands in for eigsh: ARPACK stops with its error 3, "No shifts could
    be applied", which is no ArpackNoConvergence."""
    raise spla.ArpackError(3)


@st.composite
def signed_graphs(draw, max_n=6):
    """Graphs on 1..max_n vertices whose weights may be negative, zero or
    all zero, so the diagonal total can vanish while edges remain."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    weight = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SignedWeightedGraph(n, {e: draw(weight) for e in chosen})


# ---------------------------------------------------------------------------
# Reference per-shape builder: `aldous.yor._rho_sums` as it was when each
# stack held one f x f slot per column, None for a zero column, and each
# column was conjugated on its own. The library's batched builder must
# give the same blocks bit for bit.
# ---------------------------------------------------------------------------


def _loop_conjugate(M: np.ndarray, table: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """M <- A M A in place for the adjacent transposition A = `table`, in
    O(f^2): rows, then columns, with at most two nonzeros in each line
    of A."""
    diag, off, partner = table
    X = np.take(M, partner, axis=0)
    X *= off[:, None]
    M *= diag[:, None]
    M += X
    np.take(M, partner, axis=1, out=X, mode="clip")  # "raise" would buffer `out`
    X *= off
    M *= diag
    M += X


def _loop_grow(lam: tuple[int, ...], below: dict, weights: dict, n: int) -> list:
    """The stack of shape `lam` (k boxes) from the stacks `below` of level
    k - 1: [slot 0, column k+1, ..., column n], None for a zero slot."""
    k = sum(lam)
    diag, off, partner = table = _adjacent_table(lam, k - 1)
    f = len(diag)
    groups = [(below[mu], rows) for mu, rows in _corner_groups(lam)]

    def direct_sum(slot):
        if groups[0][0][slot] is None:  # zero in every shape of the level
            return None
        M = np.zeros((f, f))
        for stack, rows in groups:
            M[rows, rows] = stack[slot]
        return M

    columns = []
    for slot, m in enumerate(range(k, n + 1), start=1):
        M = direct_sum(slot)
        if M is not None:
            _loop_conjugate(M, table)
        w = weights.get((k - 1, m))
        if w:
            if M is None:
                M = np.zeros((f, f))
            M.flat[:: f + 1] += w * diag
            M[np.arange(f), partner] += w * off
        columns.append(M)
    inside = columns[0]  # column k joins the edges inside 1..k-1
    if groups[0][0][0] is not None:
        if inside is None:
            inside = np.zeros((f, f))
        for stack, rows in groups:
            inside[rows, rows] += stack[0]
    return [inside] + columns[1:]


def loop_rho_sums(
    n: int, weights: dict, shapes: list[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Yield (parts, sum of w_ij rho_ij) for each shape of n boxes in
    `shapes`, in that order, on the last-letter basis; `weights` maps
    pairs (i, j), i < j, to rates. The stacks of the shapes under the
    requested ones are built one level at a time, and each top block only
    when it is asked for."""
    weights = {pair: w for pair, w in weights.items() if w != 0}
    levels = [list(shapes)]
    for _ in range(n - 2):
        below = (mu for lam in levels[-1] for mu, _ in _corner_groups(lam))
        levels.append(list(dict.fromkeys(below)))
    stacks = {(1,): [None] * n}  # one box, no edge yet: slot 0 and columns 2..n
    for level in reversed(levels[1:]):
        stacks = {lam: _loop_grow(lam, stacks, weights, n) for lam in level}
    for lam in shapes:
        S = _loop_grow(lam, stacks, weights, n)[0] if n > 1 else None
        yield lam, np.zeros((f_dim(Partition(lam)),) * 2) if S is None else S


def loop_interchange_laplacian(G):
    """Reference n! x n! interchange Laplacian, built one word and one edge
    at a time: a dict from word to lexicographic rank, the diagonal set to
    the total weight when that is nonzero, and -w between sigma and
    (i j) sigma for every edge with w != 0."""
    n = G.n
    size = math.factorial(n)
    edges = [(i, j, w) for (i, j), w in sorted(G.weights.items()) if w != 0]
    total = sum(w for (i, j), w in G.weights.items())
    words = list(permutations(range(1, n + 1)))  # lexicographic = rank order
    rank_of = {word: r for r, word in enumerate(words)}
    rows, cols, vals = [], [], []
    for r, word in enumerate(words):
        if total:
            rows.append(r)
            cols.append(r)
            vals.append(total)
        for i, j, w in edges:
            swapped = tuple(j if v == i else i if v == j else v for v in word)
            r2 = rank_of[swapped]
            if r < r2:
                rows.append(r)
                cols.append(r2)
                vals.append(-w)
                rows.append(r2)
                cols.append(r)
                vals.append(-w)
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


def loop_module_rates(G, mu):
    """Reference rate matrix of the interchange process whose labels come
    in blocks of mu_1, mu_2, ... identical ones, built one word and one
    edge at a time: its states are the distinct words that give each
    vertex the label c of its block, with mu_c copies of c, in
    lexicographic order, and (i j) exchanges the labels of vertices i and
    j at the rate of edge (i, j), as a dense array."""
    labels = [c for c, part in enumerate(mu) for _ in range(part)]
    words = sorted(set(permutations(labels)))
    rank_of = {word: r for r, word in enumerate(words)}
    rates = np.zeros((len(words), len(words)))
    for r, word in enumerate(words):
        for (i, j), w in sorted(G.weights.items()):
            if w != 0:
                swapped = list(word)
                swapped[i - 1], swapped[j - 1] = word[j - 1], word[i - 1]
                rates[r, rank_of[tuple(swapped)]] += w
    return rates


def searchsorted_module_block(G, mu):
    """`aldous.interchange._module_block` as it was when each edge's column
    came from one binary search of the sorted codes: the code of the word
    that the swap (i j) reaches is found with `np.searchsorted`. The
    library's table lookup must give the same CSR arrays bit for bit."""
    n, size = G.n, len(mu)
    edges = [(i, j, w) for (i, j), w in sorted(G.weights.items()) if w != 0]
    codes, left = np.zeros(1, dtype=np.int64), np.array([mu], dtype=np.min_scalar_type(n))
    for _ in range(n):
        parent, label = np.nonzero(left)
        left = left[parent]
        left[np.arange(len(label)), label] -= 1
        codes = codes[parent] * size + label
    count = len(codes)
    index = np.int32 if count * len(edges) < 2**31 else np.int64
    table = np.empty((count, len(edges)), dtype=index)
    power = size ** np.arange(n - 1, -1, -1, dtype=np.int64)  # l^(n-1-letter)
    for c, (i, j, _) in enumerate(edges):
        a, b = power[i - 1], power[j - 1]
        swapped = (codes // b % size - codes // a % size) * (a - b) + codes
        table[:, c] = np.searchsorted(codes, swapped)
    data = np.tile(np.array([w for _, _, w in edges], dtype=float), count)
    indptr = np.arange(count + 1, dtype=index) * len(edges)
    B = sp.csr_matrix((data, table.reshape(-1), indptr), shape=(count, count))
    B.sort_indices()
    return B


def transpose_bipartite_laplacian_gap(B, total):
    """`aldous.spectral.bipartite_laplacian_gap` as it was when it took a
    general square block B and multiplied by B^T through a CSC view of B:
    the operator W^2 x - B (B^T x) + shift * mean(x), the lift
    u = B^T v / sigma_2 and the residual through B^T. On the symmetric
    Young-module blocks the library's one-operand solve must give the
    same gap bit for bit."""
    half = B.shape[0]
    if half < 2 or not total > 0:
        raise ValueError("need at least two rows and a positive total rate")
    square = total * total
    shift = 1.0 + square
    BT = B.T

    def matvec(x):
        y = B @ (BT @ x)
        y -= square * x
        y -= shift * (x.sum() / half)
        return np.negative(y, out=y)

    op = spla.LinearOperator((half, half), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(half)
    try:
        vals, vecs = spla.eigsh(
            op, k=1, which="SA", tol=SOLVER_TOL, maxiter=20000, v0=v0, ncv=min(KRYLOV_VECTORS, half)
        )
    except spla.ArpackError:
        residual = math.inf
    else:
        root = math.sqrt(max(square - vals[0], 0.0))
        mu = float(vals[0]) / (total + root)
        v = vecs[:, 0]
        u = (BT @ v) / root if root > 0 else np.zeros(half)
        even = total * v - B @ u - mu * v
        odd = root * u - BT @ v
        lifted = np.square(even).sum() + np.square(odd).sum()
        residual = math.sqrt(lifted / (np.square(v).sum() + np.square(u).sum()))
    if residual <= SOLVER_TOL * (1.0 + abs(total)):
        return mu
    raise NoConvergence(
        f"iterative eigensolve of dimension {2 * half} did not converge: residual {residual:.3g}"
    )


# ---------------------------------------------------------------------------
# Reference searches: the O(n^2)-per-collapse, one-frame-per-step versions
# that the library's searches must match bit for bit.
# ---------------------------------------------------------------------------


def reference_collapse(G, v):
    """Collapse over all n(n-1)/2 pairs of the relabeled graph: each gains
    a_in a_jn / s, and a pair is kept when it was an edge or became nonzero."""
    work = G if v == G.n else G.relabeled({v: G.n, G.n: v})
    n = G.n
    s = sum(work.weight(i, n) for i in range(1, n))
    new_weights = {}
    for i in range(1, n):
        for j in range(i + 1, n):
            w = work.weight(i, j)
            if s > 0:
                w += work.weight(i, n) * work.weight(j, n) / s
            if w != 0 or (i, j) in work.weights:
                new_weights[(i, j)] = w
    return WeightedGraph(n - 1, new_weights)


def reference_certify_elimination(G, K=4, budget=100_000):
    """Recursive elimination search over validated graphs, degrees counted
    one vertex at a time."""
    expanded = 0

    def dfs(current):
        nonlocal expanded
        if current.n <= 2:
            return "certified", ()
        if expanded >= budget:
            return "budget", None
        expanded += 1
        candidates = sorted((current.positive_degree(v), v) for v in range(1, current.n + 1))
        for degree, v in candidates:
            if degree > K - 1:
                break
            status, steps = dfs(reference_collapse(current, v))
            if status == "certified":
                return "certified", ((v, degree),) + steps
            if status == "budget":
                return "budget", None
        return "exhausted", None

    status, steps = dfs(G)
    if status == "certified":
        cert = EliminationCertificate(max_degree_bound=K - 1, steps=steps, graph=G)
        return EliminationResult("certified", cert, expanded)
    if status == "budget":
        return EliminationResult("inconclusive", None, expanded)
    return EliminationResult("no_certificate", None, expanded)


def reference_candidate_steps(S):
    """Applicable steps in priority order, from per-vertex degree and
    neighbour queries."""
    steps = []
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


def reference_reduce_to_edge(S, budget=100_000):
    """Recursive memoized reduction search; every successor is rebuilt
    through the validating constructor."""
    if S.is_single_edge():
        return ReductionResult("reduced", "already a single edge", ReductionCertificate(S, ()), 0)
    if not reference_candidate_steps(S):
        return ReductionResult("irreducible", "no applicable rule", None, 0)
    visited = set()
    expanded = 0

    def dfs(state, trail):
        nonlocal expanded
        if state.is_single_edge():
            return "reduced", tuple(trail)
        if state in visited:
            return "exhausted", None
        visited.add(state)
        if expanded >= budget:
            return "budget", None
        expanded += 1
        for step in reference_candidate_steps(state):
            nxt = apply_rule(state, step)
            trail.append(step)
            status, steps = dfs(Skeleton(nxt.vertices, nxt.edge_multiplicities()), trail)
            trail.pop()
            if status != "exhausted":
                return status, steps
        return "exhausted", None

    status, steps = dfs(S, [])
    if status == "reduced":
        return ReductionResult("reduced", "single edge reached", ReductionCertificate(S, steps), expanded)
    if status == "budget":
        return ReductionResult("inconclusive", "budget exhausted", None, expanded)
    return ReductionResult("inconclusive", "search exhausted without success", None, expanded)


def stepped_reduce_to_edge(S, budget=100_000):
    """`reduce_to_edge` with its rule steps built one at a time through the
    validating `apply_rule`, each merge count read off the skeleton it
    acts on: `Parallel` merges of v's edges, then v's rule, for each
    vertex of the elimination game's order, and the last pair's merges."""
    if not S.is_connected():
        raise ValueError("skeleton must be connected")
    labels = sorted(S.vertices)
    index = {v: k for k, v in enumerate(labels)}
    adj = [set() for _ in labels]
    for i, j in S.edge_multiplicities():
        adj[index[i]].add(index[j])
        adj[index[j]].add(index[i])
    if all(m == 1 for m in S.edge_multiplicities().values()) and not any(1 <= len(e) <= 3 for e in adj):
        return ReductionResult("irreducible", "no applicable rule", None, 0)
    status, expanded, order = _elimination_game(adj, budget)
    if status == "budget":
        return ReductionResult("inconclusive", "budget exhausted", None, expanded)
    if status == "exhausted":
        return ReductionResult("irreducible", "search exhausted without success", None, expanded)

    def merges(state, v, ends):
        return [Parallel(*_edge_key(v, u)) for u in ends for _ in range(1, state.multiplicity(v, u))]

    state, steps = S, []
    for v, ends in order:
        v, ends = labels[v], [labels[u] for u in ends]
        rule = DegreeOne(v) if len(ends) == 1 else Series(v, *ends) if len(ends) == 2 else YDelta(v, *ends)
        for step in merges(state, v, ends) + [rule]:
            steps.append(step)
            state = apply_rule(state, step)
    ((i, j),) = state.edge_multiplicities()
    for step in merges(state, i, [j]):
        steps.append(step)
        state = apply_rule(state, step)
    return ReductionResult("reduced", "single edge reached", ReductionCertificate(S, tuple(steps)), expanded)


def forbid_large_factorials(monkeypatch):
    """Make `math.factorial` fail above 1000: forming (10^6)! took 9 s,
    so a refusal of a huge n must be decided without it."""
    factorial = math.factorial

    def guarded(n):
        if n > 1000:
            raise AssertionError(f"formed {n}!")
        return factorial(n)

    monkeypatch.setattr(math, "factorial", guarded)
