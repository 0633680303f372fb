"""Young's orthogonal representation of the symmetric group.

For each partition shape, transpositions act by explicit orthogonal,
symmetric, involutive matrices on the span of the standard tableaux of
that shape (in dictionary order, see `aldous.tableaux`). The adjacent
transposition (i, i+1) acts on a tableau t by one of three rules:

* i and i+1 in the same row of t: diagonal entry +1;
* same column: diagonal entry -1;
* otherwise, with s the tableau obtained by swapping i and i+1 and
  r the axial distance (content of i+1 minus content of i), the pair
  {t, s} carries the 2x2 block [[1/r, sqrt(1-1/r^2)], [sqrt(1-1/r^2), -1/r]].

All other entries vanish, so each adjacent transposition is stored per
shape as integer-indexed arrays (diag, off, partner), one nonzero pair
per row, built from the raw tableau rows without tableau objects.
General transpositions come from conjugating along a chain of adjacent
ones, O(f^2) per step on an f-dimensional block, and are cached per
(shape, i, j); arbitrary permutations come from a deterministic
bubble-sort factorization, so the map stays a group homomorphism
(products compose right to left).

The reflection-difference matrices V_ij = I - rho_ij are positive
semidefinite with eigenvalues in {0, 2}; weighting them by edge rates
gives the per-shape Laplacian blocks that the interchange process
decomposes into. The conjugate shape carries the sign twist of the
same representation, so `shape_spectra` solves one block of each
conjugate pair and reflects its spectrum for the other.

`shape_spectra` is the one pass over the blocks behind `aldous gap`,
`aldous decompose` and `aldous check-conjecture`. Before it builds
anything it estimates what the transposition cache and the blocks will
hold, from the hook length formula, and raises ValueError when this
process cannot get that much memory, instead of failing part way
through an allocation.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

from .permutations import Permutation
from .tableaux import (
    Partition,
    covers_below,
    enumerate_partitions,
    enumerate_syt,
    f_dim,
    syt_rows,
)

_transposition_cache: dict[tuple[tuple[int, ...], int, int], np.ndarray] = {}


@lru_cache(maxsize=None)
def _adjacent_tables(parts: tuple[int, ...]) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Sparse form of every adjacent transposition of the shape.

    Entry i-1 holds arrays (diag, off, partner) with
    rho_{(i, i+1)} x = diag * x + off * x[partner]. The axial distance r
    of i and i+1 is +1 in a row and -1 in a column, so diag = 1/r and
    off = sqrt(1 - 1/r^2) cover all three rules; the partner of a
    tableau is found through its row-of-value word, with i and i+1
    exchanged.
    """
    tabs = syt_rows(parts)
    n = sum(parts)
    rows = np.zeros((len(tabs), n), dtype=np.int8)
    cols = np.zeros((len(tabs), n), dtype=np.int8)
    for k, t in enumerate(tabs):
        for r, row in enumerate(t):
            for c, v in enumerate(row):
                rows[k, v - 1] = r
                cols[k, v - 1] = c
    index = {rows[k].tobytes(): k for k in range(len(tabs))}
    content = cols.astype(np.int64) - rows
    tables = []
    for i in range(1, n):
        r = content[:, i] - content[:, i - 1]  # axial distance
        diag = 1.0 / r
        off = np.sqrt(1.0 - 1.0 / r**2)
        partner = np.arange(len(tabs))
        swapped = rows.copy()
        swapped[:, [i - 1, i]] = rows[:, [i, i - 1]]
        for k in np.flatnonzero(np.abs(r) > 1):
            partner[k] = index[swapped[k].tobytes()]
        for a in (diag, off, partner):
            a.flags.writeable = False
        tables.append((diag, off, partner))
    return tuple(tables)


def _adjacent_table(parts: tuple[int, ...], i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = sum(parts)
    if not 1 <= i <= n - 1:
        raise ValueError(f"adjacent index must be in 1..{n - 1}, got {i}")
    return _adjacent_tables(parts)[i - 1]


def _dense(table: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    diag, off, partner = table
    M = np.diag(diag)
    M[np.arange(len(diag)), partner] += off
    return M


def rho_adjacent(lam: Partition, i: int) -> np.ndarray:
    """Matrix of the adjacent transposition (i, i+1)."""
    return _dense(_adjacent_table(lam.parts, i))


def _rho_transposition(parts: tuple[int, ...], i: int, j: int) -> np.ndarray:
    key = (parts, i, j)
    cached = _transposition_cache.get(key)
    if cached is not None:
        return cached
    n = sum(parts)
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    M = _dense(_adjacent_table(parts, j - 1))
    for m in range(j - 2, i - 1, -1):
        diag, off, partner = _adjacent_table(parts, m)
        # A M A for A = rho_{(m, m+1)} in O(f^2): rows, then columns, with
        # at most two nonzeros in each line of A
        X = np.take(M, partner, axis=0)
        X *= off[:, None]
        M = M * diag[:, None]
        M += X
        X = np.take(M, partner, axis=1)
        X *= off
        M *= diag
        M += X
    M.flags.writeable = False
    _transposition_cache[key] = M
    return M


def rho_transposition(lam: Partition, i: int, j: int) -> np.ndarray:
    """Matrix of the transposition (i, j), built by conjugating (j-1, j)
    down the chain of adjacent transpositions."""
    return _rho_transposition(lam.parts, i, j).copy()


def rho_sigma(lam: Partition, sigma: Permutation) -> np.ndarray:
    """Matrix of an arbitrary permutation via its adjacent factorization."""
    if sigma.n != lam.n:
        raise ValueError(f"permutation size {sigma.n} != partition size {lam.n}")
    M = np.eye(f_dim(lam))
    for i in sigma.adjacent_factorization():
        diag, off, partner = _adjacent_table(lam.parts, i)
        M = M * diag + np.take(M, partner, axis=1) * off
    return M


def transposition_difference(lam: Partition, i: int, j: int) -> np.ndarray:
    """V_ij = I - rho_ij; PSD with eigenvalues in {0, 2}."""
    return np.eye(f_dim(lam)) - _rho_transposition(lam.parts, i, j)


def irrep_laplacian(lam: Partition, graph) -> np.ndarray:
    """Weighted sum of V_ij over the graph's edges: W*I - sum w_ij rho_ij
    with W the total weight.

    Accepts nonnegative or signed weights (anything with `.n` and a
    `.weights` dict keyed on pairs). PSD whenever all weights are >= 0.
    """
    if lam.n != graph.n:
        raise ValueError(f"partition of {lam.n} does not match graph on {graph.n} vertices")
    f = f_dim(lam)
    L = np.zeros((f, f))
    term = np.empty((f, f))
    total = 0.0
    for (i, j), w in graph.weights.items():
        if w != 0.0:
            np.multiply(_rho_transposition(lam.parts, i, j), w, out=term)
            L -= term
            total += w
    L.flat[:: f + 1] += total
    return L


def _available_bytes() -> int:
    """Memory this process can still get: the physical memory, capped by
    the soft address-space limit less the address space already mapped."""
    import resource

    page = os.sysconf("SC_PAGE_SIZE")
    available = os.sysconf("SC_PHYS_PAGES") * page
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        try:
            with open("/proc/self/statm") as fh:
                mapped = int(fh.read().split()[0]) * page
        except OSError:  # no procfs: count nothing as mapped
            mapped = 0
        available = min(available, soft - mapped)
    return available


@lru_cache(maxsize=None)
def _solved_squares(n: int) -> int:
    """Sum of f^2 over the shapes `shape_spectra` solves, one of each
    conjugate pair. Conjugate shapes have equal dimension and f^2 sums
    to n! over all shapes, so this is (n! + the sum of f^2 over the
    self-conjugate shapes) / 2."""
    self_conjugate = sum(
        f_dim(lam) ** 2 for lam in enumerate_partitions(n) if lam.conjugate() == lam
    )
    return (math.factorial(n) + self_conjugate) // 2


def _require_memory(graph) -> None:
    """Refuse, before allocating, a graph whose per-shape blocks would not
    fit in memory: each solved shape keeps one cached f x f matrix per
    nonzero edge in `_transposition_cache`, and its block and the
    eigensolver's copy take two more.
    """
    edges = sum(1 for w in graph.weights.values() if w != 0)
    need = (edges + 2) * _solved_squares(graph.n) * 8
    available = _available_bytes()
    if need > available:
        raise ValueError(
            f"the per-shape blocks of a {graph.n}-vertex graph with {edges} edges need about "
            f"{need / 2**30:.3g} GiB, but this process can get {max(available, 0) / 2**30:.3g} GiB"
        )


def shape_spectra(graph) -> list[tuple[Partition, np.ndarray, float]]:
    """(shape, ascending block spectrum, largest |entry| of the block) for
    every shape of `graph.n` boxes, in `enumerate_partitions` order; the
    length of a spectrum is the shape's dimension and multiplicity.
    Raises ValueError when the blocks would not fit in memory.

    Only the shape of each conjugate pair that comes first is built and
    solved. Since rho^{lam'} is sgn (x) rho^{lam} up to a signed
    permutation of the tableaux, L^{lam'} is that signed permutation of
    2W*I - L^{lam} (W the total weight, signs allowed): its spectrum is
    2W minus the reversed spectrum of L^{lam}, with the same largest
    entry.
    """
    _require_memory(graph)
    total = sum(graph.weights.values())
    solved: dict[tuple[int, ...], tuple[np.ndarray, float, np.ndarray]] = {}
    out = []
    for lam in enumerate_partitions(graph.n):
        conj = lam.conjugate().parts
        if conj in solved:
            vals, off_max, diag = solved[conj]
            vals = 2.0 * total - vals[::-1]
            diag = 2.0 * total - diag
        else:
            L = irrep_laplacian(lam, graph)
            vals = np.linalg.eigvalsh(L)
            diag = L.diagonal().copy()
            np.fill_diagonal(L, 0.0)
            off_max = float(np.abs(L).max())
            solved[lam.parts] = (vals, off_max, diag)
        out.append((lam, vals, max(off_max, float(np.abs(diag).max()))))
    return out


def jucys_murphy(lam: Partition, j: int) -> np.ndarray:
    """Sum of rho_ij over i < j; diagonal with the content of j's box."""
    if not 2 <= j <= lam.n:
        raise ValueError(f"need 2 <= j <= {lam.n}, got {j}")
    f = f_dim(lam)
    X = np.zeros((f, f))
    for i in range(1, j):
        X += _rho_transposition(lam.parts, i, j)
    return X


def branching_check(
    lam: Partition, i: int, j: int, tol: float = 1e-10
) -> tuple[bool, tuple[int, ...]]:
    """Check that rho_ij is permutation-similar to the direct sum of the
    rho_ij of the shapes one box below.

    Tableaux are regrouped by the corner holding n (groups in
    `covers_below` order, members in the dictionary order of their
    restrictions); the returned witness lists, for each regrouped
    position, the original tableau index. Requires i < j < n so the
    transposition also acts on every smaller shape.
    """
    n = lam.n
    if not 1 <= i < j < n:
        raise ValueError(f"need 1 <= i < j < {n}, got ({i}, {j})")
    tabs = enumerate_syt(lam)
    below = covers_below(lam)
    shape_position = {}
    for g, mu in enumerate(below):
        for k, t in enumerate(enumerate_syt(mu)):
            shape_position[(mu.parts, t.rows)] = (g, k)
    order = sorted(
        range(len(tabs)),
        key=lambda k: shape_position[
            (tabs[k].restricted().shape.parts, tabs[k].restricted().rows)
        ],
    )
    M = _rho_transposition(lam.parts, i, j)
    regrouped = M[np.ix_(order, order)]
    blocks = [_rho_transposition(mu.parts, i, j) for mu in below]
    direct_sum = np.zeros_like(regrouped)
    offset = 0
    for block in blocks:
        d = block.shape[0]
        direct_sum[offset : offset + d, offset : offset + d] = block
        offset += d
    ok = bool(np.abs(regrouped - direct_sum).max() <= tol)
    return ok, tuple(order)


# ---------------------------------------------------------------------------
# Reference data: transposition reflection vectors for the four-box shapes
# ---------------------------------------------------------------------------

_SQ = math.sqrt


def s4_transposition_vectors() -> dict[tuple[tuple[int, ...], int, int], np.ndarray]:
    """The 18 reflection vectors v for the multi-dimensional shapes of
    four boxes, one per transposition (i, j).

    For shapes (3,1) and (2,2) the transposition matrix is I - v v^T;
    for (2,1,1) the sign convention flips: -I + v v^T.
    """
    v31 = {
        (1, 2): [0.0, 0.0, _SQ(2.0)],
        (1, 3): [0.0, _SQ(3.0 / 2.0), _SQ(1.0 / 2.0)],
        (1, 4): [_SQ(4.0 / 3.0), _SQ(1.0 / 6.0), _SQ(1.0 / 2.0)],
        (2, 3): [0.0, _SQ(3.0 / 2.0), -_SQ(1.0 / 2.0)],
        (2, 4): [_SQ(4.0 / 3.0), _SQ(1.0 / 6.0), -_SQ(1.0 / 2.0)],
        (3, 4): [_SQ(4.0 / 3.0), -_SQ(2.0 / 3.0), 0.0],
    }
    v22 = {
        (1, 2): [0.0, _SQ(2.0)],
        (1, 3): [_SQ(3.0 / 2.0), _SQ(1.0 / 2.0)],
        (1, 4): [_SQ(3.0 / 2.0), -_SQ(1.0 / 2.0)],
        (2, 3): [_SQ(3.0 / 2.0), -_SQ(1.0 / 2.0)],
        (2, 4): [_SQ(3.0 / 2.0), _SQ(1.0 / 2.0)],
        (3, 4): [0.0, _SQ(2.0)],
    }
    v211 = {
        (1, 2): [_SQ(2.0), 0.0, 0.0],
        (1, 3): [_SQ(1.0 / 2.0), -_SQ(3.0 / 2.0), 0.0],
        (1, 4): [_SQ(1.0 / 2.0), -_SQ(1.0 / 6.0), _SQ(4.0 / 3.0)],
        (2, 3): [-_SQ(1.0 / 2.0), -_SQ(3.0 / 2.0), 0.0],
        (2, 4): [-_SQ(1.0 / 2.0), -_SQ(1.0 / 6.0), _SQ(4.0 / 3.0)],
        (3, 4): [0.0, _SQ(2.0 / 3.0), _SQ(4.0 / 3.0)],
    }
    out: dict[tuple[tuple[int, ...], int, int], np.ndarray] = {}
    for parts, table in (((3, 1), v31), ((2, 2), v22), ((2, 1, 1), v211)):
        for (i, j), vec in table.items():
            out[(parts, i, j)] = np.array(vec)
    return out


def s4_transposition_matrix(lam: Partition, i: int, j: int) -> np.ndarray:
    """Transposition matrix rebuilt from the reference vectors (plus the
    two one-dimensional shapes, which are +1 and -1)."""
    if lam.n != 4 or not 1 <= i < j <= 4:
        raise ValueError("reference data covers shapes of 4 boxes and 1 <= i < j <= 4")
    if lam.parts == (4,):
        return np.array([[1.0]])
    if lam.parts == (1, 1, 1, 1):
        return np.array([[-1.0]])
    v = s4_transposition_vectors()[(lam.parts, i, j)]
    if lam.parts == (2, 1, 1):
        return -np.eye(3) + np.outer(v, v)
    return np.eye(len(v)) - np.outer(v, v)
