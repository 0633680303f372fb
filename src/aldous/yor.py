"""Young's orthogonal representation of the symmetric group.

For each partition shape, transpositions act by explicit orthogonal,
symmetric, involutive matrices on the span of the standard tableaux of
that shape. Every public matrix is indexed in dictionary order (see
`aldous.tableaux`); internally the basis is Young's last-letter order.
The adjacent transposition (i, i+1) acts on a tableau t by one of three
rules:

* i and i+1 in the same row of t: diagonal entry +1;
* same column: diagonal entry -1;
* otherwise, with s the tableau obtained by swapping i and i+1 and
  r the axial distance (content of i+1 minus content of i), the pair
  {t, s} carries the 2x2 block [[1/r, sqrt(1-1/r^2)], [sqrt(1-1/r^2), -1/r]].

All other entries vanish, so each adjacent transposition is stored as
integer-indexed arrays (diag, off, partner), one nonzero pair per row.
Each (shape, i) table is built when first asked for, with array
operations on the shape's row array `last_letter_rows` and no tableau
objects: contents give the axial distance, and a binary search of the
row words, which ascend in last-letter order, gives the partner.
Arbitrary permutations come from a deterministic bubble-sort
factorization, so the map stays a group homomorphism (products compose
right to left).

Every weighted sum of transpositions, sum w_ij rho_ij (one rho_ij, a
Jucys-Murphy element, a per-shape Laplacian block), comes from one
builder, `_rho_sums`, which follows the branching rule: in last-letter
order the tableaux of lam with n in one corner are contiguous, and on
them rho_ij for j < n is the rho_ij of the shape one box below. The
builder walks the levels k = 1..n. At level k each shape holds a stack,
one c x f x f array: slot 0 is the sum over the edges inside 1..k, and
column m > k holds sum_{i<k} w_im rho_{i,k}. Only the nonzero ones are
held; which they are depends on the weights alone, so one tuple of
labels per level (k for slot 0, m for column m, ascending) lays out
every stack of that level. A shape of level k+1 places the columns of
the shapes one box below on its corner groups, one assignment per
group, conjugates them all by (k, k+1) in one O(c f^2) pass and adds
w_{k,m} (k, k+1) with one indexed update; column k+1, the first, then
joins slot 0. Only the stacks of one level and the top block being
built are held, and nothing outlives the call.

The reflection-difference matrices V_ij = I - rho_ij are positive
semidefinite with eigenvalues in {0, 2}; weighting them by edge rates
gives the per-shape Laplacian blocks that the interchange process
decomposes into. The conjugate shape carries the sign twist of the
same representation, so `shape_spectra` solves one block of each
conjugate pair and reflects its spectrum for the other.

`shape_spectra` is the one pass over the blocks behind `aldous gap`,
`aldous decompose` and `aldous check-conjecture`. Before it builds
anything it estimates what the builder and the eigensolver will hold,
from (n-1)! and the hook length formula.

`_require_bytes` is the package's one size refusal. `shape_spectra`,
every builder of a single shape's matrix (`rho_adjacent`, `rho_sigma`,
`rho_transposition`, `jucys_murphy`, `irrep_laplacian`) and the
explicit n!-state route of `aldous.interchange` pass it their estimate
before anything is enumerated or allocated, and it raises ValueError
when this process cannot get that much memory, instead of failing part
way through an allocation.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .spectral import _dense_buffer_bytes, _eigvalsh
from .tableaux import (
    Partition,
    _dictionary_positions,
    covers_below,
    enumerate_partitions,
    f_dim,
    last_letter_rows,
)

if TYPE_CHECKING:
    from .permutations import Permutation


def _words(R: np.ndarray) -> np.ndarray:
    """Each row of R reversed (row of n first) as one byte string, which
    ascend in last-letter order: big-endian, so that byte strings compare
    as their numbers do."""
    return np.ascontiguousarray(R[:, ::-1], dtype=">i4").view(f"V{4 * R.shape[1]}").ravel()


@lru_cache(maxsize=None)
def _adjacent_table(parts: tuple[int, ...], i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse form of the adjacent transposition (i, i+1) of the shape,
    on the last-letter basis: arrays (diag, off, partner) with
    rho x = diag * x + off * x[partner].

    The axial distance r of i and i+1 is +1 in a row and -1 in a column,
    so diag = 1/r and off = sqrt(1 - 1/r^2) cover all three rules. The
    content of a value is its column (the smaller values in its row)
    minus its row. The partner of a tableau with |r| > 1 is found by a
    binary search for its word with i and i+1 exchanged; every other
    tableau is its own partner, with off = 0.
    """
    R = last_letter_rows(parts)
    content = [np.count_nonzero(R[:, :v] == R[:, [v]], axis=1) - R[:, v] for v in (i - 1, i)]
    r = content[1] - content[0]  # axial distance
    diag = 1.0 / r
    off = np.sqrt(1.0 - 1.0 / r**2)
    swapped = R.copy()
    swapped[:, [i - 1, i]] = R[:, [i, i - 1]]
    partner = np.where(abs(r) > 1, np.searchsorted(_words(R), _words(swapped)), np.arange(len(R)))
    for a in (diag, off, partner):
        a.flags.writeable = False
    return diag, off, partner


def _in_dictionary_order(parts: tuple[int, ...], M: np.ndarray) -> np.ndarray:
    p = _dictionary_positions(parts)
    return M[np.ix_(p, p)]


@lru_cache(maxsize=None)
def _corner_groups(parts: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], slice], ...]:
    """(shape one box below, its rows of the last-letter basis) for each
    removable corner, in `covers_below` order."""
    groups, start = [], 0
    for mu in covers_below(Partition(parts)):
        groups.append((mu.parts, slice(start, start + f_dim(mu))))
        start += f_dim(mu)
    return tuple(groups)


def _conjugate(M: np.ndarray, table: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """M <- A M A in place for the adjacent transposition A = `table` and
    each f x f matrix of the stack M, in O(f^2) per matrix: rows, then
    columns, with at most two nonzeros in each line of A."""
    diag, off, partner = table
    X = np.take(M, partner, axis=1)
    X *= off[:, None]
    M *= diag[:, None]
    M += X
    np.take(M, partner, axis=2, out=X, mode="clip")  # "raise" would buffer `out`
    X *= off
    M *= diag
    M += X


def _level_steps(n: int, weights: dict) -> list:
    """How `_grow` builds each level k = 2..n from level k - 1: (matrices
    per stack, where the columns of level k - 1 go, the range conjugated,
    merge, weighted).

    A stack of level k holds its nonzero matrices, ascending by label:
    label k for slot 0 (the edges inside 1..k, column k among them) and
    label m > k for column m (the edges (i, m), i < k). The columns of
    level k - 1 keep their order in level k, so they fill `place`, one
    slice or index array inside the range `conjugated` (a column that
    level k gains between two of them is still +0.0 there, and
    conjugating it leaves it +0.0, bit for bit); `merge` is 1 when
    level k - 1 has a slot 0 to add to slot 0 of level k. `weighted`
    holds the matrices of level k whose w_{k-1,m} is nonzero and those
    weights, as columns for broadcasting, or None.
    """
    labels = [tuple(sorted({max(j, k) for i, j in weights if i < k})) for k in range(n + 1)]
    steps: list = [None, None]
    for k in range(2, n + 1):
        new, old = labels[k], labels[k - 1]
        merge = int(old[:1] == (k - 1,))
        kept = [new.index(m) for m in old[merge:]]
        place = conjugated = None
        if kept:
            conjugated = slice(kept[0], kept[-1] + 1)
            place = conjugated if len(kept) == kept[-1] + 1 - kept[0] else np.array(kept)
        at = [p for p, m in enumerate(new) if (k - 1, m) in weights]
        w = [weights[k - 1, new[p]] for p in at]
        weighted = (np.array(at)[:, None], np.array(w, dtype=float)[:, None]) if at else None
        steps.append((len(new), place, conjugated, merge, weighted))
    return steps


def _grow(lam: tuple[int, ...], below: dict, step: tuple) -> np.ndarray:
    """The stack of shape `lam` (k boxes) from the stacks `below` of level
    k - 1, laid out by `step` (`_level_steps`): the columns of the shapes
    below go on the corner groups, are conjugated by (k-1, k) in one pass
    and get w_{k-1,m} (k-1, k); then slot 0 of the shapes below joins
    column k in slot 0."""
    size, place, conjugated, merge, weighted = step
    diag, off, partner = table = _adjacent_table(lam, sum(lam) - 1)
    f = len(diag)
    groups = [(below[mu], rows) for mu, rows in _corner_groups(lam)]
    S = np.zeros((size, f, f))
    if conjugated is not None:
        for stack, rows in groups:
            S[place, rows, rows] = stack[merge:]
        _conjugate(S[conjugated], table)
    if weighted is not None:
        at, w = weighted
        i = np.arange(f)
        S[at, i, i] += w * diag
        S[at, i, partner] += w * off
    if merge:
        for stack, rows in groups:
            S[0, rows, rows] += stack[0]
    return S


def _rho_sums(
    n: int, weights: dict, shapes: list[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Yield (parts, sum of w_ij rho_ij) for each shape of n boxes in
    `shapes`, in that order, on the last-letter basis; `weights` maps
    pairs (i, j), i < j, to rates. The stacks of the shapes under the
    requested ones are built one level at a time, and each top block only
    when it is asked for."""
    weights = {pair: w for pair, w in weights.items() if w != 0}
    steps = _level_steps(n, weights)
    levels = [list(shapes)]
    for _ in range(n - 2):
        below = (mu for lam in levels[-1] for mu, _ in _corner_groups(lam))
        levels.append(list(dict.fromkeys(below)))
    stacks = {(1,): np.zeros((0, 1, 1))}  # one box, no edge yet
    for level in reversed(levels[1:]):
        stacks = {lam: _grow(lam, stacks, steps[sum(lam)]) for lam in level}
    for lam in shapes:
        S = _grow(lam, stacks, steps[n]) if n > 1 else ()
        yield lam, S[0] if len(S) else np.zeros((f_dim(Partition(lam)),) * 2)
        del S  # the caller's block is the only hold on it while the next one is built


def _rho_sum(lam: Partition, weights: dict) -> np.ndarray:
    """sum of w_ij rho_ij for one shape, in dictionary order. Raises
    ValueError when it would not fit in memory."""
    _require_matrices(lam, stacked=True)
    ((_, S),) = _rho_sums(lam.n, weights, [lam.parts])
    return _in_dictionary_order(lam.parts, S)


def _require_matrices(lam: Partition, stacked: bool = False) -> None:
    """Refuse a shape whose matrix would not fit: two f x f arrays (the
    matrix and a scratch array, then the matrix and its dictionary-order
    copy) and about 200 bytes per box of each tableau for the tableau
    lists and adjacent tables (36-84 measured up to f = 6006). With
    `stacked`, for a matrix that `_rho_sums` builds, also the two stack
    slots it holds for each shape one box below while it builds the top
    block. On complete graphs, where every slot is filled, `tracemalloc`
    saw 0.84-0.99 times that estimate at f = 450-7700, first calls
    (which fill the caches of tableaux and tables) included."""
    f = f_dim(lam)
    entries = 2 * f * f
    if stacked:
        entries += 2 * sum(f_dim(mu) ** 2 for mu in covers_below(lam))
    parts = ",".join(map(str, lam.parts))
    _require_bytes(entries * 8 + 200 * lam.n * f, f"the {f} x {f} arrays of shape ({parts})")


def rho_adjacent(lam: Partition, i: int) -> np.ndarray:
    """Matrix of the adjacent transposition (i, i+1)."""
    from .permutations import Permutation

    if not 1 <= i <= lam.n - 1:
        raise ValueError(f"adjacent index must be in 1..{lam.n - 1}, got {i}")
    return rho_sigma(lam, Permutation.transposition(lam.n, i, i + 1))


def rho_transposition(lam: Partition, i: int, j: int) -> np.ndarray:
    """Matrix of the transposition (i, j), built by the branching rule
    as the weighted sum with the one weight w_ij = 1 (`_rho_sum`)."""
    if not 1 <= i < j <= lam.n:
        raise ValueError(f"need 1 <= i < j <= {lam.n}, got ({i}, {j})")
    return _rho_sum(lam, {(i, j): 1.0})


def rho_sigma(lam: Partition, sigma: Permutation) -> np.ndarray:
    """Matrix of an arbitrary permutation via its adjacent factorization."""
    if sigma.n != lam.n:
        raise ValueError(f"permutation size {sigma.n} != partition size {lam.n}")
    _require_matrices(lam)
    M = np.eye(f_dim(lam))
    X = np.empty_like(M)  # scratch, freed before the reordered copy is made
    for i in sigma.adjacent_factorization():
        diag, off, partner = _adjacent_table(lam.parts, i)
        np.take(M, partner, axis=1, out=X, mode="clip")  # "raise" would buffer `out`
        X *= off
        M *= diag
        M += X
    del X
    return _in_dictionary_order(lam.parts, M)


def transposition_difference(lam: Partition, i: int, j: int) -> np.ndarray:
    """V_ij = I - rho_ij; PSD with eigenvalues in {0, 2}."""
    return np.eye(f_dim(lam)) - rho_transposition(lam, i, j)


def irrep_laplacian(lam: Partition, graph) -> np.ndarray:
    """Weighted sum of V_ij over the graph's edges: W*I - sum w_ij rho_ij
    with W the total weight, summed as the one-row shape's block sums it,
    so that block is exactly zero.

    Accepts nonnegative or signed weights (anything with `.n` and a
    `.weights` dict keyed on pairs). PSD whenever all weights are >= 0.
    Raises ValueError when the block would not fit in memory.
    """
    if lam.n != graph.n:
        raise ValueError(f"partition of {lam.n} does not match graph on {graph.n} vertices")
    _require_matrices(lam, stacked=True)
    (_, trivial), (_, S) = _rho_sums(graph.n, graph.weights, [(graph.n,), lam.parts])
    L = _in_dictionary_order(lam.parts, S)
    np.negative(L, out=L)
    L.flat[:: len(L) + 1] += trivial[0, 0]
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


def _states(n: int) -> int:
    """n!, counted as 200! past n = 200, for the estimates passed to
    `_require_bytes`: 200! bytes already print as inf GiB, and forming n!
    itself took 9 s at n = 10^6 (2-vCPU x86 host)."""
    return math.factorial(min(n, 200))


def _require_bytes(need: int, what: str) -> None:
    """Refuse, before anything is allocated, a build that needs more than
    `need` bytes when this process cannot get that much memory. `what`
    names what is being built, as the plural subject of the message.
    Every size refusal of the package goes through here."""
    available = _available_bytes()
    if need > available:
        gib = need / 2**30 if need < 2**1000 else math.inf  # a float overflows from 2^1024
        raise ValueError(
            f"{what} need about {gib:.3g} GiB, "
            f"but this process can get {max(available, 0) / 2**30:.3g} GiB"
        )


def _stacks_bytes(n: int) -> int:
    """Bytes of the stacks that `_rho_sums` holds while it builds the top
    blocks of n boxes: two f x f slots for each shape of n - 1 boxes, at
    most 2 (n-1)! entries since f^2 sums to (n-1)!."""
    return 16 * _states(n - 1)


@lru_cache(maxsize=1)
def _shape_table(n: int) -> tuple[tuple[Partition, ...], dict, tuple, int]:
    """What `shape_spectra` needs of n alone, for the latest n only: the
    shapes in `enumerate_partitions` order, each shape's conjugate (as
    parts), the shapes it solves (the first of each conjugate pair, the
    one-row shape first) and the largest dimension."""
    shapes = tuple(enumerate_partitions(n))
    conjugate = {lam.parts: lam.conjugate().parts for lam in shapes}
    rank = {parts: r for r, parts in enumerate(conjugate)}
    solve = tuple(parts for parts, twin in conjugate.items() if rank[twin] >= rank[parts])
    return shapes, conjugate, solve, max(f_dim(lam) for lam in shapes)


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
    # Beside the stacks, `_rho_sums` holds two arrays of the largest top
    # dimension squared: the block being built and the conjugation's
    # scratch array, then the block and the eigensolver's copy of it; the
    # first solve maps numpy's OpenBLAS buffer too, counted until a solve
    # is known to have mapped it (`spectral._dense_buffer_bytes`). The
    # stacks alone are checked first: finding the largest dimension
    # enumerates the partitions of n, which takes minutes at n = 70.
    edges = sum(1 for w in graph.weights.values() if w != 0)
    what = f"the per-shape blocks of a {graph.n}-vertex graph with {edges} edges"
    need = _stacks_bytes(graph.n)
    _require_bytes(need, what)
    shapes, conjugate, solve, largest = _shape_table(graph.n)
    _require_bytes(need + 2 * largest**2 * 8 + _dense_buffer_bytes(), what)
    solved = {}
    for parts, L in _rho_sums(graph.n, graph.weights, solve):
        if parts == solve[0]:  # the one-row shape comes first: its sum is W
            total = L[0, 0]
        np.negative(L, out=L)
        L.flat[:: len(L) + 1] += total
        vals = _eigvalsh(L)
        diag = L.diagonal().copy()
        np.fill_diagonal(L, 0.0)
        solved[parts] = (vals, float(np.abs(L).max()), diag)
        del L  # not held while the next block is built
    out = []
    for lam in shapes:
        if lam.parts in solved:
            vals, off_max, diag = solved[lam.parts]
        else:
            vals, off_max, diag = solved[conjugate[lam.parts]]
            vals = 2.0 * total - vals[::-1]
            diag = 2.0 * total - diag
        out.append((lam, vals, max(off_max, float(np.abs(diag).max()))))
    return out


def jucys_murphy(lam: Partition, j: int) -> np.ndarray:
    """Sum of rho_ij over i < j; diagonal with the content of j's box."""
    if not 2 <= j <= lam.n:
        raise ValueError(f"need 2 <= j <= {lam.n}, got {j}")
    return _rho_sum(lam, {(i, j): 1.0 for i in range(1, j)})


def branching_check(
    lam: Partition, i: int, j: int, tol: float = 1e-10
) -> tuple[bool, tuple[int, ...]]:
    """Check that rho_ij is permutation-similar to the direct sum of the
    rho_ij of the shapes one box below.

    Tableaux are regrouped by the corner holding n (groups in
    `covers_below` order, members in the dictionary order of their
    restrictions), the corner groups of the last-letter basis; the
    returned witness lists, for each regrouped position, the original
    tableau index. Requires i < j < n so the transposition also acts on
    every smaller shape. Both sides come from `rho_sigma`, which
    multiplies adjacent tables, so the check is independent of the
    branching-rule builder `_rho_sums` that it is a property of.
    """
    from .permutations import Permutation

    n = lam.n
    if not 1 <= i < j < n:
        raise ValueError(f"need 1 <= i < j < {n}, got ({i}, {j})")
    groups = _corner_groups(lam.parts)
    # the dictionary index of each last-letter position
    order = np.argsort(_dictionary_positions(lam.parts))
    witness = tuple(int(k) for mu, rows in groups for k in order[rows][_dictionary_positions(mu)])
    regrouped = rho_sigma(lam, Permutation.transposition(n, i, j))[np.ix_(witness, witness)]
    direct_sum = np.zeros_like(regrouped)
    for mu, rows in groups:
        direct_sum[rows, rows] = rho_sigma(Partition(mu), Permutation.transposition(n - 1, i, j))
    ok = bool(np.abs(regrouped - direct_sum).max() <= tol)
    return ok, witness


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
