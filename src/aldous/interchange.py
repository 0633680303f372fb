"""The n!-state interchange process and its spectrum.

The process jumps from a permutation sigma to (i j) sigma at the rate of
edge (i, j). Two routes to its spectrum are kept deliberately
independent: the explicit chain, on the Young modules below, and the
per-shape decomposition where each partition block appears with
multiplicity equal to its dimension. The walk of a single label embeds
as the two-row-shape block, which is what the gap comparison
(`aldous_check`) exploits: the conjecture holds for a graph exactly when
no other shape's smallest eigenvalue undercuts it.

The explicit route builds one kind of matrix, the rates B_mu of the
process whose labels come in blocks of mu_1, mu_2, ... identical ones
(`_module_block`), on the permutation module M^mu of the Young subgroup
S_mu. A state gives each letter the label of its block, a word of
l = len(mu) labels with mu_c copies of label c, kept as its code, the
sum of label * l^(n-1-letter) over the letters 0..n-1; the codes are
built in ascending order, a letter at a time. Split at its last h =
floor(n/2) letters, a code is head * l^h + low. The words of one head
are contiguous, and their tails run through every arrangement of one
multiset in the same order, so the row of a word is first[head] +
tail[low] for two tables of l^(n-h) and l^h entries. The swap (i j)
moves head and low by multiples of c_j - c_i, c_i and c_j being the
labels of letters i and j, so two gathers and an add per edge fill that
edge's column of the CSR index table, with no code shared with `yor`.
B_mu equals its transpose, its rows sum to the total rate W, and the
double [[W I, -B_mu], [-B_mu, W I]] has the eigenvalues W -+ beta over
the eigenvalues beta of B_mu.

At mu = (2, 1^(n-2)) that double is the interchange Laplacian L itself,
with its states in another order. Every transposition flips the parity
of a word, so the chain is bipartite: A = W I - L only links the n!/2
even words to the n!/2 odd ones. A label word of (2, 1^(n-2)) stands
for one word of each parity, the two that differ by the swap of the
places of label 0, and with the even words first L = [[W I, -B], [-B,
W I]] for B the block of that mu with its rows and columns reordered.
`interchange_spectrum` therefore takes the whole n!-point spectrum,
{W - beta} and {W + beta} over the eigenvalues beta of that block, from
one dense solve of its n!/2 rows, up to `spectral.DENSE_LIMIT` states
(n <= 7). `aldous decompose` compares every eigenvalue with the
per-shape blocks, and on the star-minus-clique weights
(`conjecture.comparison_weights`) twice the smallest one is the
smallest eigenvalue of the Dirichlet form that `check_conjecture`
decides shape by shape. On wheel 7, `aldous decompose` takes 1.3-1.5 s
at 150 MB peak RSS, against 7.5-10.9 s at 442 MB when it solved all
5040 states densely (2-vCPU x86 host, two OpenBLAS threads).

`gap_interchange` needs only the gap, and a smaller module keeps it.
W I - B_mu is the Laplacian of the process on M^mu, which holds the
shape lam exactly when lam dominates mu (Young's rule: the Kostka
number K_(lam, mu) is positive exactly then; James and Kerber, 1981).
W + beta is 2W less an eigenvalue of W I - B_mu, and 2W I - L^lam is
L^lam' up to a signed permutation, so the double holds exactly the
spectra L^lam of the shapes with lam >= mu or lam' >= mu in the
dominance order. `_covering_shape` searches the p(n) partitions for the
mu for which that is every shape, on the fewest rows n!/(mu_1! mu_2!
...): (3, 2, 1, 1) and 420 rows at n = 7, (3, 3, 1, 1) and 1120 at
n = 8, (4, 3, 1, 1, 1) and 25200 at n = 10. That mu is never (1^n), so
the trivial eigenvalue W of B_mu occurs once, and the gap of the double
is the gap of L. L (2W I - L) = W^2 I - A^2 with A^2 = B^2 (+) B^2 for
the double's B = B_mu, so the gap is W - sigma_2(B), sigma_2 the
second-largest |beta|, which `spectral.bipartite_laplacian_gap` finds
from the smallest nontrivial eigenvalue of W^2 I - B^2 on the module.
On a 2-vCPU x86 host with
two OpenBLAS threads, each in a fresh process, `gap_interchange` takes
5.7-9.2 ms at n = 8 on paths, wheels, complete and random graphs
(6.0-10.6 ms when a binary search of the codes gave each edge's
column), 44-50 ms at 68 MB peak RSS on K_9 (61-75 ms), and 0.12-0.15 s
at 79 MB on K_10 (0.16-0.22 s); in one process the two tables build the
block 1.5 times as fast as that search at n = 8 and 2.1-2.5 times as
fast at n = 9-12. The dense double of the same block (`_double_spectrum`)
gives the gap on the one row of (2) at n = 2, where ARPACK cannot run,
and when the solve raises NoConvergence (ARPACK stopped, or its pair
failed the residual check) on at most `spectral.DENSE_LIMIT` states of
the double (n <= 8). The solve needs B_mu >= 0, so negative rates are
refused; with them the residual check only shows that a value is some
eigenvalue (on the star-minus-clique rates at n = 6 it passed the
minimum of shape (4, 2), where the gap is about 0), and their spectrum
is `interchange_spectrum`'s. When the positive rates do not connect the
vertices, the chain is reducible and the gap is 0.0, without a solve.

There is no fixed cap on n. Before it builds a block, the explicit
route passes an estimate for its module to `yor._require_bytes`: the
larger of what the block's builder maps at its peak (`_block_footprint`)
and the block beside what its solve holds, counted array by array (the
dense block and what `eigvalsh` maps for `_double_spectrum`,
`spectral.iterative_solve_bytes` for `gap_interchange`), so a graph
whose solve would not fit is refused with ValueError before anything
is allocated. `_double_spectrum` passes one estimate. `gap_interchange`
passes up to three. First comes that of the fewest rows that any mu of
its search can have, so a huge n is refused before its partitions are
searched: the s x s box, s = 1 + isqrt(n - 1), holds a shape of n boxes
whose first row and first column are at most s, so the parts of that
mu are at most s and it has at least the rows of (s, ..., s, n mod s).
Then comes that of the covering mu, and, on the fallback, after the
block is freed, the dense estimate of `_double_spectrum`. A refusal
names the module in the exponent syntax of `tableaux.parse_partition`
(M^(6^5) at n = 30). Rows are counted by `_rows`, which stops at 200!
like `yor._states`. The per-shape route (`spectrum_via_irreps`,
`aldous_check`) makes one `yor.shape_spectra` pass, which refuses the
same way a graph whose blocks would not fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import TYPE_CHECKING

import numpy as np

from .graphs import WeightedGraph, is_connected, rw_laplacian
from .spectral import BLAS_BUFFER_BYTES, DEFAULT_TOL, DENSE_LIMIT, NoConvergence
from .spectral import bipartite_laplacian_gap, iterative_solve_bytes
from .tableaux import Partition, enumerate_partitions, f_dim
from .yor import _require_bytes, _states, shape_spectra

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "interchange_spectrum",
    "gap_interchange",
    "gap_rw",
    "spectrum_via_irreps",
    "AldousReport",
    "aldous_check",
]


def _subject(G: WeightedGraph, mu: tuple[int, ...]) -> str:
    """What the explicit route builds on the module M^mu, for its refusal
    messages: mu in the exponent syntax of `tableaux.parse_partition`,
    so a huge n prints M^(10000^10000), not 10000 parts."""
    edges = sum(1 for w in G.weights.values() if w != 0)
    runs = ((part, len(list(copies))) for part, copies in groupby(mu))
    module = ",".join(f"{part}^{count}" if count > 1 else str(part) for part, count in runs)
    return f"the block of the Young module M^({module}) for a {G.n}-vertex graph with {edges} edges"


def _rows(n: int, mu: tuple[int, ...]) -> int:
    """n!/(mu_1! mu_2! ...), the rows of `_module_block(G, mu)` for an
    n-vertex graph, counted like `yor._states`: past n = 200 as 200!,
    which already prints as inf GiB."""
    return _states(n) // math.prod(map(math.factorial, mu)) if n <= 200 else _states(n)


def _block_footprint(G: WeightedGraph, mu: tuple[int, ...]) -> tuple[int, int]:
    """Bytes `_module_block(G, mu)` maps at its peak, and bytes it still
    maps when it returns.

    With E edges, h rows (`_rows`) and int32 indices (int64 from 2^31
    entries on), it returns E columns and E float64 values per row and
    the row pointers, beside two freed h-long int64 temporaries the
    allocator may keep mapped. Before that it holds, per row: while the
    words grow, at their last letter, the old and the new codes, the two
    indices of the labels left, a row index and len(mu) one-byte counts
    of those labels; while the columns are filled, the n one-byte labels,
    the head and tail codes, the row's two ranks, the column table and,
    for the edge at hand, its label differences, one gathered rank and a
    moved code with its int64 product, beside the two rank tables of
    l^(n - floor(n/2)) + l^floor(n/2) indices (n counted as 200 past it,
    like `_rows`). The peak adds 8 KiB of Python objects and small
    arrays: `tracemalloc` saw 0-8 bytes per row less than the larger of
    these at 420-1814400 rows (n = 7-10, E = 1-45, on (2, 1^(n-2)), (3,
    1^(n-3)) and `_covering_shape(n)`), and 4-12 KiB on one to twelve
    rows.
    """
    n, size = G.n, len(mu)
    rows = _rows(n, mu)
    edges = sum(1 for w in G.weights.values() if w != 0)
    index = 4 if rows * edges < 2**31 else 8
    m = min(n, 200)
    tables = size ** (m - m // 2) + size ** (m // 2)
    words = rows * (40 + size)
    columns = rows * (33 + n + (edges + 3) * index) + index * tables
    held = rows * (edges * (index + 8) + index + 16) + index
    return max(words, columns, held) + 2**13, held


@lru_cache(maxsize=None)
def _covering_shape(n: int) -> tuple[int, ...]:
    """The partition mu of n whose module `_module_block` holds every
    shape or its conjugate (each lam has lam >= mu or lam' >= mu in the
    dominance order), with the fewest rows: the first such in the order
    of `enumerate_partitions` among those of equal rows."""
    shapes = enumerate_partitions(n)
    sums = np.array([np.cumsum(lam.parts + (0,) * (n - len(lam))) for lam in shapes])
    dominates = np.all(sums[:, None] >= sums[None, :], axis=2)  # [lam, mu]: lam >= mu
    conjugates = [shapes.index(lam.conjugate()) for lam in shapes]
    covers = np.all(dominates | dominates[conjugates], axis=0)
    return min((mu.parts for mu, c in zip(shapes, covers) if c), key=lambda mu: _rows(n, mu))


def _module_block(G: WeightedGraph, mu: tuple[int, ...]) -> sp.csr_matrix:
    """The rates B_mu of the interchange process whose labels come in
    blocks of mu_1, mu_2, ... identical ones. A state gives each letter
    the label of its block: a word of l = len(mu) labels with mu_c copies
    of label c, coded as the sum of label * l^(n-1-letter), and the rows
    are the n!/(mu_1! mu_2! ...) codes in ascending order. B_mu[x, y] is
    the total rate of the edges (i, j) whose swap of the labels of i and
    j takes x to y; each row holds one entry per edge with a nonzero
    rate, a swap of two equal labels lands on the diagonal, and the rows
    sum to the total rate W. Raises ValueError when the codes would not
    fit in 64 bits (l^n >= 2^63).

    The words grow a letter at a time, each by every label it still has
    copies of, in ascending order, which keeps the codes sorted. The
    label of each letter is then kept as one byte per row, and each code
    is split at its last h = floor(n/2) letters into head * l^h + low.
    The words of one head are the rows first[head], first[head] + 1, ...,
    and their tails are every arrangement of one multiset, in ascending
    order, so the row of a word is first[head] + tail[low], where tail
    numbers the arrangements of a tail's multiset; the two tables hold
    l^(n-h) + l^h entries, fewer than the rows of every covering mu from
    n = 6 on. The swap (i j) of vertices i < j, whose labels are c_i and
    c_j, moves the code by (c_j - c_i)(l^(n-i) - l^(n-j)), which adds a
    multiple of c_j - c_i to the head, to the tail or to both, so two
    gathers and an add per edge fill that edge's column of the CSR index
    table, and the row pointers are a multiple of the row number.
    Off the diagonal no entry is duplicated: a word and the word it
    swaps to differ at exactly the two letters of the swap. B_mu equals
    its transpose, entry for entry, since (i j) is its own inverse.

    At mu = (2, 1^(n-2)) each word is the pair of one even and one odd
    permutation, which differ by the swap of the two places of label 0,
    and B_mu is the block of the interchange rates from the even
    permutations (rows) to the odd ones (columns), in another order: the
    interchange Laplacian is [[W I, -B_mu], [-B_mu, W I]]. For any mu
    that double has the spectrum W -+ beta over the eigenvalues beta of
    B_mu; the module docstring says which shapes it holds.
    """
    import scipy.sparse as sp  # only the explicit route needs scipy

    n, size = G.n, len(mu)
    if size**n >= 2**63:
        raise ValueError(f"the words of {size} labels on {n} letters have codes beyond 64 bits")
    edges = [(i, j, w) for (i, j), w in sorted(G.weights.items()) if w != 0]
    # left[x, c]: the copies of label c that word x has still to place
    codes, left = np.zeros(1, dtype=np.int64), np.array([mu], dtype=np.min_scalar_type(n))
    for _ in range(n):
        parent, label = np.nonzero(left)
        left = left[parent]
        left[np.arange(len(label)), label] -= 1
        codes = codes[parent]
        codes *= size
        codes += label
    del left, parent, label
    count = len(codes)
    index = np.int32 if count * len(edges) < 2**31 else np.int64
    power = size ** np.arange(n - 1, -1, -1, dtype=np.int64)  # l^(n-1-letter)
    labels = np.empty((n, count), dtype=np.int8)  # labels[k]: the label of letter k
    for k in range(n):
        labels[k] = codes // power[k] % size
    # a word's row is first[head] + tail[low]
    h = n // 2
    head, low = np.divmod(codes, size**h)
    del codes
    first = np.empty(size ** (n - h), dtype=index)
    starts = np.flatnonzero(np.diff(head, prepend=-1))
    first[head[starts]] = starts
    del starts
    first_row = first[head]
    tail_row = np.arange(count, dtype=index)
    tail_row -= first_row
    tail = np.empty(size**h, dtype=index)
    tail[low] = tail_row
    # the place value of each letter in the head and in the tail
    head_power, low_power = np.divmod(power, size**h)
    table = np.empty((count, len(edges)), dtype=index)  # row x: its entries' columns
    for c, (i, j, _) in enumerate(edges):
        delta = labels[j - 1] - labels[i - 1]
        up, down = head_power[i - 1] - head_power[j - 1], low_power[i - 1] - low_power[j - 1]
        np.add(
            first[np.multiply(delta, up, dtype=np.int64) + head] if up else first_row,
            tail[np.multiply(delta, down, dtype=np.int64) + low] if down else tail_row,
            out=table[:, c],
        )
    del labels, head, low, first, tail, first_row, tail_row
    data = np.tile(np.array([w for _, _, w in edges], dtype=float), count)
    indptr = np.arange(count + 1, dtype=index) * len(edges)
    B = sp.csr_matrix((data, table.reshape(-1), indptr), shape=(count, count))
    B.sort_indices()
    return B


def _require_gap_solve(G: WeightedGraph, mu: tuple[int, ...]) -> None:
    """Refuse, before anything is built, the gap solve on `_module_block(G,
    mu)` when the larger of the block's peak and the block beside what
    `bipartite_laplacian_gap` maps would not fit in memory."""
    peak, held = _block_footprint(G, mu)
    solve = held + iterative_solve_bytes(_rows(G.n, mu))
    _require_bytes(max(peak, solve), _subject(G, mu) + " and its eigensolve")


def _double_spectrum(G: WeightedGraph, mu: tuple[int, ...]) -> np.ndarray:
    """W - beta and W + beta, sorted ascending, for the total rate W and
    each eigenvalue beta of `_module_block(G, mu)`, found by one dense
    solve of that block. Raises ValueError, before building anything, when
    the block, its dense copy and what the dense solve maps beside them
    would not fit in memory."""
    import scipy.sparse  # noqa: F401  (loaded first: the check counts it as mapped)

    rows = _rows(G.n, mu)
    peak, held = _block_footprint(G, mu)
    # beside the block: its dense copy, eigvalsh's copy of that, LAPACK's
    # work array (dsyevd asks for 2 + 32 float64 per row, 32 being the
    # block size of its tridiagonal reduction) and the work buffer that
    # OpenBLAS maps on its first call
    solve = held + 8 * rows * (2 * rows + 34) + BLAS_BUFFER_BYTES
    _require_bytes(max(peak, solve), _subject(G, mu) + " and its dense eigensolve")
    beta = np.linalg.eigvalsh(_module_block(G, mu).toarray())
    total = float(sum(G.weights.values()))
    return np.sort(np.concatenate([total - beta, total + beta]))


def interchange_spectrum(G: WeightedGraph) -> np.ndarray:
    """The n!-point spectrum of the explicit interchange Laplacian, sorted
    ascending: the double spectrum (`_double_spectrum`) of the even-to-odd
    block `_module_block(G, (2, 1^(n-2)))`. Signed weights (a
    `SignedWeightedGraph`) are allowed; the spectrum is nonnegative when
    all weights are.

    Raises ValueError when n! exceeds `spectral.DENSE_LIMIT`, and, before
    building anything, when the dense solve would not fit in memory.
    """
    if _states(G.n) > DENSE_LIMIT:
        raise ValueError(
            f"a dense spectrum is limited to {DENSE_LIMIT} states; "
            f"a {G.n}-vertex graph has {G.n}! states"
        )
    if G.n < 2:
        return np.zeros(1)  # one state, no move
    return _double_spectrum(G, (2,) + (1,) * (G.n - 2))


def gap_interchange(G: WeightedGraph) -> float:
    """Second-smallest eigenvalue of the explicit interchange Laplacian of
    nonnegative rates, solved on the smallest Young module that holds
    every shape or its conjugate (`_covering_shape`, `_module_block`,
    `spectral.bipartite_laplacian_gap`), or read off the dense double of
    that block (`_double_spectrum`) when it has one row (n = 2) or when
    that solve raises NoConvergence on at most DENSE_LIMIT states.

    Exactly 0.0 when the positive rates do not connect the vertices (the
    chain is reducible) and for a graph without edges. Raises ValueError
    on a negative rate (`interchange_spectrum` takes signed weights) and,
    before building anything, when the block and what its solve holds
    would not fit in memory, and NoConvergence (a ValueError) when the
    iterative solve fails on more than DENSE_LIMIT states.
    """
    if G.n < 2:
        raise ValueError("need at least 2 vertices")
    if any(w < 0 for w in G.weights.values()):
        raise ValueError("gap_interchange needs nonnegative rates; interchange_spectrum takes signed weights")
    if not any(G.weights.values()):
        return 0.0
    import scipy.sparse.linalg  # noqa: F401  (loaded first: the check counts it as mapped)
    # the parts of a covering mu are at most s, as the s x s box holds a
    # shape whose first row and column are at most s, so mu has at least
    # the rows of (s, ..., s, n mod s): a refusal before the search
    s = 1 + math.isqrt(G.n - 1)
    whole, rest = divmod(G.n, s)
    _require_gap_solve(G, (s,) * whole + (rest,) * (rest > 0))
    mu = _covering_shape(G.n)
    _require_gap_solve(G, mu)
    if not is_connected(G):
        return 0.0
    rows = _rows(G.n, mu)
    if rows > 1:
        try:
            # the block goes with the exception, before the fallback builds it again
            return bipartite_laplacian_gap(_module_block(G, mu), float(sum(G.weights.values())))
        except NoConvergence:
            if 2 * rows > DENSE_LIMIT:
                raise
    return float(_double_spectrum(G, mu)[1])


def gap_rw(G: WeightedGraph) -> float:
    """Spectral gap of the single-label walk: the second-smallest
    eigenvalue of its n x n Laplacian `graphs.rw_laplacian`."""
    if G.n < 2:
        raise ValueError("need at least 2 vertices")
    return float(np.linalg.eigvalsh(rw_laplacian(G))[1])


def _merged_spectrum(spectra) -> np.ndarray:
    """The spectra of `yor.shape_spectra`, each repeated as many times as
    its dimension, sorted ascending and stably, so equal values (0.0 and
    -0.0 among them) keep the order of the shapes."""
    repeated = np.concatenate([np.tile(vals, len(vals)) for _, vals, _ in spectra])
    return np.sort(repeated, kind="stable")


def spectrum_via_irreps(G: WeightedGraph) -> np.ndarray:
    """The full n!-point spectrum assembled from the per-shape blocks
    (`_merged_spectrum`). Raises ValueError when the blocks would not fit
    in memory."""
    return _merged_spectrum(shape_spectra(G))


@dataclass(frozen=True)
class AldousReport:
    """Outcome of the gap comparison on one weighted graph."""

    gap_interchange: float
    gap_rw: float
    argmin_partition: Partition
    passed: bool
    minima: dict
    tied_partitions: tuple[Partition, ...]

    @property
    def gap_multiplicity_lower_bound(self) -> int:
        """Copies of the gap eigenvalue contributed by the argmin shape."""
        return f_dim(self.argmin_partition)


def aldous_check(G: WeightedGraph, tol: float = DEFAULT_TOL) -> AldousReport:
    """Compare the interchange gap with the single-label walk gap.

    The interchange gap is taken from the per-shape decomposition (the
    smallest block eigenvalue over all nontrivial shapes), which scales
    far beyond the explicit n! construction. Passes when that minimum is
    attained, within tolerance, at the two-row shape (n-1, 1); a
    disconnected graph passes with both gaps zero. Raises ValueError
    when the blocks would not fit in memory.
    """
    if G.n < 2:
        raise ValueError("need at least 2 vertices")
    minima = {lam: float(vals[0]) for lam, vals, _ in shape_spectra(G) if lam.parts != (G.n,)}
    rw_shape = Partition((G.n - 1, 1))
    rw_gap = minima[rw_shape]
    gap = min(minima.values())
    scale = max(abs(v) for v in minima.values())
    eps = tol * (1.0 + scale)
    argmin = min(minima, key=lambda lam: (minima[lam], lam.parts))
    tied = tuple(lam for lam, v in minima.items() if v <= gap + eps)
    if rw_shape in tied:
        argmin = rw_shape
    passed = rw_gap <= gap + eps
    return AldousReport(
        gap_interchange=gap,
        gap_rw=rw_gap,
        argmin_partition=argmin,
        passed=passed,
        minima=minima,
        tied_partitions=tied,
    )
