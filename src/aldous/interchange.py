"""The n!-state interchange process and its spectral gap.

States are permutations ranked lexicographically; the process jumps from
sigma to (i j) sigma at the rate of edge (i, j). Two routes to its
spectrum are kept deliberately independent: the explicit sparse n! x n!
Laplacian, and the per-shape decomposition where each partition block
appears with multiplicity equal to its dimension. The walk of a single
label embeds as the two-row-shape block, which is what the gap
comparison (`aldous_check`) exploits: the conjecture holds for a graph
exactly when no other shape's smallest eigenvalue undercuts it.

The explicit Laplacian is built straight into its CSR arrays, one array
operation per edge: the words are numbers in base n, so a binary search
over their sorted numbers ranks (i j) sigma, and every row holds the
same entries (the diagonal and one per edge), so each edge fills one
column of the index table (0.01-0.09 s for the 40320 states of n = 8,
against 1.1-1.4 s for a loop over words and edges). `gap_interchange`
then solves it iteratively above `spectral.DENSE_CROSSOVER` states,
which covers n >= 6. `aldous decompose` still computes the full dense
spectrum up to `spectral.DENSE_LIMIT` states (n <= 7), because its
direct check compares every eigenvalue with the per-shape blocks, not
only the gap.

There is no fixed cap on n. Before it builds anything, `gap_interchange`
passes one estimate to `yor._require_bytes`: the larger of what the
builder maps at its peak and the matrix beside the eigensolver's
vectors and work buffer, each counted array by array (`_footprint`,
`spectral.iterative_solve_bytes`). So K_10 (3628800 states) builds
and solves in under a minute at 2.8 GB peak RSS, and a graph whose
matrix would not fit is refused with ValueError before anything is
allocated. The per-shape route (`spectrum_via_irreps`, `aldous_check`)
makes one `yor.shape_spectra` pass, which refuses the same way a graph
whose blocks would not fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, permutations
from typing import TYPE_CHECKING

import numpy as np

from .graphs import WeightedGraph
from .spectral import DEFAULT_TOL, iterative_solve_bytes, second_smallest_laplacian_eig
from .tableaux import Partition, f_dim
from .yor import _require_bytes, irrep_laplacian, shape_spectra

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "interchange_laplacian",
    "gap_interchange",
    "gap_rw",
    "spectrum_via_irreps",
    "AldousReport",
    "aldous_check",
]


def _footprint(G: WeightedGraph) -> tuple[int, int, str]:
    """Bytes `interchange_laplacian(G)` maps at its peak, bytes it still
    maps when it returns, and what it builds, for the refusal message.

    With w stored entries per row, it returns the column table (int32
    below 2^31 entries, else int64), the float64 values and the row
    pointers; beside them, the allocator may keep the two freed n!-long
    int64 temporaries of the column fill mapped. While the columns are
    filled, it holds the int64 codes, the (n! x n) int64 place table,
    the column table and those temporaries; while the place table is
    filled, the int8 words stand in for the column table. Both counts
    add 64 KiB for the small objects around the arrays.
    """
    n, size = G.n, math.factorial(G.n)
    edges = sum(1 for w in G.weights.values() if w != 0)
    width = edges + (1 if sum(G.weights.values()) else 0)
    index = 4 if size * width < 2**31 else 8
    fill = size * (8 + 8 * n + 16 + max(n, index * width))
    held = size * (width * (index + 8) + 16) + (size + 1) * index
    what = f"the {n}! states of the interchange Laplacian of a {n}-vertex graph with {edges} edges"
    return max(fill, held) + 2**16, held + 2**16, what


def interchange_laplacian(G: WeightedGraph) -> sp.csr_matrix:
    """Sparse n! x n! Laplacian of the interchange process.

    Row and column indices are permutation ranks. Every diagonal entry is
    the total edge rate (left out when that total is 0); the entry
    between sigma and (i j) sigma is the negated rate of (i, j), for
    every edge with a nonzero rate. Row sums vanish. Signed weights (a
    `SignedWeightedGraph`) are allowed; the matrix is PSD when all
    weights are nonnegative.

    Each word is read as an n-digit number in base n, so lexicographic
    rank order is numeric order. (i j) sigma exchanges the letters i and
    j of the word, which adds (j - i)(n^a - n^b) to its number, with a
    and b the place values of the positions holding i and j; a binary
    search of the sorted numbers gives its rank. Every row holds the
    same number of entries, so the ranks fill one column of the CSR
    index table per edge and the row pointers are a multiple of the
    row number; no entry is ever duplicated.

    Raises ValueError, before enumerating any word, when the build would
    not fit in memory (`_footprint` counts its arrays).
    """
    import scipy.sparse as sp  # only this explicit route needs scipy

    peak, _, what = _footprint(G)
    _require_bytes(peak, what)
    n = G.n
    size = math.factorial(n)
    edges = [(i, j, w) for (i, j), w in sorted(G.weights.items()) if w != 0]
    total = sum(G.weights.values())
    vals = ([total] if total else []) + [-w for _, _, w in edges]
    width = len(vals)
    # the words back to back, in lexicographic order: words[k::n] holds letter k of each
    words = np.fromiter(chain.from_iterable(permutations(range(n))), np.int8, size * n)
    codes = np.zeros(size, dtype=np.int64)  # ascending
    placed = np.empty((size, n), dtype=np.int64)  # [r, v]: place value of the letter v in word r
    for k in range(n):
        codes *= n
        codes += words[k::n]
        placed[np.arange(size), words[k::n]] = n ** (n - 1 - k)
    del words
    index = np.int32 if size * width < 2**31 else np.int64
    table = np.empty((size, width), dtype=index)  # row r: its entries' columns
    if total:
        table[:, 0] = np.arange(size)
    for c, (i, j, _) in enumerate(edges, start=width - len(edges)):
        table[:, c] = np.searchsorted(codes, codes + (j - i) * (placed[:, i - 1] - placed[:, j - 1]))
    del codes, placed
    data = np.tile(np.array(vals, dtype=float), size)
    indptr = np.arange(size + 1, dtype=index) * width
    L = sp.csr_matrix((data, table.reshape(-1), indptr), shape=(size, size))
    L.sort_indices()
    return L


def gap_interchange(G: WeightedGraph) -> float:
    """Second-smallest eigenvalue of the explicit interchange Laplacian.

    Zero exactly when the chain is reducible (the zero eigenvalue then
    has multiplicity above one). Raises ValueError, before building
    anything, when the n!-state matrix and the eigensolver's vectors
    beside it would not fit in memory.
    """
    if G.n < 2:
        raise ValueError("need at least 2 vertices")
    import scipy.sparse.linalg  # noqa: F401  (loaded first: the check counts it as mapped)

    peak, held, what = _footprint(G)
    solve = held + iterative_solve_bytes(math.factorial(G.n))
    _require_bytes(max(peak, solve), what + " and its eigensolve")
    return second_smallest_laplacian_eig(interchange_laplacian(G))


def gap_rw(G: WeightedGraph) -> float:
    """Spectral gap of the single-label walk, computed as the smallest
    eigenvalue of the two-row-shape block (n-1, 1)."""
    if G.n < 2:
        raise ValueError("need at least 2 vertices")
    block = irrep_laplacian(Partition((G.n - 1, 1)), G)
    return float(np.linalg.eigvalsh(block)[0])


def spectrum_via_irreps(G: WeightedGraph) -> np.ndarray:
    """The full n!-point spectrum assembled from the per-shape blocks,
    each repeated as many times as its dimension. Sorted ascending.
    Raises ValueError when the blocks would not fit in memory."""
    return np.sort(np.concatenate([np.tile(vals, len(vals)) for _, vals, _ in shape_spectra(G)]))


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
