"""The n!-state interchange process and its spectral gap.

States are permutations ranked lexicographically; the process jumps from
sigma to (i j) sigma at the rate of edge (i, j). Two routes to its
spectrum are kept deliberately independent: the explicit sparse n! x n!
Laplacian, and the per-shape decomposition where each partition block
appears with multiplicity equal to its dimension. The walk of a single
label embeds as the two-row-shape block, which is what the gap
comparison (`aldous_check`) exploits: the conjecture holds for a graph
exactly when no other shape's smallest eigenvalue undercuts it.

The explicit Laplacian is built with numpy, one array operation per
edge: the words are numbers in base n, so a binary search over their
sorted numbers ranks (i j) sigma (0.06 s for the 40320 states of n = 8,
against 1.1-1.4 s for a loop over words and edges). `gap_interchange`
then solves it iteratively above `spectral.DENSE_CROSSOVER` states,
which covers n >= 6. `aldous decompose` still computes the full dense
spectrum up to `spectral.DENSE_LIMIT` states (n <= 7), because its
direct check compares every eigenvalue with the per-shape blocks, not
only the gap.

There is no fixed cap on n. The builder passes its memory estimate to
`yor._require_bytes`, so n = 9 (362880 states) builds and solves in a
few seconds, and a graph whose matrix would not fit is refused with
ValueError before anything is allocated. The per-shape route
(`spectrum_via_irreps`, `aldous_check`) makes one `yor.shape_spectra`
pass, which refuses the same way a graph whose blocks would not fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graphs import WeightedGraph
from .spectral import DEFAULT_TOL, second_smallest_laplacian_eig
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


def _lex_words(n: int) -> np.ndarray:
    """Every word on the letters 0..n-1, one per row, in lexicographic
    order: the words starting with v are v followed by the words on the
    other letters, which are the words on 0..n-2 with each letter >= v
    raised by one."""
    words = np.zeros((1, 0), dtype=np.int64)
    for m in range(1, n + 1):
        words = np.vstack(
            [np.hstack([np.full((len(words), 1), v), words + (words >= v)]) for v in range(m)]
        )
    return words


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
    search of the sorted numbers gives its rank.

    Raises ValueError, before enumerating any word, when the build would
    not fit in memory. It holds about 56 bytes per stored entry (the
    column lists, their stacked and transposed copies, the row and value
    arrays, and scipy's COO and CSR copies) and 16 n bytes per state (the
    words while they are stacked, then the words and their place values).
    """
    import scipy.sparse as sp  # only this explicit route needs scipy

    n = G.n
    size = math.factorial(n)
    edges = [(i, j, w) for (i, j), w in sorted(G.weights.items()) if w != 0]
    _require_bytes(
        size * (56 * (len(edges) + 1) + 16 * n),
        f"the {n}! states of the interchange Laplacian of a {n}-vertex graph "
        f"with {len(edges)} edges",
    )
    total = sum(G.weights.values())
    words = _lex_words(n)
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = words @ place  # ascending
    letter_place = np.empty_like(words)  # [r, v]: place value of the letter v in word r
    letter_place[np.arange(size)[:, None], words] = place
    cols = [np.arange(size)] if total else []
    vals = [total] if total else []
    for i, j, w in edges:
        moved = codes + (j - i) * (letter_place[:, i - 1] - letter_place[:, j - 1])
        cols.append(np.searchsorted(codes, moved))
        vals.append(-w)
    cols = np.array(cols, dtype=np.int64).reshape(-1, size).T  # row r: its entries' columns
    rows = np.repeat(np.arange(size), len(vals))
    data = np.tile(np.array(vals, dtype=float), size)
    return sp.coo_matrix((data, (rows, cols.ravel())), shape=(size, size)).tocsr()


def gap_interchange(G: WeightedGraph) -> float:
    """Second-smallest eigenvalue of the explicit interchange Laplacian.

    Zero exactly when the chain is reducible (the zero eigenvalue then
    has multiplicity above one). Raises ValueError when the n!-state
    matrix would not fit in memory.
    """
    if G.n < 2:
        raise ValueError("need at least 2 vertices")
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
