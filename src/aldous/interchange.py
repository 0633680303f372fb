"""The n!-state interchange process and its spectral gap.

States are permutations ranked lexicographically; the process jumps from
sigma to (i j) sigma at the rate of edge (i, j). Two routes to its
spectrum are kept deliberately independent: the explicit sparse n! x n!
Laplacian, and the per-shape decomposition where each partition block
appears with multiplicity equal to its dimension. The walk of a single
label embeds as the two-row-shape block, which is what the gap
comparison (`aldous_check`) exploits: the conjecture holds for a graph
exactly when no other shape's smallest eigenvalue undercuts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as iter_permutations
from typing import TYPE_CHECKING

import numpy as np

from .graphs import WeightedGraph
from .permutations import Permutation
from .spectral import DENSE_LIMIT, DEFAULT_TOL, second_smallest_laplacian_eig
from .tableaux import Partition, f_dim
from .yor import irrep_laplacian, shape_spectra

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "Permutation",
    "interchange_laplacian",
    "gap_interchange",
    "gap_rw",
    "irrep_minima",
    "spectrum_via_irreps",
    "irrep_spectra",
    "AldousReport",
    "aldous_check",
]

DEFAULT_N_CAP = 8


def interchange_laplacian(G: WeightedGraph, n_cap: int = DEFAULT_N_CAP) -> sp.csr_matrix:
    """Sparse n! x n! Laplacian of the interchange process.

    Row and column indices are permutation ranks. Every diagonal entry is
    the total edge rate; the entry between sigma and (i j) sigma is the
    negated rate of (i, j). Row sums vanish. Signed weights (a
    `SignedWeightedGraph`) are allowed; the matrix is PSD when all
    weights are nonnegative.
    """
    import scipy.sparse as sp  # only this explicit route needs scipy

    n = G.n
    if n > n_cap:
        raise ValueError(f"n={n} exceeds the n! construction cap {n_cap}")
    size = math.factorial(n)
    edges = [(i, j, w) for (i, j), w in sorted(G.weights.items()) if w != 0]
    total = sum(w for (i, j), w in G.weights.items())
    words = list(iter_permutations(range(1, n + 1)))  # lexicographic = rank order
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


def gap_interchange(
    G: WeightedGraph, n_cap: int = DEFAULT_N_CAP, dense_limit: int = DENSE_LIMIT
) -> float:
    """Second-smallest eigenvalue of the explicit interchange Laplacian.

    Zero exactly when the chain is reducible (the zero eigenvalue then
    has multiplicity above one).
    """
    if G.n < 2:
        raise ValueError("need at least 2 vertices")
    L = interchange_laplacian(G, n_cap=n_cap)
    return second_smallest_laplacian_eig(L, dense_limit=dense_limit)


def gap_rw(G: WeightedGraph) -> float:
    """Spectral gap of the single-label walk, computed as the smallest
    eigenvalue of the two-row-shape block (n-1, 1)."""
    if G.n < 2:
        raise ValueError("need at least 2 vertices")
    block = irrep_laplacian(Partition((G.n - 1, 1)), G)
    return float(np.linalg.eigvalsh(block)[0])


def irrep_spectra(G: WeightedGraph) -> list[tuple[Partition, int, np.ndarray]]:
    """(shape, multiplicity, ascending block spectrum) for every shape."""
    return [(lam, len(vals), vals) for lam, vals, _ in shape_spectra(G)]


def spectrum_via_irreps(G: WeightedGraph) -> np.ndarray:
    """The full n!-point spectrum assembled from the per-shape blocks,
    each repeated as many times as its dimension. Sorted ascending."""
    parts = [np.tile(vals, mult) for _, mult, vals in irrep_spectra(G)]
    return np.sort(np.concatenate(parts))


def irrep_minima(G: WeightedGraph) -> dict[Partition, float]:
    """Smallest block eigenvalue per shape, excluding the trivial one."""
    if G.n < 2:
        raise ValueError("need at least 2 vertices")
    return {lam: float(vals[0]) for lam, vals, _ in shape_spectra(G) if lam.parts != (G.n,)}


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
    disconnected graph passes with both gaps zero.
    """
    minima = irrep_minima(G)
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
        minima={lam: v for lam, v in minima.items()},
        tied_partitions=tied,
    )
