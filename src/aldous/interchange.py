"""The n!-state interchange process and its spectrum.

States are permutations ranked lexicographically; the process jumps from
sigma to (i j) sigma at the rate of edge (i, j). Two routes to its
spectrum are kept deliberately independent: the explicit n!-state
chain, and the per-shape decomposition where each partition block
appears with multiplicity equal to its dimension. The walk of a single
label embeds as the two-row-shape block, which is what the gap
comparison (`aldous_check`) exploits: the conjecture holds for a graph
exactly when no other shape's smallest eigenvalue undercuts it.

The explicit route builds one matrix. Every transposition flips the
parity of a word, so the chain is bipartite: with W the total rate and
A = W I - L the rate matrix, A only links the n!/2 even words to the
n!/2 odd ones, through one block B (`_even_odd_block`), and with the
even words first the Laplacian is L = [[W I, -B], [-B^T, W I]]. B is
built straight into its CSR arrays from pair maps: the words of ranks
2k and 2k + 1 form pair k, each letter swap maps pairs to pairs, an
adjacent swap (a a+1) shifts k by half a factorial read off the first
position of a or a+1, and the map of (a b) is that of (a b-1)
conjugated by the adjacent swap (b-1 b), two gathers per step. Every
row holds one entry per edge, so each edge's map fills one column of
the index table. B equals its transpose.

`interchange_spectrum` therefore takes the whole n!-point spectrum,
{W - beta} and {W + beta} over the eigenvalues beta of B, from one
dense solve of the n!/2-row block, up to `spectral.DENSE_LIMIT` states
(n <= 7). `aldous decompose` compares every eigenvalue with the
per-shape blocks, and on the star-minus-clique weights
(`conjecture.comparison_weights`) twice the smallest one is the
smallest eigenvalue of the Dirichlet form that `check_conjecture`
decides shape by shape. On wheel 7, `aldous decompose` takes 1.3-1.5 s
at 150 MB peak RSS, against 7.5-10.9 s at 442 MB when it solved all
5040 states densely (2-vCPU x86 host, two OpenBLAS threads).

`gap_interchange` needs only the gap. L (2W I - L) = W^2 I - A^2
with A^2 = B B^T (+) B^T B, so the gap is W - sigma_2(B), which
`spectral.bipartite_laplacian_gap` finds from the smallest nontrivial
eigenvalue of W^2 I - B B^T on the even words. Against a solve of L
on all n! states, Lanczos needs 21-51 matrix-vector products at n = 8
instead of 21-101, on vectors half as long, and each product still
touches every stored rate once. On a 2-vCPU x86 host with two OpenBLAS
threads, each in a fresh process, `gap_interchange` takes 39-81 ms at
n = 8 on paths, wheels, complete and random graphs (58-115 ms when B
was ranked by binary search and ARPACK kept 20 vectors), 0.71-1.31 s
at 164 MB peak RSS on K_9 (1.0-1.3 s at 179 MB), and 13.1 s at 1.26 GB
on K_10 (15.2 s at 1.41 GB). Up to
`spectral.DENSE_CROSSOVER` states (n <= 5), and up to
`spectral.DENSE_LIMIT` states when that solve raises NoConvergence
(ARPACK stopped, or its pair failed the residual check), the gap is
read off `interchange_spectrum`, the one dense solve of B.

There is no fixed cap on n. Before it builds anything, each explicit
function passes one estimate to `yor._require_bytes`: the larger of
what the block's builder maps at its peak (`_block_footprint`) and the
block beside what its solve holds, counted array by array (the dense
block and what `eigvalsh` maps for `interchange_spectrum`,
`spectral.iterative_solve_bytes` for `gap_interchange`), so a graph
whose solve would not fit is refused with ValueError before anything
is allocated; the fallback of `gap_interchange` frees its block and
then makes the estimate of `interchange_spectrum`. The states are
counted by `yor._states`, which stops at 200!. The per-shape route
(`spectrum_via_irreps`, `aldous_check`) makes one `yor.shape_spectra`
pass, which refuses the same way a graph whose blocks would not fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graphs import WeightedGraph, rw_laplacian
from .spectral import BLAS_BUFFER_BYTES, DEFAULT_TOL, DENSE_CROSSOVER, DENSE_LIMIT, NoConvergence
from .spectral import bipartite_laplacian_gap, iterative_solve_bytes
from .tableaux import Partition, f_dim
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


def _subject(G: WeightedGraph) -> str:
    """What the explicit route builds, for its refusal messages."""
    edges = sum(1 for w in G.weights.values() if w != 0)
    return f"the {G.n}! states of the interchange Laplacian of a {G.n}-vertex graph with {edges} edges"


def _block_footprint(G: WeightedGraph) -> tuple[int, int]:
    """Bytes `_even_odd_block(G)` maps at its peak, and bytes it still
    maps when it returns.

    With E edges and h = n!/2 rows, it returns E columns (int32 below
    2^31 entries, else int64) and E float64 values per row and the row
    pointers, beside two freed h-long int64 temporaries the allocator
    may keep mapped. Before that it holds, per row: while the positions
    are filled, the (n! x n) int8 word table (`_lex_words`, which holds
    less while it builds it), the (n x h) int8 position table and two
    8-byte indices; while the pair maps of the adjacent swaps are made,
    the position table, the maps and the ranks (int32 or int64 like the
    columns), one more such array of slack and 10 bytes of temporaries
    (`tracemalloc` saw 56 bytes per row at n = 9 with eight maps and
    int32, against 59 here); while the chains are
    composed, those maps, the column table, two chain arrays and the
    8-byte index that each gather makes. Both counts add 64 KiB for the
    small objects around the arrays.
    """
    n, size = G.n, _states(G.n)
    edges, half = sum(1 for w in G.weights.values() if w != 0), size // 2
    index = 4 if half * edges < 2**31 else 8
    swaps = len(_adjacent_swaps(_chain_ends(G)))
    places = half * (3 * n + 16)
    maps = half * (n + 10 + index * (swaps + 2))
    chains = half * (8 + index * (swaps + edges + 2))
    held = half * (edges * (index + 8) + index + 16) + index
    return max(places, maps, chains, held) + 2**16, held + 2**16


def _lex_words(n: int) -> np.ndarray:
    """The n! words of the letters 0..n-1 as rows of an int8 table, in
    lexicographic order, as `itertools.permutations(range(n))` gives them.

    The table is built level by level: the words of length m that begin
    with f are f followed by the words of length m - 1 with every letter
    >= f raised by one, which keeps their order.
    """
    words = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, n + 1):
        shorter, words = words, np.empty((math.factorial(m), m), dtype=np.int8)
        block = len(shorter)
        for f in range(m):
            rows = words[f * block:(f + 1) * block]
            rows[:, 0] = f
            np.add(shorter, shorter >= f, out=rows[:, 1:])
    return words


def _chain_ends(G: WeightedGraph) -> dict[int, int]:
    """For each letter a that is the smaller letter of an edge's swap, the
    largest letter it is swapped with: `_even_odd_block` composes the
    pair maps of (a a+1), (a a+2), ... up to that letter."""
    ends: dict[int, int] = {}
    for (i, j), w in G.weights.items():
        if w != 0:
            ends[i - 1] = max(ends.get(i - 1, 0), j - 1)
    return ends


def _adjacent_swaps(ends: dict[int, int]) -> list[int]:
    """The letters a whose adjacent swap (a a+1) the chains of `ends` use."""
    return sorted({b for a, top in ends.items() for b in range(a, top)})


def _even_odd_block(G: WeightedGraph) -> sp.csr_matrix:
    """The block B of the interchange rates from the even words (rows) to
    the odd words (columns), both in rank order: B[e, o] is the rate of
    (i, j) when o = (i j) e. Each row holds one entry per edge with a
    nonzero rate, and the interchange Laplacian, with its rows and
    columns ordered even words first, is [[W I, -B], [-B^T, W I]] for
    the total rate W.

    The words of ranks 2k and 2k + 1 differ by a swap of their last two
    places, so one of them is even and the other odd, and k is the rank
    of each among the words of its parity. A swap of letters commutes
    with that swap of places, so it takes both words of pair k into one
    pair P(k), and these pair maps compose. Row k is filled from the
    word of rank 2k, whatever its parity.

    The adjacent swap (a a+1) exchanges two letters that no other letter
    lies between, so it changes the word's rank only at the first
    position p holding a or a+1, by +(n-1-p)! when a comes first and by
    -(n-1-p)! otherwise: P(k) = k -+ (n-1-p)!/2, which is k itself when
    p = n - 2. Every other swap is a chain of conjugations,
    (a b) = (b-1 b)(a b-1)(b-1 b), so P_(a b) is P_(a b-1) gathered
    through the adjacent map on either side: two gathers per step of b,
    one chain per smaller letter. Every row holds the same number of
    entries, so the chains fill one column of the CSR index table per
    edge and the row pointers are a multiple of the row number; no entry
    is ever duplicated.

    B equals its transpose, entry for entry: (i j) is its own inverse,
    so it takes pair P(k) back into pair k.
    """
    import scipy.sparse as sp  # only the explicit route needs scipy

    n = G.n
    half = math.factorial(n) // 2
    edges = [(i, j, w) for (i, j), w in sorted(G.weights.items()) if w != 0]
    index = np.int32 if half * len(edges) < 2**31 else np.int64
    # placed[v, k] is the position of the letter v in the word of rank 2k,
    # filled one position at a time
    words = _lex_words(n)
    placed = np.empty((n, half), dtype=np.int8)
    rows = np.arange(half)
    for p in range(n):
        placed[words[::2, p], rows] = p
    del words, rows
    shifts = np.array([math.factorial(n - 1 - p) // 2 for p in range(n)], dtype=index)
    ranks = np.arange(half, dtype=index)
    ends = _chain_ends(G)
    adjacent = {}
    for a in _adjacent_swaps(ends):
        step = shifts[np.minimum(placed[a], placed[a + 1])]
        np.negative(step, out=step, where=placed[a] > placed[a + 1])
        step += ranks
        adjacent[a] = step
    del placed, ranks
    table = np.empty((half, len(edges)), dtype=index)  # row k: its entries' columns
    column = {(i - 1, j - 1): c for c, (i, j, _) in enumerate(edges)}
    chain, scratch = np.empty(half, dtype=index), np.empty(half, dtype=index)
    for a, top in ends.items():
        chain[:] = adjacent[a]
        for b in range(a + 1, top + 1):
            if b > a + 1:  # (a b) = (b-1 b)(a b-1)(b-1 b)
                np.take(chain, adjacent[b - 1], out=scratch)
                np.take(adjacent[b - 1], scratch, out=chain)
            if (a, b) in column:
                table[:, column[a, b]] = chain
    del adjacent, chain, scratch
    data = np.tile(np.array([w for _, _, w in edges], dtype=float), half)
    indptr = np.arange(half + 1, dtype=index) * len(edges)
    B = sp.csr_matrix((data, table.reshape(-1), indptr), shape=(half, half))
    B.sort_indices()
    return B


def interchange_spectrum(G: WeightedGraph) -> np.ndarray:
    """The n!-point spectrum of the explicit interchange Laplacian, sorted
    ascending: W - beta and W + beta for the total rate W and each
    eigenvalue beta of the even-to-odd block B, found by one dense solve
    of B. Signed weights (a `SignedWeightedGraph`) are allowed; the
    spectrum is nonnegative when all weights are.

    Raises ValueError when n! exceeds `spectral.DENSE_LIMIT`, and, before
    building anything, when the block, its dense copy and what the dense
    solve maps beside them would not fit in memory.
    """
    size = _states(G.n)
    if size > DENSE_LIMIT:
        raise ValueError(
            f"a dense spectrum is limited to {DENSE_LIMIT} states; "
            f"a {G.n}-vertex graph has {G.n}! states"
        )
    if G.n < 2:
        return np.zeros(1)  # one state, no move
    import scipy.sparse  # noqa: F401  (loaded first: the check counts it as mapped)

    half = size // 2
    peak, held = _block_footprint(G)
    # beside the block: its dense copy, eigvalsh's copy of that, LAPACK's
    # work array (dsyevd asks for 2 + 32 float64 per row, 32 being the
    # block size of its tridiagonal reduction) and the work buffer that
    # OpenBLAS maps on its first call
    solve = held + 8 * half * (2 * half + 34) + BLAS_BUFFER_BYTES
    _require_bytes(max(peak, solve), _subject(G) + " and its dense eigensolve")
    beta = np.linalg.eigvalsh(_even_odd_block(G).toarray())
    total = float(sum(G.weights.values()))
    return np.sort(np.concatenate([total - beta, total + beta]))


def gap_interchange(G: WeightedGraph) -> float:
    """Second-smallest eigenvalue of the explicit interchange Laplacian.

    Zero exactly when the chain is reducible (the zero eigenvalue then
    has multiplicity above one), and exactly 0.0 for a graph without
    edges, whose Laplacian is the zero matrix. Above DENSE_CROSSOVER
    states it is solved on the even half of the words
    (`spectral.bipartite_laplacian_gap`); otherwise, or when that solve
    raises NoConvergence on at most DENSE_LIMIT states, it is read off
    `interchange_spectrum`. Raises ValueError, before building anything,
    when the block and what its solve holds would not fit in memory, and
    NoConvergence (a ValueError) when the iterative solve fails on more
    than DENSE_LIMIT states.
    """
    if G.n < 2:
        raise ValueError("need at least 2 vertices")
    if not any(G.weights.values()):
        return 0.0
    size = _states(G.n)
    if size > DENSE_CROSSOVER:
        import scipy.sparse.linalg  # noqa: F401  (loaded first: the check counts it as mapped)
        peak, held = _block_footprint(G)
        solve = held + iterative_solve_bytes(size // 2)
        _require_bytes(max(peak, solve), _subject(G) + " and its eigensolve")
        try:
            # the block goes with the exception, before the fallback builds its own
            return bipartite_laplacian_gap(_even_odd_block(G), float(sum(G.weights.values())))
        except NoConvergence:
            if size > DENSE_LIMIT:
                raise
    return float(interchange_spectrum(G)[1])


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
