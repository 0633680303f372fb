"""The n!-state interchange process and its spectrum.

States are permutations ranked lexicographically; the process jumps from
sigma to (i j) sigma at the rate of edge (i, j). Two routes to its
spectrum are kept deliberately independent: the explicit n!-state
chain, and the per-shape decomposition where each partition block
appears with multiplicity equal to its dimension. The walk of a single
label embeds as the two-row-shape block, which is what the gap
comparison (`aldous_check`) exploits: the conjecture holds for a graph
exactly when no other shape's smallest eigenvalue undercuts it.

The explicit route builds one matrix, the rates B_k of the process
whose labels at the last k places are identical (`_coset_block`). Its
states are the n!/k! cosets of words that share their first n - k
letters, and it is built straight into its CSR arrays from coset maps,
with no code shared with `yor`: each letter swap maps cosets to
cosets, an adjacent swap (a a+1) shifts a coset by a factorial over k!
read off the first position of a or a+1, and the map of (a b) is that
of (a b-1) conjugated by the adjacent swap (b-1 b), two gathers per
step. Every row holds one entry per edge, so each edge's map fills one
column of the index table. B_k equals its transpose, and with W the
total rate the double [[W I, -B_k], [-B_k, W I]] has the eigenvalues
W -+ beta over the eigenvalues beta of B_k.

At k = 2 that double is the interchange Laplacian L itself. Every
transposition flips the parity of a word, so the chain is bipartite:
A = W I - L only links the n!/2 even words to the n!/2 odd ones, the
words of ranks 2m and 2m + 1 are one of each, and with the even words
first L = [[W I, -B_2], [-B_2, W I]]. `interchange_spectrum` therefore
takes the whole n!-point spectrum, {W - beta} and {W + beta} over the
eigenvalues beta of B_2, from one dense solve of the n!/2-row block,
up to `spectral.DENSE_LIMIT` states (n <= 7). `aldous decompose`
compares every eigenvalue with the per-shape blocks, and on the
star-minus-clique weights (`conjecture.comparison_weights`) twice the
smallest one is the smallest eigenvalue of the Dirichlet form that
`check_conjecture` decides shape by shape. On wheel 7, `aldous
decompose` takes 1.3-1.5 s at 150 MB peak RSS, against 7.5-10.9 s at
442 MB when it solved all 5040 states densely (2-vCPU x86 host, two
OpenBLAS threads).

`gap_interchange` needs only the gap, and a larger k keeps it. W I - B_k
is the Laplacian of the process with k identical labels, on the
permutation module of the Young subgroup S_k x S_1^(n-k), which holds
the shape lam exactly when lam_1 >= k (Young's rule: the Kostka number
K_(lam, (k, 1^(n-k))) is positive exactly then; James and Kerber, 1981).
W + beta is 2W less an eigenvalue of W I - B_k, and 2W I - L^lam is
L^lam' up to a signed permutation, so the double holds exactly the
spectra L^lam of the shapes with lam_1 >= k or at least k rows. A shape
with neither fits in a (k-1) x (k-1) box, which n > (k-1)^2 boxes do
not, so with k = 1 + isqrt(n - 1) (3 for n = 5-9, 4 for n = 10-16)
every nontrivial shape is there, the trivial eigenvalue W of B_k
occurs once, and the gap of the double is the gap of L, on k!/2 times
fewer rows than B_2. L (2W I - L) = W^2 I - A^2 with A^2 = B B^T (+) B^T B
for the double's B = B_k, so the gap is W - sigma_2(B), which
`spectral.bipartite_laplacian_gap` finds from the smallest nontrivial
eigenvalue of W^2 I - B B^T on the cosets. Lanczos needs as many
matrix-vector products there as on the even words (11-56 at n = 8 on
paths, wheels, complete and random graphs, at k = 2 and 3 alike), and
each product touches every stored rate once, k!/2 times fewer of them.
On a 2-vCPU x86 host with two OpenBLAS threads, each in a fresh
process, `gap_interchange` takes 14-24 ms at n = 8 on paths, wheels,
complete and random graphs (39-70 ms on the n!/2 even words),
0.21-0.27 s at 96 MB peak RSS on K_9 (0.71-0.88 s at 164 MB), and
0.86-0.89 s at 163 MB on K_10 (13.1 s at 1.26 GB). Up to
`spectral.DENSE_CROSSOVER` states (n <= 5), and up to
`spectral.DENSE_LIMIT` states when that solve raises NoConvergence
(ARPACK stopped, or its pair failed the residual check), the gap is
read off `interchange_spectrum`, the one dense solve of B_2. When the
positive rates of a graph without negative ones do not connect its
vertices, the chain is reducible and the gap is 0.0, without a solve.

There is no fixed cap on n. Before it builds anything, each explicit
function passes one estimate to `yor._require_bytes`: the larger of
what the block's builder maps at its peak (`_block_footprint`) and the
block beside what its solve holds, counted array by array (the dense
block and what `eigvalsh` maps for `interchange_spectrum`,
`spectral.iterative_solve_bytes` for `gap_interchange`), so a graph
whose solve would not fit is refused with ValueError before anything
is allocated; the fallback of `gap_interchange` frees its block and
then makes the estimate of `interchange_spectrum`. The states are
counted by `yor._states`, which stops at 200!, and the cosets from it
(`_cosets`). The per-shape route
(`spectrum_via_irreps`, `aldous_check`) makes one `yor.shape_spectra`
pass, which refuses the same way a graph whose blocks would not fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graphs import WeightedGraph, is_connected, rw_laplacian
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


def _cosets(n: int, k: int) -> int:
    """n!/k!, the rows of `_coset_block(G, k)` for an n-vertex graph,
    counted like `yor._states`: past n = 200 as 200!, which already
    prints as inf GiB."""
    return _states(n) // math.factorial(k) if n <= 200 else _states(n)


def _block_footprint(G: WeightedGraph, k: int) -> tuple[int, int]:
    """Bytes `_coset_block(G, k)` maps at its peak, and bytes it still
    maps when it returns.

    With E edges and h = n!/k! rows, it returns E columns (int32 below
    2^31 entries, else int64) and E float64 values per row and the row
    pointers, beside two freed h-long int64 temporaries the allocator
    may keep mapped. Before that it holds, per row: while the positions
    are filled, the (h x n) int8 word table (`_lex_words`, which holds
    less while it builds it), the (n x h) int8 position table and two
    8-byte indices; while the coset maps of the adjacent swaps are made,
    the position table, the maps and the ranks (int32 or int64 like the
    columns), one more such array of slack and 10 bytes of temporaries
    (`tracemalloc` saw 56 bytes per row at n = 9 with eight maps and
    int32, against 59 here); while the chains are
    composed, those maps, the column table, two chain arrays and the
    8-byte index that each gather makes. Both counts add 64 KiB for the
    small objects around the arrays.
    """
    n, rows = G.n, _cosets(G.n, k)
    edges = sum(1 for w in G.weights.values() if w != 0)
    index = 4 if rows * edges < 2**31 else 8
    swaps = len(_adjacent_swaps(_chain_ends(G)))
    places = rows * (2 * n + 16)
    maps = rows * (n + 10 + index * (swaps + 2))
    chains = rows * (8 + index * (swaps + edges + 2))
    held = rows * (edges * (index + 8) + index + 16) + index
    return max(places, maps, chains, held) + 2**16, held + 2**16


def _lex_words(n: int, k: int = 1) -> np.ndarray:
    """The words of the letters 0..n-1 whose last k letters ascend, as
    rows of an int8 table in lexicographic order: the n!/k! words of
    ranks 0, k!, 2 k!, ... among all n!, which
    `itertools.permutations(range(n))` gives for k = 1.

    The table is built level by level from the one word 0..k-1: the
    words of length m that begin with f are f followed by the words of
    length m - 1 with every letter >= f raised by one, which keeps their
    order and leaves their last k letters ascending.
    """
    words = np.arange(k, dtype=np.int8)[None, :]
    for m in range(k + 1, n + 1):
        shorter, words = words, np.empty((len(words) * m, m), dtype=np.int8)
        block = len(shorter)
        for f in range(m):
            rows = words[f * block:(f + 1) * block]
            rows[:, 0] = f
            np.add(shorter, shorter >= f, out=rows[:, 1:])
    return words


def _chain_ends(G: WeightedGraph) -> dict[int, int]:
    """For each letter a that is the smaller letter of an edge's swap, the
    largest letter it is swapped with: `_coset_block` composes the
    coset maps of (a a+1), (a a+2), ... up to that letter."""
    ends: dict[int, int] = {}
    for (i, j), w in G.weights.items():
        if w != 0:
            ends[i - 1] = max(ends.get(i - 1, 0), j - 1)
    return ends


def _adjacent_swaps(ends: dict[int, int]) -> list[int]:
    """The letters a whose adjacent swap (a a+1) the chains of `ends` use."""
    return sorted({b for a, top in ends.items() for b in range(a, top)})


def _coset_block(G: WeightedGraph, k: int) -> sp.csr_matrix:
    """The rates B_k of the interchange process whose k labels at the
    last k places are identical, 2 <= k <= n: row m is the coset of the
    k! words of ranks k! m to k! m + k! - 1, which share their first
    n - k letters, and B_k[m, m'] is the total rate of the edges (i, j)
    that take coset m to coset m'. Each row holds one entry per edge
    with a nonzero rate, and the rows sum to the total rate W.

    A swap of letters commutes with every permutation of places, so it
    takes each coset into one coset P(m), and these coset maps compose.
    Row m is filled from its word of rank k! m, whose last k letters
    ascend (`_lex_words`). The adjacent swap (a a+1) exchanges two
    letters that no other letter lies between, so it changes that word's
    rank only at the first position p holding a or a+1, by +(n-1-p)!
    when a comes first and by -(n-1-p)! otherwise, and the new word's
    last k letters still ascend: P(m) = m -+ (n-1-p)!/k! when
    p < n - k. When p >= n - k, both letters lie in the last k places,
    the swap stays in the coset and its rate lands on the diagonal.
    Every other swap is a chain of conjugations,
    (a b) = (b-1 b)(a b-1)(b-1 b), so P_(a b) is P_(a b-1) gathered
    through the adjacent map on either side: two gathers per step of b,
    one chain per smaller letter. Every row holds the same number of
    entries, so the chains fill one column of the CSR index table per
    edge and the row pointers are a multiple of the row number. Off the
    diagonal no entry is duplicated: two swaps that take a word into one
    coset differ by a permutation of its last k places, so all their
    letters lie there and both land on the diagonal. B_k equals its
    transpose, entry for entry: (i j) is its own inverse, so it takes
    coset P(m) back into coset m.

    At k = 2 each coset is one even and one odd word, and B_2 is the
    block of the interchange rates from the even words (rows) to the odd
    words (columns): with its rows and columns ordered even words first,
    the interchange Laplacian is [[W I, -B_2], [-B_2, W I]]. For any k
    that double has the spectrum W -+ beta over the eigenvalues beta of
    B_k; the module docstring says which shapes it holds.
    """
    import scipy.sparse as sp  # only the explicit route needs scipy

    n = G.n
    size = math.factorial(k)
    count = math.factorial(n) // size
    edges = [(i, j, w) for (i, j), w in sorted(G.weights.items()) if w != 0]
    index = np.int32 if count * len(edges) < 2**31 else np.int64
    # placed[v, m] is the position of the letter v in the word of rank k! m,
    # filled one position at a time
    words = _lex_words(n, k)
    placed = np.empty((n, count), dtype=np.int8)
    rows = np.arange(count)
    for p in range(n):
        placed[words[:, p], rows] = p
    del words, rows
    # (n-1-p)!/k!, which is 0 in the last k places
    shifts = np.array([math.factorial(n - 1 - p) // size for p in range(n)], dtype=index)
    ranks = np.arange(count, dtype=index)
    ends = _chain_ends(G)
    adjacent = {}
    for a in _adjacent_swaps(ends):
        step = shifts[np.minimum(placed[a], placed[a + 1])]
        np.negative(step, out=step, where=placed[a] > placed[a + 1])
        step += ranks
        adjacent[a] = step
    del placed, ranks
    table = np.empty((count, len(edges)), dtype=index)  # row m: its entries' columns
    column = {(i - 1, j - 1): c for c, (i, j, _) in enumerate(edges)}
    chain, scratch = np.empty(count, dtype=index), np.empty(count, dtype=index)
    for a, top in ends.items():
        chain[:] = adjacent[a]
        for b in range(a + 1, top + 1):
            if b > a + 1:  # (a b) = (b-1 b)(a b-1)(b-1 b)
                np.take(chain, adjacent[b - 1], out=scratch)
                np.take(adjacent[b - 1], scratch, out=chain)
            if (a, b) in column:
                table[:, column[a, b]] = chain
    del adjacent, chain, scratch
    data = np.tile(np.array([w for _, _, w in edges], dtype=float), count)
    indptr = np.arange(count + 1, dtype=index) * len(edges)
    B = sp.csr_matrix((data, table.reshape(-1), indptr), shape=(count, count))
    B.sort_indices()
    return B


def interchange_spectrum(G: WeightedGraph) -> np.ndarray:
    """The n!-point spectrum of the explicit interchange Laplacian, sorted
    ascending: W - beta and W + beta for the total rate W and each
    eigenvalue beta of the even-to-odd block B_2 (`_coset_block`), found
    by one dense solve of B_2. Signed weights (a `SignedWeightedGraph`) are allowed; the
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
    peak, held = _block_footprint(G, 2)
    # beside the block: its dense copy, eigvalsh's copy of that, LAPACK's
    # work array (dsyevd asks for 2 + 32 float64 per row, 32 being the
    # block size of its tridiagonal reduction) and the work buffer that
    # OpenBLAS maps on its first call
    solve = held + 8 * half * (2 * half + 34) + BLAS_BUFFER_BYTES
    _require_bytes(max(peak, solve), _subject(G) + " and its dense eigensolve")
    beta = np.linalg.eigvalsh(_coset_block(G, 2).toarray())
    total = float(sum(G.weights.values()))
    return np.sort(np.concatenate([total - beta, total + beta]))


def gap_interchange(G: WeightedGraph) -> float:
    """Second-smallest eigenvalue of the explicit interchange Laplacian.

    Exactly 0.0 when the positive rates of a graph without negative ones
    do not connect its vertices (the chain is reducible and the zero
    eigenvalue has multiplicity above one), and for a graph without
    edges, whose Laplacian is the zero matrix. Above DENSE_CROSSOVER
    states it is solved on the cosets of k = 1 + isqrt(n - 1) identical
    labels (`_coset_block`, `spectral.bipartite_laplacian_gap`);
    otherwise, or when that solve raises NoConvergence on at most
    DENSE_LIMIT states, it is read off `interchange_spectrum`. Raises
    ValueError, before building anything, when the block and what its
    solve holds would not fit in memory, and NoConvergence (a
    ValueError) when the iterative solve fails on more than DENSE_LIMIT
    states.
    """
    if G.n < 2:
        raise ValueError("need at least 2 vertices")
    if not any(G.weights.values()):
        return 0.0
    size = _states(G.n)
    k = 1 + math.isqrt(G.n - 1)  # the largest k with (k - 1)^2 < n
    if size > DENSE_CROSSOVER:
        import scipy.sparse.linalg  # noqa: F401  (loaded first: the check counts it as mapped)
        peak, held = _block_footprint(G, k)
        solve = held + iterative_solve_bytes(_cosets(G.n, k))
        _require_bytes(max(peak, solve), _subject(G) + " and its eigensolve")
    if min(G.weights.values()) >= 0 and not is_connected(G):
        return 0.0
    if size > DENSE_CROSSOVER:
        try:
            # the block goes with the exception, before the fallback builds its own
            return bipartite_laplacian_gap(_coset_block(G, k), float(sum(G.weights.values())))
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
