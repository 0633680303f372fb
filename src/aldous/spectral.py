"""Symmetric eigenvalue utilities: spectra, PSD tests, interlacing.

All tolerances are relative to 1 + the matrix (or value) max-norm.
Multiplicities are only ever handled through sorted multisets; no
operation here matches eigenvectors.

`bipartite_laplacian_gap` finds the gap of a Laplacian whose moves all
cross between two halves of its states, as the interchange process's
do, by running ARPACK on one half only, on W^2 I - B^2 for the
symmetric block B between the halves, with its all-ones kernel
direction shifted away; `interchange.gap_interchange`
hands it the block of the smallest Young module that holds every shape
or its conjugate, which keeps the gap, at every n. A dense `eigvalsh`
of that block is quicker only up to its 60 rows at n = 6 (2-vCPU x86
host, two OpenBLAS threads, median per call on random graphs: 0.28-1.01
ms against 0.78-2.51 ms here at n = 3-6, but 15.9 against 4.3 ms at
n = 7 and 124 against 6.7 ms at n = 8, the sizes the explicit oracle is
timed at), so it is only a fallback. DENSE_LIMIT (6000) bounds the
states of a dense solve: the n! of `interchange_spectrum` (n <= 7),
behind the direct check of `aldous decompose` and the Dirichlet-form
oracle of the tests, and twice the module rows of the fallback of
`gap_interchange` (n <= 8).

ARPACK keeps at most KRYLOV_VECTORS Lanczos vectors: it
reorthogonalises each new vector against all of them, and each
implicit restart rewrites the whole basis (Lehoucq, Sorensen and Yang,
*ARPACK Users' Guide*, SIAM 1998). Past a few vectors, a larger basis
costs more in those sweeps than it saves in matrix-vector products.
On the same host, as the range over a path, a wheel, a complete and a
random graph of the median solve on the block of three identical
labels, the module of the hook (3, 1^(n-3)) that `gap_interchange`
solved before it searched for a smaller one (840, 6720 and 60480 rows;
15, 9 and 3 solves per graph at n = 7, 8 and 9, the basis sizes
alternating in one process):

    vectors  n = 7        n = 8      n = 9
    4        1.41-4.33 ms 16-41 ms   297-429 ms
    6        1.03-3.27 ms 11-21 ms   207-323 ms
    8        0.82-2.62 ms 10-21 ms   165-252 ms
    10       0.91-2.51 ms 7.1-19 ms  157-220 ms
    12       1.07-2.42 ms 8.1-21 ms  183-213 ms
    16       1.33-2.45 ms 12-20 ms   153-202 ms
    20       1.58-2.49 ms 12-20 ms   174-227 ms

20 is scipy's default. Ten vectors are within the spread of the
quickest at n = 7, 8 and 9, where they were also on the n!/2 even
words; every basis gave the same gap to 1.6e-14. ARPACK's basis
cannot exceed its rows, so tiny blocks use them all.

numpy and scipy each load their own OpenBLAS (numpy.libs and
scipy.libs), and each runs its own pool of threads. After a threaded
call, a worker of that pool spins for about 0.13 s: in the 0.5 s after
`eigsh` or after a 240-row `eigvalsh`, the process burns 124-129 ms of
CPU while its main thread sleeps. On two CPUs, a threaded call into
the other library then waits for a CPU. A 240-row `eigvalsh` took
2.4-3.3 ms (median) alone, and 4.1-6.5 ms (median; mean 7.3-14.7 ms,
up to 0.13 s) alternating with ARPACK in one process; with one thread,
3.3 ms alternating. A numpy dot of two 20160-long vectors (n = 8)
right after `eigsh` took 6.8 ms (median, up to 16 ms), against 0.03 ms
with one thread and 0.07 ms as a sum of squares. So
`bipartite_laplacian_gap` makes no numpy BLAS call after `eigsh`; only
the dense fallback of `gap_interchange`, which runs `eigvalsh` right
after a failed ARPACK, pays the wait. Two threads
wait too whenever anything else holds the second CPU: 100-row solves in
processes that never ran ARPACK took 10-16 ms through one run out of
eight, and never above 1.1 ms with one thread.
"""

from __future__ import annotations

import math

import numpy as np

DENSE_LIMIT = 6000
DEFAULT_TOL = 1e-9
SOLVER_TOL = 1e-10  # ARPACK tolerance and residual bound of the iterative gap solve
KRYLOV_VECTORS = 10  # ARPACK's Lanczos basis in the iterative gap solve (module docstring)
# Address space that an OpenBLAS maps for its work buffer on its first
# large call and keeps for the life of the process: numpy's on its first
# `eigvalsh` (32.0 MiB on a 20- to 1000-row matrix, with one, two and
# four threads), scipy's on ARPACK's first matrix-vector product of more
# than a few hundred rows. `aldous gap` on `--seed 3` wheel 10 needed
# 45.3-46.2 MiB beside what was mapped at its check (two threads), where
# the blocks were estimated at 14.5 MiB; without this term it passed its
# check and died in the solve.
BLAS_BUFFER_BYTES = 2**25


def _require_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = 1.0 + (np.abs(M).max() if M.size else 0.0)
    if np.abs(M - M.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return M


def is_psd(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    M = _require_symmetric(M)
    scale = 1.0 + (np.abs(M).max() if M.size else 0.0)
    return bool(np.linalg.eigvalsh(M).min() >= -tol * scale)


def interlace_check(a, b, tol: float = DEFAULT_TOL) -> bool:
    """a_1 <= b_1 <= a_2 <= ... <= a_n <= b_n, with a the collapsed spectrum.

    Both inputs must have equal length and be ascending.
    """
    va, vb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if va.shape != vb.shape:
        raise ValueError("spectra must have equal length")
    eps = tol * (1.0 + max(np.abs(va).max(), np.abs(vb).max(), 0.0))
    if np.any(va > vb + eps):
        return False
    return not np.any(vb[:-1] > va[1:] + eps)


def multiset_equal(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Sorted pairwise comparison with relative tolerance."""
    va, vb = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    if va.shape != vb.shape:
        return False
    if va.size == 0:
        return True
    eps = tol * (1.0 + max(np.abs(va).max(), np.abs(vb).max()))
    return bool(np.abs(va - vb).max() <= eps)


def shift_bound_check(G, tol: float = DEFAULT_TOL) -> bool:
    """Each eigenvalue moves up by at most 2*sum_{i<=j} a_in a_jn / s
    going from the collapsed graph back to the original (s = total rate
    into the last vertex)."""
    from .graphs import collapse_last_vertex, rw_laplacian

    n = G.n
    rates = [G.weight(i, n) for i in range(1, n)]
    s = sum(rates)
    if s <= 0:
        raise ValueError("total rate into the last vertex must be positive")
    bound = 2.0 * sum(rates[i] * rates[j] for i in range(n - 1) for j in range(i, n - 1)) / s
    before = np.linalg.eigvalsh(rw_laplacian(G))
    after = np.sort(
        np.concatenate([np.linalg.eigvalsh(rw_laplacian(collapse_last_vertex(G, n))), [0.0]])
    )
    eps = tol * (1.0 + max(np.abs(before).max(), bound))
    return bool(np.all(before - after <= bound + eps))


def iterative_solve_bytes(rows: int) -> int:
    """Memory the iterative solve of `bipartite_laplacian_gap` maps beside
    its block of `rows` rows.

    Per row, 2 KRYLOV_VECTORS + 7 float64 values are live at its peak:
    ARPACK's Lanczos vectors, the as many Ritz vectors it extracts them
    into, its three work vectors, and a few vectors of the operator and
    the residual check (`tracemalloc` measured 208-211 bytes per row at
    2520-181440 rows with 10 Lanczos vectors, and 368-373 with 20);
    three more cover freed vectors that the allocator keeps mapped.
    BLAS_BUFFER_BYTES is the work buffer of the OpenBLAS behind ARPACK.
    """
    return (2 * KRYLOV_VECTORS + 10) * 8 * rows + BLAS_BUFFER_BYTES


class NoConvergence(ValueError):
    """An iterative eigensolve that stopped or whose pair failed its residual check."""


def bipartite_laplacian_gap(B, total: float) -> float:
    """Second-smallest eigenvalue mu of L = [[W I, -B], [-B, W I]] for a
    symmetric sparse B >= 0 of at least two rows whose rows all sum to
    W = `total` > 0: the Laplacian of a chain whose moves all cross
    between two halves of its states, as every transposition flips the
    parity of a word. B may hold diagonal entries, as the Young-module
    blocks that `interchange.gap_interchange` passes do wherever a swap
    exchanges two identical labels; those blocks equal their transposes
    entry for entry (`interchange._module_block`).

    L has the eigenvalues W -+ beta for the eigenvalues beta of B, so
    mu = W - sigma_2, sigma_2 being the second-largest |beta|, the second
    singular value of B. ARPACK finds the smallest eigenvalue m of
    W^2 I - B^2 on one half, with its all-ones kernel direction shifted
    up out of the way, and mu = m / (W + sqrt(W^2 - m)) =
    W - sqrt(W^2 - m), because L (2W I - L) = W^2 I - A^2 for
    A = W I - L and A^2 is B^2 (+) B^2. The map mu -> mu (2W - mu) folds
    the spectrum of L about W and stretches its low end, so the gap is
    about four times as large against the width of the spectrum, and
    Lanczos converges in fewer steps than on L, with vectors half as
    long.

    The solve starts from a fixed vector, but on a restart, as on a
    reducible chain, ARPACK asks for a random one, which scipy 1.17
    (`eigsh(rng=None)`) draws from OS entropy: a zero gap's rounding
    noise (about 1e-16) can then differ between processes. The
    eigenvector v is lifted to L as (v, B v / (W - mu)), and mu is
    accepted only when that pair's residual ||Lx - mu x|| / ||x||, which
    bounds the distance from mu to the spectrum of L, is at most
    SOLVER_TOL * (1 + |W|). Anything else, any stop of ARPACK included,
    raises NoConvergence, and the caller chooses what to do instead.
    """
    import scipy.sparse.linalg as spla  # deferred: the per-shape route never needs scipy

    half = B.shape[0]
    if half < 2 or not total > 0:
        raise ValueError("need at least two rows and a positive total rate")
    square = total * total
    # the all-ones direction goes to 1 + W^2, just above every other
    # eigenvalue (all at most W^2); at 1 + 2 W^2 Lanczos saw a spectrum
    # twice as wide and took more products on 47 of 66 random graphs at
    # n = 7-8 (fewer on none)
    shift = 1.0 + square

    def matvec(x):
        # W^2 x - B B x + shift * mean(x), formed in place as the
        # negation of B B x - W^2 x - shift * mean(x): the same bits
        y = B @ (B @ x)
        y -= square * x
        y -= shift * (x.sum() / half)
        return np.negative(y, out=y)

    op = spla.LinearOperator((half, half), matvec=matvec, dtype=float)
    # any fixed start but the all-ones vector, an eigenvector of op whose
    # Krylov space is one-dimensional
    v0 = np.random.default_rng(0).standard_normal(half)
    try:
        vals, vecs = spla.eigsh(
            op, k=1, which="SA", tol=SOLVER_TOL, maxiter=20000, v0=v0, ncv=min(KRYLOV_VECTORS, half)
        )
    except spla.ArpackError:  # ArpackNoConvergence among them: with k = 1 it holds no pair
        residual = math.inf
    else:
        root = math.sqrt(max(square - vals[0], 0.0))  # sigma_2 = W - mu
        mu = float(vals[0]) / (total + root)
        v = vecs[:, 0]
        Bv = B @ v
        # sigma_2 = 0 (B of rank one) puts v in the kernel of B
        u = Bv / root if root > 0 else np.zeros(half)
        even = total * v - B @ u - mu * v
        odd = root * u - Bv
        # sums of squares, not `@`: numpy's BLAS dot would wait for the CPUs
        # that scipy's OpenBLAS threads spin on after eigsh (module docstring)
        lifted = np.square(even).sum() + np.square(odd).sum()
        residual = math.sqrt(lifted / (np.square(v).sum() + np.square(u).sum()))
    if residual <= SOLVER_TOL * (1.0 + abs(total)):
        return mu
    raise NoConvergence(
        f"iterative eigensolve of dimension {2 * half} did not converge: residual {residual:.3g}"
    )
