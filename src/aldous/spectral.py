"""Symmetric eigenvalue utilities: spectra, PSD tests, interlacing.

All tolerances are relative to 1 + the matrix (or value) max-norm.
Multiplicities are only ever handled through sorted multisets; no
operation here matches eigenvectors.

`bipartite_laplacian_gap` finds the gap of a Laplacian whose moves all
cross between two halves of its states, as the interchange process's
do. It solves densely up to DENSE_CROSSOVER rows and above that runs
ARPACK on the first half only, on W^2 I - B B^T with its all-ones
kernel direction shifted away. The crossover was measured on a 2-vCPU
x86 host with two OpenBLAS threads, as medians of alternating calls
(blocks of random weighted permutations stand in between the
interchange sizes):

    rows                      dense      iterative
    120 (interchange, n = 5)  0.8-3.6 ms 1.5 ms
    200 (random block)        2.2 ms     2.8 ms
    300 (random block)        6.0 ms     4.6 ms
    400 (random block)        10.8 ms    4.3 ms
    720 (interchange, n = 6)  35 ms      3.0 ms
    5040 (interchange, n = 7) 6.8-7.0 s  6.0 ms

Dense solves of 100-240 rows also ran at 13-40 ms for seconds at a
time on that host; with one thread the 120-row solve takes 0.8 ms.
DENSE_LIMIT (6000, so up to n = 7 for the n!-state matrix) is a
different bound: the most states whose full spectrum
`interchange.interchange_spectrum` computes, from one dense solve of
their n!/2-row even-to-odd block (for the direct check of `aldous
decompose` and the Dirichlet-form oracle of the tests), and the
largest matrix that an iterative solve failing its residual check
falls back to solving densely.
"""

from __future__ import annotations

import math

import numpy as np

DENSE_LIMIT = 6000
DENSE_CROSSOVER = 300
DEFAULT_TOL = 1e-9
SOLVER_TOL = 1e-10  # ARPACK tolerance and residual bound of the iterative gap solve


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


def _dense_gap(B, total: float) -> float:
    """Second-smallest eigenvalue of [[total I, -B], [-B^T, total I]],
    assembled and solved densely."""
    half = B.shape[0]
    L = np.zeros((2 * half, 2 * half))
    L[:half, half:] = -B.toarray()
    L[half:, :half] = L[:half, half:].T
    np.fill_diagonal(L, total)
    return float(np.linalg.eigvalsh(L)[1])


def iterative_solve_bytes(rows: int) -> int:
    """Memory the iterative solve of `bipartite_laplacian_gap` maps beside
    its block of `rows` rows.

    Per row, 47 float64 values are live at its peak: ARPACK's 20 Lanczos
    vectors, the 20 Ritz vectors it extracts them into, its three work
    vectors, and a few vectors of the operator and the residual check
    (`tracemalloc` measured 368-373 bytes per row at 2520-181440 rows);
    three more cover freed vectors that the allocator keeps mapped. The
    32 MiB are the work buffer that the OpenBLAS behind ARPACK maps on
    its first matrix-vector product of more than a few hundred rows and
    keeps for the life of the process. A dense solve (at most
    DENSE_CROSSOVER rows) needs well under 1 MB.
    """
    return 50 * 8 * rows + 2**25


def bipartite_laplacian_gap(B, total: float, dense_limit: int = DENSE_CROSSOVER) -> float:
    """Second-smallest eigenvalue mu of L = [[W I, -B], [-B^T, W I]] for a
    square sparse B >= 0 whose rows and columns all sum to W = `total`:
    the Laplacian of a chain whose moves all cross between two halves
    of its states, as every transposition flips the parity of a word.

    L has the eigenvalues W -+ sigma for the singular values sigma of B,
    so mu = W - sigma_2 (for at least two rows each side). L is solved
    densely up to `dense_limit` rows; above that, ARPACK finds the
    smallest eigenvalue m of W^2 I - B B^T on the first half, with its
    all-ones kernel direction shifted up out of the way, and
    mu = m / (W + sqrt(W^2 - m)) = W - sqrt(W^2 - m). This holds because
    L (2W I - L) = W^2 I - A^2 for A = W I - L, and A^2 is
    B B^T (+) B^T B. The map mu -> mu (2W - mu) folds the spectrum of L
    about W and stretches its low end, so the gap is about four times as
    large against the width of the spectrum, and Lanczos converges in
    fewer steps than on L, with vectors half as long.

    The solve starts from a fixed vector, so repeated calls give the
    same bits. Its eigenvector v is lifted to L as (v, B^T v / (W - mu)),
    and mu is accepted only when that pair's residual ||Lx - mu x|| / ||x||,
    which bounds the distance from mu to the spectrum of L, is at most
    SOLVER_TOL * (1 + |W|). Otherwise, or when ARPACK does not converge,
    an L of at most DENSE_LIMIT rows is solved densely and a larger one
    raises ValueError.
    """
    import scipy.sparse.linalg as spla  # deferred: the per-shape route never needs scipy

    half = B.shape[0]
    dim = 2 * half
    if dim < 2:
        raise ValueError("need dimension >= 2")
    if dim <= dense_limit:
        return _dense_gap(B, total)
    square = total * total
    shift = 1.0 + 2.0 * square  # exceeds the largest eigenvalue, at most W^2
    BT = B.T

    def matvec(x):
        return square * x - B @ (BT @ x) + shift * x.mean() * np.ones(half)

    op = spla.LinearOperator((half, half), matvec=matvec, dtype=float)
    # any fixed start but the all-ones vector, an eigenvector of op whose
    # Krylov space is one-dimensional
    v0 = np.random.default_rng(0).standard_normal(half)
    try:
        vals, vecs = spla.eigsh(op, k=1, which="SA", tol=SOLVER_TOL, maxiter=20000, v0=v0)
    except spla.ArpackNoConvergence as exc:
        vals, vecs = exc.eigenvalues, exc.eigenvectors
    residual = math.inf
    if len(vals) and vals[0] < square:
        root = math.sqrt(square - vals[0])  # sigma_2 = W - mu
        mu = float(vals[0]) / (total + root)
        v = vecs[:, 0]
        u = (BT @ v) / root
        even = total * v - B @ u - mu * v
        odd = root * u - BT @ v
        residual = math.sqrt((even @ even + odd @ odd) / (v @ v + u @ u))
    if residual <= SOLVER_TOL * (1.0 + abs(total)):
        return mu
    if dim <= DENSE_LIMIT:
        return _dense_gap(B, total)
    raise ValueError(
        f"iterative eigensolve of dimension {dim} did not converge: residual {residual:.3g}"
    )
