"""Symmetric eigenvalue utilities: spectra, PSD tests, interlacing.

All tolerances are relative to 1 + the matrix (or value) max-norm.
Multiplicities are only ever handled through sorted multisets; no
operation here matches eigenvectors.

`second_smallest_laplacian_eig` solves densely up to DENSE_CROSSOVER
rows and iteratively (ARPACK on the kernel-deflated operator) above.
The crossover was measured on a 2-vCPU x86 host with two OpenBLAS
threads, as medians of alternating calls:

    rows                      dense      iterative
    120 (interchange, n = 5)  0.8 ms     1.8 ms
    200 (sparse Laplacian)    2.4 ms     5.6 ms
    300 (sparse Laplacian)    5.1 ms     6.3 ms
    400 (sparse Laplacian)    8.2 ms     4.1 ms
    720 (interchange, n = 6)  57 ms      6.3 ms
    5040 (interchange, n = 7) 7-11 s     0.017 s

Dense solves of 100-240 rows also ran at 13-28 ms for seconds at a
time on that host, against 2-5 ms iteratively. DENSE_LIMIT (6000, so
up to n = 7 for the n!-state matrix) is a different bound: the largest
matrix whose full spectrum `aldous decompose` computes densely for its
direct check, and the largest an iterative solve that fails its
residual check falls back to solving densely.
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


def _dense_second_smallest(M) -> float:
    import scipy.sparse as sp

    dense = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
    return float(np.linalg.eigvalsh(dense)[1])


def iterative_solve_bytes(rows: int) -> int:
    """Memory the iterative solve of `second_smallest_laplacian_eig` maps
    beside its matrix of `rows` rows.

    Per row, 47 float64 values are live at its peak: ARPACK's 20 Lanczos
    vectors, the 20 Ritz vectors it extracts them into, its three work
    vectors, and a few vectors of the operator and the residual check
    (`tracemalloc` measured 376 bytes per row plus 9-13 KB at 720-362880
    rows); three more cover freed vectors that the allocator keeps
    mapped. The 32 MiB are the work buffer that the OpenBLAS behind
    ARPACK maps on its first matrix-vector product of more than a few
    hundred rows and keeps for the life of the process. A dense solve
    (at most DENSE_CROSSOVER rows) needs well under 1 MB.
    """
    return 50 * 8 * rows + 2**25


def second_smallest_laplacian_eig(M, dense_limit: int = DENSE_CROSSOVER) -> float:
    """Second-smallest eigenvalue of a (possibly sparse) graph Laplacian.

    Dense solve up to `dense_limit`; beyond that, an iterative solve on
    the operator with the known all-ones kernel direction shifted up out
    of the way, so the smallest remaining eigenvalue is the gap. The
    iterative solve starts from a fixed vector, so repeated calls give
    the same bits, and its answer mu is accepted only when the residual
    ||Mv - mu v|| / ||v||, which bounds the distance from mu to the
    spectrum, is at most SOLVER_TOL * (1 + max |diagonal|). Otherwise,
    or when ARPACK does not converge, a matrix of at most DENSE_LIMIT
    rows is solved densely and a larger one raises ValueError.
    """
    import scipy.sparse.linalg as spla  # deferred: the per-shape route never needs scipy

    dim = M.shape[0]
    if dim < 2:
        raise ValueError("need dimension >= 2")
    if dim <= dense_limit:
        return _dense_second_smallest(M)
    diag = M.diagonal()
    shift = 1.0 + 2.0 * float(diag.max())  # exceeds lambda_max by Gershgorin

    def matvec(x):
        return M @ x + shift * x.mean() * np.ones(dim)

    op = spla.LinearOperator((dim, dim), matvec=matvec, dtype=float)
    # any fixed start but the all-ones vector, an eigenvector of op whose
    # Krylov space is one-dimensional
    v0 = np.random.default_rng(0).standard_normal(dim)
    try:
        vals, vecs = spla.eigsh(op, k=1, which="SA", tol=SOLVER_TOL, maxiter=20000, v0=v0)
    except spla.ArpackNoConvergence as exc:
        vals, vecs = exc.eigenvalues, exc.eigenvectors
    residual = math.inf
    if len(vals):
        v = vecs[:, 0]
        residual = float(np.linalg.norm(op.matvec(v) - vals[0] * v) / np.linalg.norm(v))
    if residual <= SOLVER_TOL * (1.0 + float(np.abs(diag).max())):
        return float(vals[0])
    if dim <= DENSE_LIMIT:
        return _dense_second_smallest(M)
    raise ValueError(
        f"iterative eigensolve of dimension {dim} did not converge: residual {residual:.3g}"
    )
