"""Star-versus-clique Dirichlet comparison on the permutation group.

The inequality under test: for rates gamma_1..gamma_{k-1} into a center
vertex k, the interchange Dirichlet form of the star dominates that of
the complete graph on 1..k-1 weighted by gamma_i gamma_j / sum(gamma).
The difference of the two forms is the interchange Dirichlet form of
the signed comparison weights (`comparison_weights`), so the inequality
holds exactly when the interchange Laplacian on those weights is
positive semidefinite. Three independent routes decide it:

* the explicit n!-state route: twice the smallest value of
  `interchange.interchange_spectrum(comparison_weights(gamma))` is the
  smallest eigenvalue of the k! x k! quadratic form of the difference
  (see `comparison_weights`), independent of the per-shape blocks;
* `conjecture_matrix` builds, per shape, the signed-weight comparison
  block whose positive semidefiniteness is equivalent, and
  `check_conjecture` sweeps every shape;
* closed forms: `k4_closed_forms` checks the exact rank-one /
  projection identities available for four boxes, and
  `equal_gamma_min_eig` the integer diagonal formula for equal rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import SignedWeightedGraph
from .spectral import DEFAULT_TOL
from .tableaux import Partition, content_sum, max_corner_content
from .yor import (
    _require_bytes,
    _stacks_bytes,
    irrep_laplacian,
    s4_transposition_vectors,
    shape_spectra,
)


@dataclass(frozen=True)
class GammaVector:
    """Nonnegative rates gamma_1..gamma_{k-1} into center vertex k."""

    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        gamma = tuple(float(g) for g in self.gamma)
        object.__setattr__(self, "gamma", gamma)
        if not gamma:
            raise ValueError("need at least one rate (k >= 2)")
        if any(not math.isfinite(g) or g < 0 for g in gamma):
            raise ValueError(f"rates must be finite and nonnegative: {gamma}")

    @property
    def k(self) -> int:
        return len(self.gamma) + 1

    @property
    def total(self) -> float:
        return sum(self.gamma)


def _as_gamma(gamma) -> GammaVector:
    return gamma if isinstance(gamma, GammaVector) else GammaVector(tuple(gamma))


def comparison_weights(gamma) -> SignedWeightedGraph:
    """Signed edge weights of the star-minus-clique comparison graph:
    gamma_i on (i, k), minus gamma_i gamma_j / total inside 1..k-1.

    The quadratic form Q of (star form) - (weighted clique form) on R^{k!}
    has g^T Q g equal to
      2 * [ sum_i gamma_i <g, (I - P_{(ik)}) g>
            - sum_{i<j} gamma_i gamma_j / total <g, (I - P_{(ij)}) g> ]
    with P the left-translation action, so Q is twice the interchange
    Laplacian on these weights. For k = 2 the clique sum is empty.
    """
    g = _as_gamma(gamma)
    k, total = g.k, g.total
    if k >= 3 and total <= 0:
        raise ValueError("all-zero rates are only allowed for k = 2")
    weights: dict[tuple[int, int], float] = {}
    for i in range(1, k):
        weights[(i, k)] = g.gamma[i - 1]
    if total > 0:
        for i in range(1, k):
            for j in range(i + 1, k):
                weights[(i, j)] = -g.gamma[i - 1] * g.gamma[j - 1] / total
    return SignedWeightedGraph(k, weights)


def conjecture_matrix(lam: Partition, gamma) -> np.ndarray:
    """Per-shape comparison block; the inequality for these rates holds
    iff this is PSD for every shape of k boxes."""
    g = _as_gamma(gamma)
    if lam.n != g.k:
        raise ValueError(f"partition of {lam.n} does not match k={g.k}")
    return irrep_laplacian(lam, comparison_weights(g))


@dataclass(frozen=True)
class ShapeVerdict:
    partition: Partition
    dim: int
    min_eig: float
    status: str  # "positive" | "boundary" | "negative"

    @property
    def passed(self) -> bool:
        return self.status != "negative"


@dataclass(frozen=True)
class ConjectureReport:
    k: int
    gamma: tuple[float, ...]
    per_shape: tuple[ShapeVerdict, ...]
    passed: bool

    def min_eigenvalue(self) -> float:
        return min(v.min_eig for v in self.per_shape)


def check_conjecture(k: int, gamma, tol: float = DEFAULT_TOL) -> ConjectureReport:
    """PSD sweep of the comparison block over every shape of k boxes.

    A block passes when its smallest eigenvalue is >= -tol * (1 + norm);
    minima within tolerance of zero are flagged "boundary" (several
    shapes sit exactly on the boundary), not failed. Blocks come from
    `shape_spectra`, which solves one shape of each conjugate pair and
    derives the other.
    """
    g = _as_gamma(gamma)
    if g.k != k:
        raise ValueError(f"gamma has {g.k - 1} entries; expected k - 1 = {k - 1}")
    # the blocks' stacks alone, refused from k before the k^2/2 weights are built
    _require_bytes(_stacks_bytes(k), f"the per-shape blocks of {k} boxes")
    verdicts = []
    for lam, vals, norm in shape_spectra(comparison_weights(g)):
        min_eig = float(vals[0])
        eps = tol * (1.0 + norm)
        if min_eig < -eps:
            status = "negative"
        elif abs(min_eig) <= eps:
            status = "boundary"
        else:
            status = "positive"
        verdicts.append(ShapeVerdict(lam, len(vals), min_eig, status))
    return ConjectureReport(
        k=k,
        gamma=g.gamma,
        per_shape=tuple(verdicts),
        passed=all(v.passed for v in verdicts),
    )


def equal_gamma_min_eig(lam: Partition) -> int:
    """Exact smallest eigenvalue of (k-1) times the comparison block at
    unit rates.

    That matrix is diagonal in the tableau basis with integer entries
    k(k-1)/2 + (content sum) - k * (content of k's box); the minimum puts
    k in the corner of largest content. Always at least
    sum_{j>=2} (j-1) lambda_j (lambda_j - 1), hence nonnegative.
    """
    k = lam.n
    if k < 2:
        raise ValueError("need a partition of at least 2")
    return k * (k - 1) // 2 + content_sum(lam) - k * max_corner_content(lam)


def equal_gamma_lower_bound(lam: Partition) -> int:
    """The row-based lower bound sum_{j>=2} (j-1) lambda_j (lambda_j - 1)."""
    return sum((j - 1) * p * (p - 1) for j, p in enumerate(lam.parts, start=1) if j >= 2)


@dataclass(frozen=True)
class K4ClosedForms:
    """Per-shape exact identities for k = 4 at the given rates.

    All matrices here are the comparison blocks scaled by the rate total,
    which clears denominators so the identities are polynomial in gamma.

    For (2,2), the projection bound -1 + (w.u)^2/|u|^2 is reported as
    `lower_bound_22`, but note its scaling: the block's eigenvalues are
    quadratic under gamma -> c*gamma while the bound is scale-invariant,
    so it bounds the block only through the Gram weighting
    block >= bound * N with N = sum gamma_i^2 v_i4 v_i4^T (that is the
    Rayleigh statement on the constraint plane). `gram_residual_22` is
    the smallest eigenvalue of block - bound * N, which should only be
    negative at roundoff level; nonnegativity of the bound itself is
    what forces the block PSD.
    """

    gamma: tuple[float, float, float]
    rank1_residual_31: float  # |scaled block - beta beta^T| for (3,1)
    decomposition_residual_22: float  # |scaled block - reflection-sum form|
    min_eig_22: float
    lower_bound_22: float | None  # -1 + (w.u)^2/|u|^2; None when u = 0
    gram_residual_22: float | None  # min eig of block - bound * N
    identity_residual_211: float  # |scaled block - (2 S I - beta beta^T)|
    min_eig_211: float  # exactly 0 in theory
    scalar_4: float  # the (4) block is identically zero
    scalar_1111: float
    scalar_1111_expected: float  # 2 (sum gamma_i^2 + sum_{i<j} gamma_i gamma_j)
    passed: bool


def _scaled_block(lam_parts, g: GammaVector, vectors) -> np.ndarray:
    """total * sum_i gamma_i V_{i4} - sum_{i<j} gamma_i gamma_j V_{ij},
    assembled purely from the reference vectors."""
    dim = 3 if lam_parts != (2, 2) else 2
    eye = np.eye(dim)

    def V(i, j):
        v = vectors[(lam_parts, i, j)]
        if lam_parts == (2, 1, 1):
            return 2.0 * eye - np.outer(v, v)
        return np.outer(v, v)

    total = g.total
    M = np.zeros((dim, dim))
    for i in range(1, 4):
        M += total * g.gamma[i - 1] * V(i, 4)
    for i in range(1, 4):
        for j in range(i + 1, 4):
            M -= g.gamma[i - 1] * g.gamma[j - 1] * V(i, j)
    return M


def k4_closed_forms(gamma, tol: float = DEFAULT_TOL) -> K4ClosedForms:
    """Verify the exact shape-by-shape identities available at k = 4.

    (3,1): the scaled block is the rank-one matrix beta beta^T with
    beta = sum gamma_i v_{i4}. (2,2): the scaled block decomposes as a
    sum of reflections minus sum gamma_i^2 V_{i4}; the projection bound
    -1 + (w.u)^2/|u|^2 for u = (g1 g2, -g1 g3, g2 g3), w = (1, -1, 1)
    is verified to be nonnegative and to dominate the block in the
    Gram-weighted sense (see K4ClosedForms). (2,1,1): the scaled block
    equals 2 (sum_{i<=j} gamma_i gamma_j) I - beta beta^T and its
    smallest eigenvalue vanishes identically. The one-dimensional shapes
    are checked as scalars.
    """
    g = _as_gamma(gamma)
    if g.k != 4:
        raise ValueError("closed forms require exactly 3 rates (k = 4)")
    vectors = s4_transposition_vectors()
    g1, g2, g3 = g.gamma
    total = g.total

    # (3,1): rank-one identity
    M31 = _scaled_block((3, 1), g, vectors)
    beta31 = sum(
        gi * vectors[((3, 1), i, 4)] for i, gi in zip((1, 2, 3), g.gamma)
    )
    rank1_residual = float(np.abs(M31 - np.outer(beta31, beta31)).max())

    # (2,2): reflection-sum decomposition and projection bound
    M22 = _scaled_block((2, 2), g, vectors)
    rhs = np.zeros((2, 2))
    for i in range(1, 4):
        for j in range(i + 1, 4):
            sign = -((-1.0) ** (i - j))
            vec = g.gamma[i - 1] * vectors[((2, 2), i, 4)] + sign * g.gamma[j - 1] * vectors[
                ((2, 2), j, 4)
            ]
            rhs += np.outer(vec, vec)
    for i in range(1, 4):
        v = vectors[((2, 2), i, 4)]
        rhs -= g.gamma[i - 1] ** 2 * np.outer(v, v)
    decomposition_residual = float(np.abs(M22 - rhs).max())
    min22 = float(np.linalg.eigvalsh(M22)[0])
    u = np.array([g1 * g2, -g1 * g3, g2 * g3])
    w = np.array([1.0, -1.0, 1.0])
    norm_u2 = float(u @ u)
    if norm_u2 > 0:
        bound22 = float(-1.0 + (w @ u) ** 2 / norm_u2)
        gram = sum(
            gi**2 * np.outer(vectors[((2, 2), i, 4)], vectors[((2, 2), i, 4)])
            for i, gi in zip((1, 2, 3), g.gamma)
        )
        gram_residual = float(np.linalg.eigvalsh(M22 - bound22 * gram)[0])
    else:
        bound22 = None
        gram_residual = None

    # (2,1,1): identity with minimum exactly zero
    M211 = _scaled_block((2, 1, 1), g, vectors)
    beta211 = sum(
        gi * vectors[((2, 1, 1), i, 4)] for i, gi in zip((1, 2, 3), g.gamma)
    )
    pair_sum = g1 * g1 + g2 * g2 + g3 * g3 + g1 * g2 + g1 * g3 + g2 * g3
    identity_residual = float(
        np.abs(M211 - (2.0 * pair_sum * np.eye(3) - np.outer(beta211, beta211))).max()
    )
    min211 = float(np.linalg.eigvalsh(M211)[0])

    # one-dimensional shapes
    scalar_4 = 0.0  # every V vanishes on the trivial shape
    scalar_1111 = 2.0 * (total * total - (g1 * g2 + g1 * g3 + g2 * g3))
    scalar_expected = 2.0 * (g1 * g1 + g2 * g2 + g3 * g3 + g1 * g2 + g1 * g3 + g2 * g3)

    scale = 1.0 + max(np.abs(M31).max(), np.abs(M22).max(), np.abs(M211).max())
    passed = bool(
        rank1_residual <= 1e-12 * scale
        and decomposition_residual <= 1e-12 * scale
        and identity_residual <= 1e-12 * scale
        and abs(min211) <= tol * scale
        and (bound22 is None or bound22 >= -tol)
        and (gram_residual is None or gram_residual >= -tol * scale)
        and min22 >= -tol * scale
        and abs(scalar_1111 - scalar_expected) <= 1e-12 * (1.0 + abs(scalar_1111))
    )
    return K4ClosedForms(
        gamma=g.gamma,
        rank1_residual_31=rank1_residual,
        decomposition_residual_22=decomposition_residual,
        min_eig_22=min22,
        lower_bound_22=bound22,
        gram_residual_22=gram_residual,
        identity_residual_211=identity_residual,
        min_eig_211=min211,
        scalar_4=scalar_4,
        scalar_1111=scalar_1111,
        scalar_1111_expected=scalar_expected,
        passed=passed,
    )
