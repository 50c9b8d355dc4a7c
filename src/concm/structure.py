"""Target-structure synthesis and diagnostics.

A structure is a d_g x N matrix of unit-norm class target vectors forming
a simplex equiangular tight frame (ETF): pairwise inner products equal to
-1/(N-1).  Each session re-synthesizes the ETF closest to an initial
structure (the projected class prototypes of the repository, with previous
columns carried over unchanged) by solving the orthogonally constrained
trace maximization via LAPACK's compact SVD (``svd_compact``).  The result
keeps the target geometry optimal while changing the layout as little as
possible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import DegenerateInput, DimensionTooSmall, InvalidInput, ShapeError

logger = logging.getLogger("concm.structure")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return m


def svd_compact(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact SVD of a d x n matrix with d >= n.

    Returns (w, lam, v) with w: d x n column-orthonormal, lam: length-n
    singular values sorted descending, v: n x n orthogonal, such that
    w @ diag(lam) @ v.T reconstructs the input.  The SVD is LAPACK's,
    through ``np.linalg.svd``; its factors depend on the numpy/BLAS build,
    like every matmul.

    Raises InvalidInput for non-finite or non-2-D input or d < n.
    """
    a = as_matrix(m)
    d, n = a.shape
    if d < n:
        raise InvalidInput(f"svd_compact requires d >= n, got {d} x {n}")
    w, lam, vt = np.linalg.svd(a, full_matrices=False)
    return w, lam, vt.T


@dataclass(frozen=True)
class StructureMatrix:
    """Unit-norm class target vectors, one column per class id."""

    columns: np.ndarray
    class_ids: tuple[int, ...]
    rank_deficient: bool = False

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def num_classes(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class InitialStructure:
    """Structure seed: previous columns carried over plus the projected
    means of the new classes.

    historical[i] is True when column i was copied from the previous
    session's structure.
    """

    columns: np.ndarray
    class_ids: tuple[int, ...]
    historical: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def num_classes(self) -> int:
        return self.columns.shape[1]


def centering(n: int) -> np.ndarray:
    """The projector I - 11^T/n that removes the column mean."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def initial_structure(prev: StructureMatrix | None,
                      new_columns: np.ndarray) -> InitialStructure:
    """Assemble the initial structure for the current class set.

    The columns of ``prev`` (None at t = 0) are copied bit-exactly, and the
    d_g x n_new ``new_columns`` (the unit-norm projections of the new
    classes' means) follow them as the next class ids.
    """
    old = [] if prev is None else [prev.columns]
    # a C-ordered copy, never a view of the caller's array
    columns = np.ascontiguousarray(np.hstack(old + [new_columns]))
    n = columns.shape[1]
    return InitialStructure(columns=columns, class_ids=tuple(range(n)),
                            historical=np.arange(n) < n - new_columns.shape[1])


def nearest_optimal_structure(init: InitialStructure) -> StructureMatrix:
    """ETF closest to the initial structure in summed column inner products.

    With M the centering projector and W diag(L) V^T the compact SVD of
    init.columns @ M, the update is sqrt(N/(N-1)) * (W V^T) @ M.  The result
    always satisfies the ETF Gram condition; among all such structures it
    maximizes trace(init^T target).

    Raises DimensionTooSmall unless dim > num_classes >= 2.  A centered
    matrix of rank < N-1 (duplicate columns) is flagged in the result; the
    update is still an ETF of maximal trace, since W V^T has orthonormal
    columns whatever null-space basis the SVD picks.
    """
    cols = as_matrix(init.columns, "initial structure")
    d, n = cols.shape
    if n < 2:
        raise InvalidInput(f"need at least 2 classes, got {n}")
    if d <= n:
        raise DimensionTooSmall(f"structure dim {d} must exceed class count {n}")
    m = centering(n)
    centered = cols @ m
    w, lam, v = svd_compact(centered)
    # relative to the input's scale: the centered matrix may be all rounding
    deficient = bool(np.sum(lam > 1e-10 * np.linalg.norm(cols)) < n - 1)
    if deficient:
        logger.warning("centered initial structure is rank deficient")
    u = w @ v.T
    scale = np.sqrt(n / (n - 1.0))
    out = scale * (u @ m)
    structure = StructureMatrix(columns=out, class_ids=init.class_ids,
                                rank_deficient=deficient)
    dev = geometric_optimality_deviation(structure)
    if dev > 1e-8:
        raise InvalidInput(f"structure update failed the ETF check (dev={dev:.3e})")
    return structure


def geometric_optimality_deviation(structure: StructureMatrix | np.ndarray) -> float:
    """Max absolute deviation of the Gram matrix from the ETF condition.

    The target Gram has ones on the diagonal and -1/(N-1) off it.
    """
    cols = structure.columns if isinstance(structure, StructureMatrix) else structure
    cols = as_matrix(cols, "structure")
    n = cols.shape[1]
    gram = cols.T @ cols
    target = (n / (n - 1.0)) * np.eye(n) - np.full((n, n), 1.0 / (n - 1.0))
    return float(np.abs(gram - target).max())


def structure_matching_rate(init: InitialStructure | StructureMatrix,
                            target: StructureMatrix) -> float:
    """Mean column cosine between two structures with identical class order."""
    a, b = init.columns, target.columns
    if a.shape != b.shape:
        raise ShapeError(f"structure shapes differ: {a.shape} vs {b.shape}")
    if init.class_ids != target.class_ids:
        raise ShapeError("structures order different class ids")
    na = np.linalg.norm(a, axis=0)
    nb = np.linalg.norm(b, axis=0)
    if np.any(na < 1e-12) or np.any(nb < 1e-12):
        raise DegenerateInput("zero-norm structure column")
    cosines = np.einsum("ij,ij->j", a / na, b / nb)
    return float(cosines.mean())


def random_optimal_structure(n: int, d_g: int, seed: int) -> StructureMatrix:
    """Seeded random ETF: QR of a Gaussian matrix fed through the ETF map."""
    if d_g <= n:
        raise DimensionTooSmall(f"structure dim {d_g} must exceed class count {n}")
    if n < 2:
        raise InvalidInput(f"need at least 2 classes, got {n}")
    g = rng.gaussian(rng.stream(seed, "random-structure", n, d_g), (d_g, n))
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    cols = np.sqrt(n / (n - 1.0)) * (q @ centering(n))
    return StructureMatrix(columns=cols, class_ids=tuple(range(n)))
