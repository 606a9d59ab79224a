"""Dense complex linear algebra primitives with explicit tolerance semantics.

Guarded solves, the pseudoinverse, and rank and defect measurements of single
matrices and stacks.  The tolerances here are relative to the largest
singular value.  The batched paths of ``boundary``, ``scattering`` and
``starprod`` call ``numpy.linalg`` themselves, and no library path calls
:func:`solve_linear` or :func:`pseudoinverse`: the vertex S-matrices solve
``A + ikB``, which is invertible for every admissible pair, by plain LU, and
the scattering solver's bond matrix has its singular values in ``[0, 2]``, so
its singularity test and minimum-norm solve take an absolute tolerance on
``sigma_min``.  Every entry point here coerces and checks its inputs via
:func:`as_complex_matrix` (``complex128``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerance (against the largest singular value) used whenever a
# caller does not override it.
DEFAULT_TOL = 1e-10


class SingularMatrix(ValueError):
    """Raised when a linear solve meets an effectively singular matrix."""


def as_complex_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Coerce ``obj`` to a 2-D complex128 array and verify all entries are finite.

    Args:
        obj: anything ``numpy.asarray`` accepts; must be 2-dimensional.
        name: label used in error messages.

    Returns:
        A C-contiguous ``complex128`` array (copy only when needed).
    """
    m = np.ascontiguousarray(np.asarray(obj, dtype=np.complex128))
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def spectral_norm(m) -> float:
    """Largest singular value of ``m`` (operator 2-norm); 0 for an empty ``m``."""
    return float(spectral_norms(as_complex_matrix(m)[None])[0])


def spectral_norms(stack) -> np.ndarray:
    """:func:`spectral_norm` of every matrix of a ``(G, r, c)`` stack.

    Equal bit for bit to ``np.linalg.norm(stack, 2, axis=(1, 2))``, which
    takes the same values-only SVD, without its axis bookkeeping.
    """
    return np.linalg.svd(stack, compute_uv=False).max(axis=-1, initial=0.0)


def solve_linear(m, rhs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve ``m @ x = rhs`` for a square, well-conditioned ``m``.

    Args:
        m: square coefficient matrix.
        rhs: right-hand side; a vector or a matrix of stacked columns.
        tol: relative singularity threshold; the solve is refused when
            ``sigma_min < tol * sigma_max``.

    Returns:
        Solution array with the same trailing shape as ``rhs``.

    Raises:
        SingularMatrix: if ``m`` is singular at the given tolerance.
    """
    m = as_complex_matrix(m, "coefficient matrix")
    rhs_arr = np.asarray(rhs, dtype=np.complex128)
    vector_rhs = rhs_arr.ndim == 1
    if vector_rhs:
        rhs_arr = rhs_arr[:, None]
    rhs_arr = as_complex_matrix(rhs_arr, "right-hand side")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {m.shape}")
    if rhs_arr.shape[0] != m.shape[0]:
        raise ValueError(
            f"right-hand side has {rhs_arr.shape[0]} rows, expected {m.shape[0]}")
    if m.shape[0] == 0:
        return rhs_arr[:0] if not vector_rhs else rhs_arr[:0, 0]
    sigma = np.linalg.svd(m, compute_uv=False)
    if sigma[-1] < tol * sigma[0] or sigma[0] == 0.0:
        raise SingularMatrix(
            f"matrix is singular at relative tolerance {tol:g} "
            f"(sigma_min={sigma[-1]:.3e}, sigma_max={sigma[0]:.3e})")
    x = np.linalg.solve(m, rhs_arr)
    return x[:, 0] if vector_rhs else x


def determinant(m) -> complex:
    """Determinant via LU factorization with partial pivoting.

    A singular matrix yields 0 rather than an error.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"determinant needs a square matrix, got {m.shape}")
    if m.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(m))


def pseudoinverse(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse by SVD truncation.

    Singular values at or below ``tol * sigma_max`` are treated as exact zeros
    (and the reciprocal of zero is taken to be zero, so the pseudoinverse of a
    zero matrix is the zero matrix of transposed shape).  For square matrices
    of full numerical rank the result agrees with the inverse.
    """
    m = as_complex_matrix(m)
    rows, cols = m.shape
    if m.size == 0:
        return np.zeros((cols, rows), dtype=np.complex128)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    cutoff = tol * s[0]
    inv = np.where(s > cutoff, s, np.inf)
    inv = 1.0 / inv
    return (vh.conj().T * inv) @ u.conj().T


def unitarity_defect(u) -> float:
    """Operator-norm distance of ``u`` from unitarity, ``||u^dagger u - I||_2``."""
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError(f"unitarity defect needs a square matrix, got {u.shape}")
    return float(unitarity_defects(u[None])[0])


def unitarity_defects(stack) -> np.ndarray:
    """:func:`unitarity_defect` of every matrix of a ``(G, n, n)`` stack."""
    u = np.asarray(stack, dtype=np.complex128)
    if u.ndim != 3 or u.shape[1] != u.shape[2]:
        raise ValueError(f"unitarity defects need a stack of square matrices, "
                         f"got shape {u.shape}")
    gram = u.conj().transpose(0, 2, 1) @ u
    return spectral_norms(gram - np.eye(u.shape[1]))


def hermiticity_defect(m) -> float:
    """Operator-norm distance of a square ``m`` from its own adjoint."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"hermiticity defect needs a square matrix, got {m.shape}")
    return spectral_norm(m - m.conj().T)


def numeric_rank(m, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values exceeding ``tol * sigma_max``.

    The zero matrix has rank 0 by convention.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    m = as_complex_matrix(m)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


@dataclass(frozen=True)
class DefectReport:
    """How far a square matrix is from unitary/Hermitian, plus its numeric rank."""

    unitarity_defect: float
    hermiticity_defect: float
    rank: int
    tolerance_used: float


def defect_report(m, tol: float = DEFAULT_TOL) -> DefectReport:
    """Bundle the standard defect measurements for a square matrix."""
    m = as_complex_matrix(m)
    return DefectReport(
        unitarity_defect=unitarity_defect(m),
        hermiticity_defect=hermiticity_defect(m),
        rank=numeric_rank(m, tol),
        tolerance_used=tol,
    )
