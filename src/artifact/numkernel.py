"""Dense complex linear algebra primitives with explicit tolerance semantics.

Coercion and finiteness checks, spectral norms, unitarity and Hermiticity
defects of single matrices and stacks, and two references: the determinant
and the SVD-truncated pseudoinverse, whose tolerance is relative to the
largest singular value.  No library path solves through this module: the
batched paths of ``boundary``, ``scattering`` and ``starprod`` call
``numpy.linalg`` themselves.  The vertex S-matrices solve ``A + ikB``, which
is invertible for every admissible pair, by plain LU, and the scattering
solver's bond matrix has its singular values in ``[0, 2]``, so its
singularity test and minimum-norm solve take an absolute tolerance on
``sigma_min``.  Every entry point here coerces and checks its inputs via
:func:`as_complex_matrix` (``complex128``).
"""
from __future__ import annotations

import numpy as np

# Tolerance used whenever a caller does not override it: absolute for the
# admissibility numbers of ``boundary``, which are numbers of row-normalized
# pairs, and relative to the largest singular value in :func:`pseudoinverse`.
DEFAULT_TOL = 1e-10


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
