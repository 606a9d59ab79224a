"""Self-adjoint boundary conditions for Laplacians on collections of intervals.

A boundary condition is a pair of square matrices ``(A, B)`` acting on the
vector of endpoint values and inward endpoint derivatives through
``A @ values + B @ derivatives = 0``.  The pair describes a self-adjoint
operator exactly when ``(A, B)`` has maximal rank and ``A @ B^dagger`` is
Hermitian; :func:`validate` measures both properties.

An admissible pair has the unitary on-shell S-matrix
``S(k) = -(A + ikB)^{-1} (A - ikB)``, and equivalent pairs ``(CA, CB)`` have
the same one.  :func:`vertex_smatrices` is the one evaluation of it, for a
stack of pairs and wavenumbers; the scattering solver, the unit-energy matrix
``S(1)`` and :func:`von_neumann_parameter` all read it.  ``S(1)`` does not
depend on the row operations or the scale of the pair, and it answers the
structural questions: its Cayley pair ``(I - S(1), -i (I + S(1)))`` is the
canonical representative of the class (:func:`canonicalize`), the condition
is scale invariant when ``S(1)`` is Hermitian (:func:`scale_invariant`), and
the nonzero pattern of ``S(1)`` gives the finest splitting into independent
vertex blocks (:func:`localize`).

The module also provides the standard named couplings, an equivalence test for
pairs describing the same operator (it answers for inadmissible pairs too),
and the duality and reality transforms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel
from .numkernel import DEFAULT_TOL, as_complex_matrix


class DimensionMismatch(ValueError):
    """Raised when two boundary conditions or matrix blocks disagree in size."""


class InvalidBoundaryCondition(ValueError):
    """Raised when an operation requires an admissible boundary condition."""


class InvalidParameters(ValueError):
    """Raised when a named constructor receives out-of-contract parameters."""


@dataclass(frozen=True)
class BoundaryCondition:
    """A pair of N x N matrices defining ``A @ psi + B @ psi' = 0``.

    The arrays are coerced to complex128 and frozen (marked read-only).
    Admissibility is *not* enforced at construction; call :func:`validate`.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a = as_complex_matrix(self.A, "A")
        b = as_complex_matrix(self.B, "B")
        if a.shape != b.shape or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(
                f"A and B must be square and equal-shaped, got {a.shape} and {b.shape}")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def conjugate(self) -> "BoundaryCondition":
        """The entrywise complex conjugate pair (A-bar, B-bar)."""
        return BoundaryCondition(self.A.conj(), self.B.conj())


@dataclass(frozen=True)
class ValidationReport:
    rank_ok: bool
    hermitian_ok: bool
    rank_found: int
    hermiticity_defect: float
    is_real_bc: bool

    @property
    def ok(self) -> bool:
        return self.rank_ok and self.hermitian_ok


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint, nonempty endpoint-index blocks covering ``range(dim)``."""

    blocks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class Admissibility:
    """The tolerance-free numbers admissibility of ``(A, B)`` is decided on.

    ``singular_values`` are those of ``[A | B]`` in descending order,
    ``hermiticity_defect`` is ``||A B^dagger - B A^dagger||_2``,
    ``reality_defect`` is ``||A B^T - B A^T||_2`` and ``norm_a``/``norm_b``
    are the spectral norms of ``A`` and ``B``.  All five combine exactly over
    a block sum of pairs, even one with its rows and columns permuted (see
    :func:`combine_admissibility`).
    """

    singular_values: np.ndarray
    hermiticity_defect: float
    reality_defect: float
    norm_a: float
    norm_b: float

    @property
    def dim(self) -> int:
        return len(self.singular_values)

    def rank(self, tol: float = DEFAULT_TOL) -> int:
        """Number of singular values of ``[A | B]`` above ``tol * sigma_max``."""
        if tol <= 0:
            raise ValueError(f"tolerance must be positive, got {tol!r}")
        s = self.singular_values
        if not s.size or s[0] == 0.0:
            return 0
        return int(np.count_nonzero(s > tol * s[0]))

    def hermitian_ok(self, tol: float = DEFAULT_TOL) -> bool:
        """Whether ``A B^dagger`` is Hermitian up to ``tol`` at the product scale."""
        return self.hermiticity_defect <= tol * max(1.0, self.norm_a * self.norm_b)

    def real(self, tol: float = DEFAULT_TOL) -> bool:
        """Whether ``A B^T`` is symmetric up to ``tol`` at the product scale: the
        test :func:`equivalent` makes of the pair and its conjugate."""
        return self.reality_defect <= tol * max(1.0, self.norm_a * self.norm_b)

    def admissible(self, tol: float = DEFAULT_TOL) -> bool:
        """Whether ``[A | B]`` has full rank and ``A B^dagger`` is Hermitian at ``tol``."""
        return self.rank(tol) == self.dim and self.hermitian_ok(tol)

    def report(self, tol: float = DEFAULT_TOL) -> ValidationReport:
        """The verdicts at ``tol``; reality is False for an inadmissible pair."""
        rank = self.rank(tol)
        rank_ok, hermitian_ok = rank == self.dim, self.hermitian_ok(tol)
        return ValidationReport(rank_ok, hermitian_ok, rank, self.hermiticity_defect,
                                rank_ok and hermitian_ok and self.real(tol))

    def require(self, tol: float = DEFAULT_TOL) -> None:
        """Raise :class:`InvalidBoundaryCondition` unless the pair is admissible."""
        if not self.admissible(tol):
            raise InvalidBoundaryCondition(
                f"boundary condition is not admissible: rank {self.rank(tol)} of "
                f"{self.dim}, hermiticity defect {self.hermiticity_defect:.3e}")


def measure_admissibility_stack(a: np.ndarray, b: np.ndarray) -> list[Admissibility]:
    """Admissibility numbers of every pair of a stack of ``(G, d, d)`` blocks
    ``a[i], b[i]``, from two stacked SVD calls whatever ``G`` is.

    Each pair's numbers equal a one-pair measurement bit for bit: LAPACK
    decomposes every matrix of a stack on its own.
    """
    h = a @ b.conj().swapaxes(-1, -2)
    r = a @ b.swapaxes(-1, -2)
    sigma = np.linalg.svd(np.concatenate([a, b], axis=-1), compute_uv=False)
    # ||A B^dagger - B A^dagger||, ||A B^T - B A^T||, ||A||, ||B||: largest singular
    # values (initial=0.0 gives 0 for 0 x 0 blocks and changes nothing else)
    defect, reality, norm_a, norm_b = np.linalg.svd(np.concatenate(
        [h - h.conj().swapaxes(-1, -2), r - r.swapaxes(-1, -2), a, b]), compute_uv=False,
    ).max(axis=-1, initial=0.0).reshape(4, -1).tolist()
    return [Admissibility(*numbers)
            for numbers in zip(sigma, defect, reality, norm_a, norm_b)]


def measure_admissibility(bc: BoundaryCondition) -> Admissibility:
    """Measure the admissibility numbers of ``bc``: the one-pair case of
    :func:`measure_admissibility_stack`."""
    (numbers,) = measure_admissibility_stack(bc.A[None], bc.B[None])
    return numbers


def combine_admissibility(parts) -> Admissibility:
    """Admissibility numbers of a block sum of pairs from those of its blocks.

    For ``A = P (A_1 + ... + A_r) Q`` and ``B = P (B_1 + ... + B_r) Q`` with
    permutations ``P`` and ``Q``, the singular values of ``[A | B]`` are the
    union of the blocks' ones, ``A B^dagger`` and ``A B^T`` are permuted block
    diagonals (``Q Q^dagger = Q Q^T = I``, so each defect is the largest block
    defect), and ``||A||``, ``||B||`` are the largest block norms.
    """
    parts = list(parts)
    if not parts:
        return Admissibility(np.zeros(0), 0.0, 0.0, 0.0, 0.0)
    sigma = np.sort(np.concatenate([p.singular_values for p in parts]))[::-1]
    return Admissibility(
        singular_values=sigma,
        hermiticity_defect=max(p.hermiticity_defect for p in parts),
        reality_defect=max(p.reality_defect for p in parts),
        norm_a=max(p.norm_a for p in parts),
        norm_b=max(p.norm_b for p in parts),
    )


def validate(bc: BoundaryCondition, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Admissibility of ``bc`` at ``tol`` (:meth:`Admissibility.report` of one
    measurement): full numeric rank of ``[A | B]``, Hermitian ``A @ B^dagger``
    and, for an admissible ``bc`` only, reality."""
    return measure_admissibility(bc).report(tol)


def require_valid(bc: BoundaryCondition, tol: float = DEFAULT_TOL) -> None:
    """Raise :class:`InvalidBoundaryCondition` unless ``bc`` is admissible."""
    measure_admissibility(bc).require(tol)


def vertex_smatrices(a_blocks: np.ndarray, b_blocks: np.ndarray, ks) -> np.ndarray:
    """``S_v(k) = -(A_v + ikB_v)^{-1} (A_v - ikB_v)`` for every pair of a
    ``(V, d, d)`` stack and every wavenumber of ``ks``, as a
    ``(len(ks), V, d, d)`` stack from one batched LU solve: ``A + ikB`` is
    invertible for every admissible pair and real ``k != 0``."""
    ikb = 1j * np.asarray(ks, dtype=float)[:, None, None, None] * b_blocks
    return -np.linalg.solve(a_blocks + ikb, a_blocks - ikb)


def _unit_smatrix(bc: BoundaryCondition, tol: float) -> np.ndarray:
    """``S(1)`` of ``bc``, after :func:`require_valid` at ``tol``."""
    require_valid(bc, tol)
    return vertex_smatrices(bc.A[None], bc.B[None], [1.0])[0, 0]


def canonicalize(bc: BoundaryCondition, tol: float = DEFAULT_TOL) -> BoundaryCondition:
    """Canonical representative of the equivalence class of ``bc``: the Cayley
    pair ``(I - S(1), -i (I + S(1)))`` of its unit-energy S-matrix.

    Equivalent pairs have the same ``S(1)``, so they map to the same
    representative up to rounding, and the Cayley pair has ``S(1)`` again:
    Dirichlet maps to ``(2I, 0)`` and Neumann to ``(0, -2iI)``.

    Raises:
        InvalidBoundaryCondition: if ``bc`` is not admissible.
    """
    s = _unit_smatrix(bc, tol)
    eye = np.eye(bc.dim)
    return BoundaryCondition(eye - s, -1j * (eye + s))


def equivalent(bc1: BoundaryCondition, bc2: BoundaryCondition,
               tol: float = DEFAULT_TOL) -> bool:
    """Whether two admissible pairs define the same boundary condition.

    The criterion is ``A2 @ B1^dagger - B2 @ A1^dagger == 0`` (up to ``tol``
    at the scale of the products), which holds exactly when the two pairs have
    equal solution spaces.
    """
    if bc1.dim != bc2.dim:
        raise DimensionMismatch(
            f"cannot compare boundary conditions of sizes {bc1.dim} and {bc2.dim}")
    cross = bc2.A @ bc1.B.conj().T - bc2.B @ bc1.A.conj().T
    scale = max(
        1.0,
        numkernel.spectral_norm(bc2.A) * numkernel.spectral_norm(bc1.B),
        numkernel.spectral_norm(bc2.B) * numkernel.spectral_norm(bc1.A),
    )
    return numkernel.spectral_norm(cross) <= tol * scale


def dual(bc: BoundaryCondition, n_external: int, m_internal: int) -> BoundaryCondition:
    """Length/energy duality transform ``(A, B) -> (-B T, A T)``.

    ``T`` is diagonal with +1 on the ``n_external + m_internal`` leading
    endpoint slots and -1 on the trailing ``m_internal`` slots (the interval
    far ends).  Applying the transform twice returns an equivalent condition.
    """
    if n_external < 0 or m_internal < 0:
        raise InvalidParameters("external/internal counts must be nonnegative")
    if bc.dim != n_external + 2 * m_internal:
        raise DimensionMismatch(
            f"condition has size {bc.dim}, expected n + 2m = "
            f"{n_external + 2 * m_internal}")
    t = np.ones(bc.dim)
    t[n_external + m_internal:] = -1.0
    return BoundaryCondition(-bc.B * t, bc.A * t)


def is_real(bc: BoundaryCondition, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``bc`` is equivalent to its conjugate (:meth:`Admissibility.real`)."""
    return measure_admissibility(bc).real(tol)


def scale_invariant(bc: BoundaryCondition, tol: float = DEFAULT_TOL) -> bool:
    """Whether the S-matrix of ``bc`` is independent of energy.

    ``S(k)`` is constant exactly when every eigenvalue of ``S(1)`` is ``+-1``,
    that is when the unitary ``S(1)`` is Hermitian: ``||S(1) - S(1)^dagger||``
    is at most ``tol``.

    Raises:
        InvalidBoundaryCondition: if ``bc`` is not admissible.
    """
    return numkernel.hermiticity_defect(_unit_smatrix(bc, tol)) <= tol


# --------------------------------------------------------------------------
# named constructors
# --------------------------------------------------------------------------

def dirichlet(n: int) -> BoundaryCondition:
    """Endpoint values pinned to zero: ``(I, 0)``."""
    _check_size(n)
    return BoundaryCondition(np.eye(n), np.zeros((n, n)))


def neumann(n: int) -> BoundaryCondition:
    """Inward derivatives pinned to zero: ``(0, I)``."""
    _check_size(n)
    return BoundaryCondition(np.zeros((n, n)), np.eye(n))


def robin(phi: float) -> BoundaryCondition:
    """Single-endpoint condition ``sin(phi) psi + cos(phi) psi' = 0``."""
    if not np.isfinite(phi):
        raise InvalidParameters(f"angle must be finite, got {phi!r}")
    return BoundaryCondition([[np.sin(phi)]], [[np.cos(phi)]])


def kirchhoff_standard(n: int) -> BoundaryCondition:
    """Continuity of values plus vanishing sum of inward derivatives.

    Rows 0..n-2 force ``psi_j = psi_{j+1}``; the last row forces
    ``sum_j psi'_j = 0``.  For ``n == 1`` this degenerates to a Neumann end.
    """
    _check_size(n)
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    for j in range(n - 1):
        a[j, j] = 1.0
        a[j, j + 1] = -1.0
    b[n - 1, :] = 1.0
    return BoundaryCondition(a, b)


def delta_coupling(strength: float, mu: float = 0.0) -> BoundaryCondition:
    """Two-line junction with a point interaction of the given strength."""
    return sl2_coupling(1.0, 0.0, strength, 1.0, mu)


def delta_prime(strength: float) -> BoundaryCondition:
    """Two-line junction coupling values through the derivative jump."""
    return sl2_coupling(1.0, strength, 0.0, 1.0, 0.0)


def sl2_coupling(a: float, b: float, c: float, d: float,
                 mu: float = 0.0) -> BoundaryCondition:
    """Two-line transfer junction with real parameters, ``a d - b c = 1``.

    Channel 1 carries the boundary values on the left-hand side of the
    transfer relation: with inward derivatives,

        ``psi_1(0)  = e^{i mu} (a psi_2(0) - b psi_2'(0))``
        ``psi_1'(0) = e^{i mu} (c psi_2(0) - d psi_2'(0))``

    Raises:
        InvalidParameters: when the determinant condition fails or any
            parameter is non-finite.
    """
    try:
        params = np.array([a, b, c, d, mu], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameters(f"coupling parameters must be real numbers: {exc}")
    if not np.all(np.isfinite(params)):
        raise InvalidParameters("coupling parameters must be finite reals")
    if abs(a * d - b * c - 1.0) > 1e-12:
        raise InvalidParameters(
            f"parameters must satisfy a*d - b*c = 1, got {a * d - b * c!r}")
    emu = np.exp(1j * mu)
    amat = np.array([[-1.0, emu * a], [0.0, emu * c]])
    bmat = np.array([[0.0, -emu * b], [-1.0, -emu * d]])
    return BoundaryCondition(amat, bmat)


def cyclic_coupling(c: float, n: int) -> BoundaryCondition:
    """Nearest-neighbor cyclic coupling ``psi_j + c (psi'_{j-1} + psi'_{j+1}) = 0``.

    ``A`` is the identity and ``B`` the circulant with ``c`` on the two first
    off-diagonals (indices mod n).  Admissible for real ``c``; only odd ``n``
    at least 3 is supported.
    """
    if not isinstance(n, int) or n < 3 or n % 2 == 0:
        raise InvalidParameters(f"size must be an odd integer >= 3, got {n!r}")
    if not np.isfinite(c) or np.iscomplexobj(np.asarray(c)):
        raise InvalidParameters(f"coupling must be a finite real, got {c!r}")
    b = np.zeros((n, n), dtype=complex)
    for j in range(n):
        b[j, (j + 1) % n] = c
        b[j, (j - 1) % n] = c
    return BoundaryCondition(np.eye(n), b)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Gaussian, phases fixed)."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * np.sqrt(0.5)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_bc(n: int, seed) -> BoundaryCondition:
    """Random admissible boundary condition from a Haar unitary.

    Uses ``A = I - U`` and ``B = i (U + I)``, which always has maximal rank
    and Hermitian ``A @ B^dagger``; the result is re-validated before return.
    ``seed`` may be an int or a ``numpy.random.Generator``.
    """
    _check_size(n)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    u = random_unitary(n, rng)
    bc = BoundaryCondition(np.eye(n) - u, 1j * (u + np.eye(n)))
    require_valid(bc)
    return bc


def von_neumann_parameter(bc: BoundaryCondition, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unitary parametrizing ``bc`` among all self-adjoint extensions.

    Computed as the inverse of the unit-energy S-matrix of the shifted pair
    ``(A - B/sqrt(2), B/sqrt(2))``.  Neumann maps to ``iI`` and Dirichlet to
    ``-I``.
    """
    require_valid(bc, tol)
    # the shifted pair scaled by sqrt(2), which leaves S unchanged but makes the
    # B coefficients exact in floating point (the named special cases then come
    # out exact, not just close); it is admissible with bc, so A' + iB' is
    # invertible
    shifted = np.sqrt(2.0) * bc.A - bc.B
    return vertex_smatrices(shifted[None], bc.B[None], [1.0])[0, 0].conj().T


def localize(bc: BoundaryCondition, tol: float = DEFAULT_TOL) -> VertexPartition:
    """Finest splitting of ``bc`` into independent endpoint blocks.

    Two endpoints belong to the same block when they are connected through the
    entries of ``S(1)`` above ``tol`` in modulus.  ``S(1)`` and the Cayley pair
    of :func:`canonicalize` share their block structure, so these blocks are
    the finest ones; an endpoint coupled to no other is a singleton block.
    Blocks are sorted by their smallest endpoint index.

    Raises:
        InvalidBoundaryCondition: if ``bc`` is not admissible.
    """
    coupled = np.abs(_unit_smatrix(bc, tol)) > tol
    parent = list(range(bc.dim))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in zip(*np.nonzero(coupled)):
        parent[find(int(c))] = find(int(r))
    groups: dict[int, list[int]] = {}
    for j in range(bc.dim):
        groups.setdefault(find(j), []).append(j)
    return VertexPartition(tuple(tuple(g) for g in sorted(groups.values())))


def _check_size(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise InvalidParameters(f"size must be a positive integer, got {n!r}")
