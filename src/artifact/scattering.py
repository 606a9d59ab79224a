"""On-shell scattering on metric graphs: S-matrices, interior amplitudes,
embedded eigenvalues, and the identities they satisfy.

For a graph with ``n`` external and ``m`` internal lines and global boundary
condition ``(A, B)``, the scattering solution at energy ``E = k^2 > 0`` is the
plane-wave ansatz ``e^{-ikx} + S e^{ikx}`` on external lines and
``alpha e^{ikx} + beta e^{-ikx}`` on internal ones.  At each vertex the
condition maps the amplitudes arriving at its endpoints to the departing ones
by the vertex S-matrix ``S_v(k) = -(A_v + ikB_v)^{-1} (A_v - ikB_v)``, unitary
for every admissible coupling, and an internal line of length ``a`` carries
what departs from one end to the other with the phase ``exp(ika)`` (the bond
form of Kottos & Smilansky, Ann. Phys. 274, 76 (1999)).  With ``S_V`` the
vertex S-matrices in the ``n + 2m`` endpoint columns, ``J`` the swap of the
two ends of every line and ``T(k) = diag(exp(ika), exp(ika))``, the departing
internal amplitudes ``y`` solve

    ``B(k) y = S_ie``,  ``B(k) = I - S_ii J T``  (the 2m x 2m bond matrix),
    ``S = S_ee + S_ei J T y``,  ``alpha = y[:m]``,  ``beta = exp(ika) y[m:]``.

``S_ii J T`` is a contraction, so the singular values of ``B`` lie in
``[0, 2]`` at every energy and every test on ``sigma_min(B)`` is absolute.
``B`` is singular exactly at the eigenvalues embedded in the continuous
spectrum, located by :func:`spectrum`; a kernel vector of ``B`` sends nothing
out (``S_V`` is unitary), so the S block stays unique there and
:func:`solve_scattering` returns the minimum-norm solution with
``at_eigenvalue`` set.  :func:`build_xyz` forms the equivalent dense system
``Z(E) (S; alpha; beta) = -(A - ikB) (I; 0; 0)``, ``Z = A X + ik B Y``, as a
reference.

:func:`boundary.vertex_smatrices` evaluates the vertex S-matrices, for a
stack of vertices and wavenumbers (:func:`smatrix_single_vertex` is its
one-vertex case), and one generator forms ``B`` in batches along the energy
axis.  :func:`solve_many` (behind :func:`sweep`, :func:`solve_scattering`
and ``artifact sweep``) checks the whole grid in one array pass, certifies
each energy regular with one stacked inverse per batch, since
``sigma_min(B) >= 1/||B^{-1}||_F`` for every invertible ``B``, solves the
certified ones by LU and takes a full SVD only of the rest.  It writes every
batch into the columns of one :class:`ScatteringGrid` (``s`` is
``(G, n, n)``, and so on), whose one-energy view is
:class:`ScatteringResult`.  Every stage of
:func:`spectrum` needs ``sigma_min(B)`` itself and reads it from a
values-only SVD of each batch.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import boundary, numkernel
from .boundary import BoundaryCondition, InvalidBoundaryCondition
from .graph import GlobalBC

# Absolute threshold on sigma_min(B) below which the bond matrix counts as
# singular.
SINGULAR_TOL = 1e-8
# k * max(lengths) from which one rounding of the phase k a reaches 1 rad.
PHASE_BOUND = 2.0 ** 52
# Most energies a sweep or a spectrum scan may ask for.
MAX_GRID_POINTS = 10 ** 7
# Fixed iteration budget of the golden-section refinement.
GOLDEN_ITERATIONS = 40
# Default grid density: points per unit of max_length * (k_max - k_min).
GRID_DENSITY = 2000
# Complex entries of the scattered vertex S-matrices per batch: a batch holds
# max(1, CHUNK_ENTRIES // N^2) energies, so memory stays flat in the grid
# length and in N.
CHUNK_ENTRIES = 1 << 14
# ScatteringResult.solve_path values.
REGULAR = "regular"
MINIMUM_NORM = "minimum-norm"
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class NonpositiveEnergy(ValueError):
    """Raised when an operation needs an energy strictly above 0."""


class NoExternalLines(ValueError):
    """Raised when scattering is requested on a graph with no open channels."""


class BadWindow(ValueError):
    """Raised when a spectral search window is empty or nonpositive, or its
    grid has fewer than 3 or more than :data:`MAX_GRID_POINTS` points."""


class NotAnEigenvalue(ValueError):
    """Raised when an eigenfunction is requested at a regular energy."""


class OutOfDomain(ValueError):
    """Raised when a wavefunction is evaluated outside its line's domain."""


class InconsistentSystem(RuntimeError):
    """Raised at an energy beyond floating-point reach, or when the
    minimum-norm solve leaves a residual or an S block unitarity defect above
    1e-8.

    An energy is beyond reach once ``k * max(lengths) >= 2**52``
    (:data:`PHASE_BOUND`): one rounding of the phase ``k a`` is then at least
    1 rad, so ``exp(ika)`` carries no correct digit.  For admissible boundary
    conditions the scattering system is solvable at every positive energy and
    its S block is unitary, so a failed minimum-norm solve signals corrupted
    input rather than a legitimate outcome.
    """


@dataclass(frozen=True)
class ScatteringResult:
    """Scattering data at one energy: the view of one energy of a
    :class:`ScatteringGrid`.

    ``s`` is n x n; ``alpha``/``beta`` are m x n (column = incoming channel).
    ``at_eigenvalue`` marks energies where the bond matrix ``B(k)`` was
    numerically singular (``sigma_min(B) < tol``, absolute); the S block is
    unique there but alpha/beta are the minimum-norm choice.
    ``sigma_min_bound`` is a lower bound on ``sigma_min(B)``, in ``[0, 2]``:
    ``1/||B^{-1}||_F`` where that bound alone certified the energy regular,
    ``sigma_min(B)`` itself where an SVD of ``B`` ran, and 1 for a graph
    without internal lines, which has no ``B``.  ``solve_path``, read from
    ``at_eigenvalue``, says which solve ran: :data:`MINIMUM_NORM` (truncated
    SVD) exactly when ``at_eigenvalue``, :data:`REGULAR` (LU) otherwise.
    """

    energy: float
    s: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    at_eigenvalue: bool
    unitarity_defect: float
    sigma_min_bound: float

    @property
    def solve_path(self) -> str:
        return MINIMUM_NORM if self.at_eigenvalue else REGULAR


@dataclass
class ScatteringGrid:
    """Scattering data over an energy grid, stacked along the energy axis:
    what :func:`solve_many` returns.

    ``energies`` is ``(G,)``, ``s`` is ``(G, n, n)``, ``alpha``/``beta`` are
    ``(G, m, n)``, and ``unitarity_defect``, ``sigma_min_bound`` and
    ``at_eigenvalue`` are ``(G,)``, each entry with the meaning of the
    :class:`ScatteringResult` field.  ``at_eigenvalue`` is read from
    ``sigma_min_bound < tol``, the absolute threshold the grid was solved
    at.  ``errors[i]`` is ``None`` where the i-th energy was solved and
    otherwise the exception :func:`solve_scattering` raises there; the
    arrays hold NaN (so ``at_eigenvalue`` is False) at such an energy.

    ``len``, iteration and integer indexing give, per energy, the
    :class:`ScatteringResult` view (its arrays are views of these) or the
    stored exception.
    """

    energies: np.ndarray
    s: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    unitarity_defect: np.ndarray
    sigma_min_bound: np.ndarray
    errors: list
    tol: float

    @property
    def at_eigenvalue(self) -> np.ndarray:
        return self.sigma_min_bound < self.tol

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, i):
        error = self.errors[operator.index(i)]
        if error is not None:
            return error
        return ScatteringResult(
            energy=float(self.energies[i]),
            s=self.s[i],
            alpha=self.alpha[i],
            beta=self.beta[i],
            at_eigenvalue=bool(self.sigma_min_bound[i] < self.tol),
            unitarity_defect=float(self.unitarity_defect[i]),
            sigma_min_bound=float(self.sigma_min_bound[i]),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def _blank(self, rows) -> None:
        """NaN in every array at the energies ``rows`` selects."""
        self.s[rows] = self.alpha[rows] = self.beta[rows] = np.nan
        self.unitarity_defect[rows] = self.sigma_min_bound[rows] = np.nan


@dataclass(frozen=True)
class SpectrumResult:
    """Embedded eigenvalues found in a window, sorted ascending.

    ``residuals[i]`` is ``sigma_min(B)`` at ``eigenvalues[i]``.
    """

    eigenvalues: tuple
    residuals: tuple
    search_window: tuple
    grid_points: int


def _refusals(energies: np.ndarray, max_length: float) -> tuple[np.ndarray, list]:
    """``(accepted, errors)`` for a ``(G,)`` grid of energies, in one array
    pass: ``errors[i]`` is the exception refusing the i-th energy or ``None``,
    and ``accepted`` is the boolean mask of the ``None`` slots.

    An energy that is not finite and > 0 is a :class:`NonpositiveEnergy`; one
    with ``k * max_length >= PHASE_BOUND`` is an :class:`InconsistentSystem`.
    """
    errors = [None] * len(energies)
    positive = np.isfinite(energies) & (energies > 0.0)
    reach = np.sqrt(np.where(positive, energies, 0.0)) * max_length
    accepted = positive & (reach < PHASE_BOUND)
    for i in (~accepted).nonzero()[0].tolist():
        if positive[i]:
            errors[i] = InconsistentSystem(
                f"k * max(lengths) = {reach[i]:.3e} reaches 2**52: the bond "
                f"phases exp(ika) carry no correct digit")
        else:
            errors[i] = NonpositiveEnergy(
                f"energy must be finite and > 0, got {float(energies[i])!r}")
    return accepted, errors


def _check_energy(energy: float, max_length: float = 0.0) -> float:
    """``energy`` as a float, or the exception :func:`_refusals` holds for it
    raised."""
    energy = float(energy)
    error = _refusals(np.array([energy]), max_length)[1][0]
    if error is not None:
        raise error
    return energy


def _max_length(gbc: GlobalBC) -> float:
    """The longest internal line, 0 without internal lines (no phase to lose)."""
    return max(gbc.lengths, default=0.0)


def smatrix_single_vertex(bc: BoundaryCondition, energy: float,
                          tol: float = boundary.DEFAULT_TOL) -> np.ndarray:
    """On-shell S-matrix of a single vertex with only external lines.

    Evaluates ``S(E) = -(A + ikB)^{-1} (A - ikB)``, which is unitary for every
    admissible condition and every ``E > 0``.
    """
    energy = _check_energy(energy)
    boundary.require_valid(bc, tol)
    return boundary.vertex_smatrices(bc.A[None], bc.B[None], [np.sqrt(energy)])[0, 0]


def _scattered(gbc: GlobalBC, ks) -> tuple[np.ndarray, np.ndarray]:
    """``(w, phases)`` at every wavenumber of ``ks``: ``phases = exp(ika)``,
    ``(len(ks), m)``, and the vertex S-matrices scattered once by their
    columns into ``w``, ``(len(ks), N, N)``, with ``S_V`` in the external
    columns, ``-S_V J T`` in the internal ones and the identity added to the
    internal block.  So ``w[:, n:, :n]`` is ``S_ie``, ``w[:, n:, n:]`` is the
    bond matrix ``B = I - S_ii J T``, and
    ``S = w[:, :n, :n] - w[:, :n, n:] @ B^{-1} S_ie``."""
    ks = np.asarray(ks, dtype=float)
    n, m = gbc.n, gbc.m
    size = n + 2 * m
    # column c of S_V is column swap[c] of S_V J
    swap = np.concatenate([np.arange(n), np.arange(n + m, size), np.arange(n, n + m)])
    w = np.zeros((len(ks), size, size), dtype=complex)
    for cols, a_blocks, b_blocks in gbc.vertex_blocks():
        w[:, cols[:, :, None], swap[cols][:, None, :]] = \
            boundary.vertex_smatrices(a_blocks, b_blocks, ks)
    phases = np.exp(1j * (ks[:, None] * np.asarray(gbc.lengths)))
    # both ends of every line, then the internal diagonal as a strided view
    w[:, :, n:] *= -np.concatenate([phases, phases], axis=1)[:, None, :]
    w.reshape(len(ks), -1)[:, n * (size + 1)::size + 1] += 1.0
    return w, phases


def _sigma_min(sigma: np.ndarray) -> np.ndarray:
    """The smallest of each row of singular values, 1 for empty rows (no
    internal lines, no bond matrix)."""
    return sigma[..., -1] if sigma.shape[-1] else np.ones(sigma.shape[:-1])


def _batches(gbc: GlobalBC, ks):
    """``(part, w, phases)`` for each batch of CHUNK_ENTRIES entries:
    ``(w, phases)`` is :func:`_scattered` at the array slice ``ks[part]``.
    Every bond matrix on the energy axis is formed here."""
    size = gbc.n + 2 * gbc.m
    step = max(1, CHUNK_ENTRIES // max(1, size * size))
    for start in range(0, len(ks), step):
        part = slice(start, start + step)
        yield (part, *_scattered(gbc, ks[part]))


def _inverse_bounds(bond: np.ndarray) -> np.ndarray:
    """``1/||B^{-1}||_F`` for each matrix of a ``(G, d, d)`` stack, a lower
    bound on ``sigma_min(B)``: 1 for ``d = 0``, 0 where the inverse is not
    finite, and 0 for the whole stack when one member is exactly singular."""
    if not bond.shape[-1]:
        return np.ones(len(bond))
    # a nearly singular B has an inverse whose squares overflow: the bound
    # then reads 0 and the energy goes to the SVD
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            inverse = np.linalg.inv(bond)
        except np.linalg.LinAlgError:
            return np.zeros(len(bond))
        flat = inverse.view(float)
        bound = 1.0 / np.sqrt(np.einsum("gij,gij->g", flat, flat))
    return np.where(np.isfinite(bound), bound, 0.0)


def build_xyz(gbc: GlobalBC, energy: float):
    """The matrices ``X(E)``, ``Y(E)`` and ``Z(E) = A X + ik B Y`` of the dense
    scattering system ``Z (S; alpha; beta) = -(A - ikB) (I; 0; 0)``.

    Endpoint order is (externals, internal near ends, internal far ends);
    with no internal lines both X and Y degenerate to the identity.  The
    solver works on the bond matrix instead; this system is the reference it
    is checked against.
    """
    energy = _check_energy(energy)
    n, m = gbc.n, gbc.m
    k = np.sqrt(energy)
    size = n + 2 * m
    x = np.eye(size, dtype=complex)
    y = np.eye(size, dtype=complex)
    if m:
        phases = np.exp(1j * k * np.asarray(gbc.lengths))
        sl0 = slice(n, n + m)
        sla = slice(n + m, n + 2 * m)
        x[sl0, sla] = np.eye(m)
        x[sla, sl0] = np.diag(phases)
        x[sla, sla] = np.diag(1.0 / phases)
        y[sl0, sla] = -np.eye(m)
        y[sla, sl0] = -np.diag(phases)
        y[sla, sla] = np.diag(1.0 / phases)
    return x, y, gbc.bc.A @ x + 1j * k * gbc.bc.B @ y


def _minimum_norm_solve(bond: np.ndarray, rhs: np.ndarray, u: np.ndarray,
                        sigma: np.ndarray, vh: np.ndarray, tol: float) -> np.ndarray:
    """The least-norm solution of ``bond @ y = rhs`` from the SVD
    ``bond = u diag(sigma) vh``, with the singular values below ``tol`` taken
    as zeros."""
    keep = sigma >= tol
    y = vh[keep].conj().T @ ((u[:, keep].conj().T @ rhs) / sigma[keep, None])
    residual = numkernel.spectral_norm(bond @ y - rhs)
    if residual > 1e-8:
        raise InconsistentSystem(f"minimum-norm solve left residual {residual:.3e}")
    return y


def _solve_batch(gbc: GlobalBC, w: np.ndarray, phases: np.ndarray, tol: float,
                 grid: ScatteringGrid, rows: np.ndarray) -> None:
    """Solve one batch of :func:`_batches` for an admissible ``gbc`` with
    external lines and write it into the ``rows`` of ``grid``; a refused
    minimum-norm solve leaves an :class:`InconsistentSystem` in its slot.

    An energy whose :func:`_inverse_bounds` reaches ``tol`` is regular without
    an SVD.  Every other one takes a full SVD of ``B``: its ``sigma_min(B)``
    decides, and on a singular energy it gives the minimum-norm solve too.
    The regular energies are solved together by LU."""
    n, m = gbc.n, gbc.m
    bond, rhs = w[:, n:, n:], w[:, n:, :n]
    bound = _inverse_bounds(bond)
    y = np.zeros_like(rhs)
    failed = {}
    for i in (bound < tol).nonzero()[0]:
        u, sigma, vh = np.linalg.svd(bond[i])
        bound[i] = _sigma_min(sigma)
        if bound[i] < tol:
            try:
                y[i] = _minimum_norm_solve(bond[i], rhs[i], u, sigma, vh, tol)
            except InconsistentSystem as exc:
                failed[i] = exc
    singular = bound < tol
    regular = ~singular
    y[regular] = np.linalg.solve(bond[regular], rhs[regular])
    s = w[:, :n, :n] - w[:, :n, n:] @ y
    defects = numkernel.unitarity_defects(s)
    for i in (singular & (defects > 1e-8)).nonzero()[0]:
        failed.setdefault(i, InconsistentSystem(
            f"minimum-norm solve gave an S block with unitarity defect {defects[i]:.3e}"))
    grid.s[rows] = s
    grid.alpha[rows] = y[:, :m]
    grid.beta[rows] = phases[:, :, None] * y[:, m:]
    grid.unitarity_defect[rows] = defects
    grid.sigma_min_bound[rows] = bound
    if failed:
        for i, exc in failed.items():
            grid.errors[rows[i]] = exc
        grid._blank(rows[list(failed)])


def solve_many(gbc: GlobalBC, energies, tol: float = SINGULAR_TOL) -> ScatteringGrid:
    """:func:`solve_scattering` at every energy of a grid, batched over energies.

    The grid is checked in one array pass.  Each batch of bond matrices is
    then inverted once: an energy with ``1/||B^{-1}||_F >= tol`` is certified
    regular, since that bound never exceeds ``sigma_min(B)``, and the
    certified energies are solved together by LU.  Only the other energies
    take a full SVD of ``B``, which both decides ``sigma_min(B) < tol`` and
    gives the minimum-norm solve, so the ``at_eigenvalue`` flags are those of
    an SVD at every energy.  Each batch is written into the columns of one
    :class:`ScatteringGrid`; no per-energy object is built.

    Returns:
        the :class:`ScatteringGrid` of the energies, in grid order.  Where an
        energy failed, its ``errors`` slot holds the exception
        :func:`solve_scattering` raises there (``NonpositiveEnergy``,
        ``InvalidBoundaryCondition`` or ``InconsistentSystem``).

    Raises:
        NoExternalLines: when ``gbc`` has no external lines.
    """
    if gbc.n == 0:
        raise NoExternalLines("graph has no external lines to scatter on")
    energies = np.array(energies, dtype=float)
    accepted, errors = _refusals(energies, _max_length(gbc))
    g, n, m = len(energies), gbc.n, gbc.m
    grid = ScatteringGrid(
        energies=energies,
        s=np.empty((g, n, n), dtype=complex),
        alpha=np.empty((g, m, n), dtype=complex),
        beta=np.empty((g, m, n), dtype=complex),
        unitarity_defect=np.empty(g),
        sigma_min_bound=np.empty(g),
        errors=errors,
        tol=tol,
    )
    try:
        gbc.require_admissible()
    except InvalidBoundaryCondition as exc:
        errors[:] = [exc if e is None else e for e in errors]
        accepted[:] = False
    rows = accepted.nonzero()[0]
    if len(rows) < g:
        grid._blank(~accepted)
    for part, w, phases in _batches(gbc, np.sqrt(energies[rows])):
        _solve_batch(gbc, w, phases, tol, grid, rows[part])
    return grid


def solve_scattering(gbc: GlobalBC, energy: float,
                     tol: float = SINGULAR_TOL) -> ScatteringResult:
    """Solve for the S-matrix and interior amplitudes at one energy: the one
    energy of a :func:`solve_many` grid.

    Args:
        gbc: assembled global boundary condition (must be admissible).
        energy: energy, strictly positive.
        tol: absolute singularity threshold on ``sigma_min(B)`` of the bond
            matrix, whose singular values lie in ``[0, 2]``; below it the
            system is solved for its minimum-norm solution and
            ``at_eigenvalue`` is set.  The energy is certified regular
            without an SVD when ``1/||B^{-1}||_F >= tol`` (see
            :func:`solve_many`).

    Raises:
        NonpositiveEnergy, NoExternalLines, InvalidBoundaryCondition,
        InconsistentSystem (also beyond :data:`PHASE_BOUND`).
    """
    outcome = solve_many(gbc, [energy], tol)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _smallest_sigmas(gbc: GlobalBC, ks) -> np.ndarray:
    """``sigma_min(B(k))`` for every k in ``ks``, from one values-only SVD
    per batch."""
    ks = np.asarray(ks, dtype=float)
    bottom = np.empty(len(ks))
    for part, w, _ in _batches(gbc, ks):
        bond = w[:, gbc.n:, gbc.n:]
        bottom[part] = _sigma_min(np.linalg.svd(bond, compute_uv=False))
    return bottom


def _golden_minimize(f, lo, hi, iterations: int = GOLDEN_ITERATIONS):
    """Arrays ``(x_min, f_min)`` of golden-section searches on ``[lo[i], hi[i]]``
    in lockstep: one call of the vectorized ``f`` per step, and each bracket
    goes through the float operations of a one-bracket search."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = np.split(f(np.concatenate([c, d])), 2)
    for _ in range(iterations):
        left = fc <= fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        probe = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        fp = f(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    left = fc <= fd
    return np.where(left, c, d), np.where(left, fc, fd)


def spectrum(gbc: GlobalBC, e_min: float, e_max: float, grid: int | None = None,
             tol: float = SINGULAR_TOL) -> SpectrumResult:
    """Locate the embedded eigenvalues in ``(e_min, e_max]``.

    Scans ``sigma_min(B)`` of the bond matrix on a grid uniform in
    ``k = sqrt(E)``, takes each local minimum below ``max(1e-2, 10 tol)`` as a
    candidate, refines all candidates in lockstep by golden-section search
    (fixed iteration count, one batched decomposition per step), accepts a
    candidate when the refined ``sigma_min(B) < tol`` (absolute: the singular
    values of ``B`` lie in ``[0, 2]``) and merges those within half a grid
    step in ``k``.  One ending within the last golden bracket or 4 ulps of
    ``sqrt(e_min)`` is the excluded left edge and is dropped.

    Args:
        grid: number of scan points; defaults to about 2000 per unit of
            ``max(lengths) * (sqrt(e_max) - sqrt(e_min))``.

    Raises:
        BadWindow: unless ``0 < e_min < e_max`` and both are finite, or when
            the grid, given or default, has fewer than 3 or more than
            :data:`MAX_GRID_POINTS` points.
        InconsistentSystem: when ``e_max`` is beyond :data:`PHASE_BOUND`.
    """
    if not (np.isfinite(e_min) and np.isfinite(e_max)) or not 0.0 < e_min < e_max:
        raise BadWindow(f"need 0 < e_min < e_max, got ({e_min!r}, {e_max!r})")
    gbc.require_admissible()
    if gbc.m == 0:
        # no internal lines: no bond matrix, no embedded eigenvalue
        return SpectrumResult((), (), (float(e_min), float(e_max)), 0)

    _check_energy(e_max, _max_length(gbc))
    k_lo, k_hi = np.sqrt(e_min), np.sqrt(e_max)
    if grid is None:
        grid = max(200.0, np.ceil(GRID_DENSITY * max(gbc.lengths) * (k_hi - k_lo)))
    if not 3 <= grid <= MAX_GRID_POINTS:
        raise BadWindow(f"grid must have 3 to {MAX_GRID_POINTS} points, got {grid!r}")
    grid = int(grid)
    ks = np.linspace(k_lo, k_hi, grid)
    h = ks[1] - ks[0]
    sigmas = _smallest_sigmas(gbc, ks)

    padded = np.concatenate([[np.inf], sigmas, [np.inf]])
    minima = np.flatnonzero((sigmas <= padded[:-2]) & (sigmas <= padded[2:])
                            & (sigmas < max(1e-2, 10.0 * tol)))
    # the window excludes its left edge: a search ending within its last
    # bracket (at most 2h wide at the start) or 4 ulps of k_lo found the edge
    edge = k_lo + max(2.0 * h * _GOLDEN ** GOLDEN_ITERATIONS, 4.0 * np.spacing(k_lo))
    merged: list[tuple[float, float]] = []
    if minima.size:
        k_star, r_star = _golden_minimize(
            lambda k: _smallest_sigmas(gbc, k),
            ks[np.maximum(minima - 1, 0)], ks[np.minimum(minima + 1, grid - 1)])
        for k, r in sorted(zip(k_star, r_star.tolist())):
            if r >= tol or k <= edge:
                continue
            # searches from neighbouring minima found the same eigenvalue
            if merged and k - merged[-1][0] <= h / 2:
                if r < merged[-1][1]:
                    merged[-1] = (k, r)
            else:
                merged.append((k, r))

    eigenvalues = tuple(float(k ** 2) for k, _ in merged)
    residuals = _smallest_sigmas(gbc, np.sqrt(eigenvalues))
    return SpectrumResult(eigenvalues, tuple(float(r) for r in residuals),
                          (float(e_min), float(e_max)), grid)


def eigenfunction(gbc: GlobalBC, energy: float, tol: float = SINGULAR_TOL):
    """Orthonormal basis of the bound states at ``energy`` as
    ``(alpha_hat, beta_hat)`` pairs.

    Each pair comes from a kernel vector ``y`` of the bond matrix ``B(k)``
    (``alpha_hat = y[:m]``, ``beta_hat = exp(ika) y[m:]``): the singular
    vectors of ``sigma < tol``, absolute.  Eigenfunctions are supported on
    the internal lines, so no external amplitude is returned.

    Raises:
        NotAnEigenvalue: when ``B`` has no singular value below ``tol``.
        InconsistentSystem: beyond :data:`PHASE_BOUND`.
    """
    energy = _check_energy(energy, _max_length(gbc))
    gbc.require_admissible()
    k = np.sqrt(energy)
    n, m = gbc.n, gbc.m
    w, phases = _scattered(gbc, [k])
    _, sigma, vh = np.linalg.svd(w[0, n:, n:])
    kernel = vh[sigma < tol].conj()
    if not len(kernel):
        raise NotAnEigenvalue(
            f"sigma_min(B) = {_sigma_min(sigma):.3e} at energy {energy!r}, "
            f"not below tolerance {tol:g}")
    return [(y[:m].copy(), phases[0] * y[m:]) for y in kernel]


def evaluate_wavefunction(gbc: GlobalBC, result: ScatteringResult, channel: int,
                          line: tuple, x: float) -> complex:
    """Value of the scattering solution for an incoming ``channel`` at point
    ``x`` of ``line`` (``("ext", j)`` or ``("int", j)`` by index).

    Raises:
        OutOfDomain: for non-finite or negative ``x``, or ``x`` beyond an
            internal line's length.
    """
    if not 0 <= channel < gbc.n:
        raise ValueError(f"channel must index an external line, got {channel!r}")
    if not np.isfinite(x) or x < 0:
        raise OutOfDomain(f"coordinate must be finite and >= 0, got {x!r}")
    k = np.sqrt(result.energy)
    kind, j = line
    if kind == "ext":
        if not 0 <= j < gbc.n:
            raise ValueError(f"no external line with index {j!r}")
        value = result.s[j, channel] * np.exp(1j * k * x)
        if j == channel:
            value += np.exp(-1j * k * x)
        return complex(value)
    if kind == "int":
        if not 0 <= j < gbc.m:
            raise ValueError(f"no internal line with index {j!r}")
        if x > gbc.lengths[j]:
            raise OutOfDomain(
                f"coordinate {x!r} beyond line length {gbc.lengths[j]!r}")
        return complex(result.alpha[j, channel] * np.exp(1j * k * x)
                       + result.beta[j, channel] * np.exp(-1j * k * x))
    raise ValueError(f"line kind must be 'ext' or 'int', got {kind!r}")


def check_transpose(gbc: GlobalBC, energy: float) -> float:
    """Defect of the transposition identity: conjugating the boundary condition
    transposes the S-matrix.  For real conditions the S-matrix itself is
    symmetric and that stronger identity is included in the defect."""
    res = solve_scattering(gbc, energy)
    # conjugation keeps every admissibility number exactly
    conj = GlobalBC(gbc.n, gbc.m, gbc.lengths, gbc.bc.conjugate(),
                    gbc.admissibility_numbers())
    res_c = solve_scattering(conj, energy)
    defect = numkernel.spectral_norm(res_c.s.T - res.s)
    if gbc.is_real():
        defect = max(defect, numkernel.spectral_norm(res.s.T - res.s))
    return float(defect)


def check_duality(gbc: GlobalBC, energy: float) -> float:
    """Defect of the length/energy duality.

    The transformed condition ``(-B T, A T)`` with all lengths scaled by E,
    evaluated at energy ``1/E``, must reproduce ``-S``, ``-alpha``, ``beta``.
    Meaningful away from embedded eigenvalues (alpha/beta are unique there).
    """
    energy = _check_energy(energy)
    res = solve_scattering(gbc, energy)
    # each row of [-B T | A T] is its row of [A | B], signed and permuted
    themed = GlobalBC(
        gbc.n, gbc.m,
        tuple(energy * a for a in gbc.lengths),
        boundary.dual(gbc.bc, gbc.n, gbc.m),
        gbc.admissibility_numbers(),
    )
    res_d = solve_scattering(themed, 1.0 / energy)
    return float(max(
        numkernel.spectral_norm(res_d.s + res.s),
        numkernel.spectral_norm(res_d.alpha + res.alpha),
        numkernel.spectral_norm(res_d.beta - res.beta),
    ))


def check_covariance(gbc: GlobalBC, u, energy: float) -> float:
    """Defect of unitary channel covariance.

    Post-composing ``(A, B)`` with ``diag(U, I, I)`` for a unitary ``U`` on the
    external channels maps ``S -> U^{-1} S U``, ``alpha -> alpha U`` and
    ``beta -> beta U``.
    """
    u = numkernel.as_complex_matrix(u, "channel unitary")
    if u.shape != (gbc.n, gbc.n):
        raise boundary.DimensionMismatch(
            f"channel unitary must be {gbc.n} x {gbc.n}, got {u.shape}")
    res = solve_scattering(gbc, energy)
    u_hat = np.eye(gbc.n + 2 * gbc.m, dtype=complex)
    u_hat[:gbc.n, :gbc.n] = u
    # (A U)(B U)^T = A U U^T B^T: a complex U changes the reality defect, so
    # the rotated pair is measured rather than given the source's numbers
    transformed = GlobalBC(gbc.n, gbc.m, gbc.lengths,
                           BoundaryCondition(gbc.bc.A @ u_hat, gbc.bc.B @ u_hat))
    res_t = solve_scattering(transformed, energy)
    return float(max(
        numkernel.spectral_norm(res_t.s - u.conj().T @ res.s @ u),
        numkernel.spectral_norm(res_t.alpha - res.alpha @ u),
        numkernel.spectral_norm(res_t.beta - res.beta @ u),
    ))


def sweep(gbc: GlobalBC, energies, tol: float = SINGULAR_TOL):
    """Scattering results over an energy grid, plus transmission probabilities.

    Args:
        energies: sequence of energies, each > 0.

    Returns:
        ``(results, probabilities)``: the :class:`ScatteringGrid` of
        :func:`solve_many` and the ``(G, n, n)`` array of ``|S_jk|^2``, taken
        in one call on ``results.s``.

    Raises:
        the first error :func:`solve_scattering` raises on the grid.
    """
    result = solve_many(gbc, energies, tol)
    for error in result.errors:
        if error is not None:
            raise error
    return result, np.abs(result.s) ** 2
