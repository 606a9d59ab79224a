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

One function evaluates vertex S-matrices, for a stack of vertices and
wavenumbers (:func:`smatrix_single_vertex` is its one-vertex case), and one
generator forms ``B`` in batches along the energy axis.  :func:`solve_many`
(behind :func:`sweep`, :func:`solve_scattering` and ``artifact sweep``)
certifies each energy regular with one stacked inverse per batch, since
``sigma_min(B) >= 1/||B^{-1}||_F`` for every invertible ``B``, solves the
certified ones by LU and takes a full SVD only of the rest; every stage of
:func:`spectrum` needs ``sigma_min(B)`` itself and reads it from a values-only
SVD of each batch.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

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
# Candidate eigenvalues closer than this (relatively) are merged.
MERGE_RELATIVE = 1e-6
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
    """Scattering data at one energy.

    ``s`` is n x n; ``alpha``/``beta`` are m x n (column = incoming channel).
    ``at_eigenvalue`` marks energies where the bond matrix ``B(k)`` was
    numerically singular (``sigma_min(B) < tol``, absolute); the S block is
    unique there but alpha/beta are the minimum-norm choice.
    ``sigma_min_bound`` is a lower bound on ``sigma_min(B)``, in ``[0, 2]``:
    ``1/||B^{-1}||_F`` where that bound alone certified the energy regular,
    ``sigma_min(B)`` itself where an SVD of ``B`` ran, and 1 for a graph
    without internal lines, which has no ``B``.  ``solve_path`` says which
    solve ran: :data:`REGULAR` (LU) or :data:`MINIMUM_NORM` (truncated SVD,
    exactly when ``at_eigenvalue``).
    """

    energy: float
    s: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    at_eigenvalue: bool
    unitarity_defect: float
    sigma_min_bound: float
    solve_path: str


@dataclass(frozen=True)
class SpectrumResult:
    """Embedded eigenvalues found in a window, sorted ascending.

    ``residuals[i]`` is ``sigma_min(B)`` at ``eigenvalues[i]``.
    """

    eigenvalues: tuple
    residuals: tuple
    search_window: tuple
    grid_points: int


def _check_energy(energy: float) -> float:
    energy = float(energy)
    if not np.isfinite(energy) or energy <= 0.0:
        raise NonpositiveEnergy(f"energy must be finite and > 0, got {energy!r}")
    return energy


def _check_phase(gbc: GlobalBC, k: float) -> None:
    """Raise :class:`InconsistentSystem` when ``k`` is beyond :data:`PHASE_BOUND`."""
    if gbc.m and k * max(gbc.lengths) >= PHASE_BOUND:
        raise InconsistentSystem(
            f"k * max(lengths) = {k * max(gbc.lengths):.3e} reaches 2**52: the "
            f"bond phases exp(ika) carry no correct digit")


def _vertex_smatrices(a_blocks: np.ndarray, b_blocks: np.ndarray, ks) -> np.ndarray:
    """``S_v(k) = -(A_v + ikB_v)^{-1} (A_v - ikB_v)`` for every pair of a
    ``(V, d, d)`` stack and every wavenumber of ``ks``, as a
    ``(len(ks), V, d, d)`` stack from one batched LU solve: ``A + ikB`` is
    invertible for every admissible pair and real ``k != 0``."""
    ikb = 1j * np.asarray(ks, dtype=float)[:, None, None, None] * b_blocks
    return -np.linalg.solve(a_blocks + ikb, a_blocks - ikb)


def smatrix_single_vertex(bc: BoundaryCondition, energy: float,
                          tol: float = boundary.DEFAULT_TOL) -> np.ndarray:
    """On-shell S-matrix of a single vertex with only external lines.

    Evaluates ``S(E) = -(A + ikB)^{-1} (A - ikB)``, which is unitary for every
    admissible condition and every ``E > 0``.
    """
    energy = _check_energy(energy)
    boundary.require_valid(bc, tol)
    return _vertex_smatrices(bc.A[None], bc.B[None], [np.sqrt(energy)])[0, 0]


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
            _vertex_smatrices(a_blocks, b_blocks, ks)
    phases = np.exp(1j * (ks[:, None] * np.asarray(gbc.lengths)))
    for ends in (slice(n, n + m), slice(n + m, size)):
        w[:, :, ends] *= -phases[:, None, :]
    inner = np.arange(n, size)
    w[:, inner, inner] += 1.0
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


def _solve_batch(gbc: GlobalBC, energies: np.ndarray, w: np.ndarray,
                 phases: np.ndarray, tol: float) -> list:
    """Results at checked energies of an admissible ``gbc`` with external lines,
    from one batch of :func:`_batches`; an :class:`InconsistentSystem`
    instance stands for a refused minimum-norm solve.

    An energy whose :func:`_inverse_bounds` reaches ``tol`` is regular without
    an SVD.  Every other one takes a full SVD of ``B``: its ``sigma_min(B)``
    decides, and on a singular energy it gives the minimum-norm solve too.
    The regular energies are solved together by LU."""
    n, m = gbc.n, gbc.m
    bond, rhs = w[:, n:, n:], w[:, n:, :n]
    bound = _inverse_bounds(bond)
    y = np.zeros_like(rhs)
    failed = {}
    for i in np.flatnonzero(bound < tol):
        u, sigma, vh = np.linalg.svd(bond[i])
        bound[i] = _sigma_min(sigma)
        if bound[i] < tol:
            try:
                y[i] = _minimum_norm_solve(bond[i], rhs[i], u, sigma, vh, tol)
            except InconsistentSystem as exc:
                failed[i] = exc
    singular = bound < tol
    regular = np.flatnonzero(~singular)
    if regular.size:
        y[regular] = np.linalg.solve(bond[regular], rhs[regular])
    s = w[:, :n, :n] - w[:, :n, n:] @ y
    defects = numkernel.unitarity_defects(s)
    for i in np.flatnonzero(singular & (defects > 1e-8)):
        failed.setdefault(i, InconsistentSystem(
            f"minimum-norm solve gave an S block with unitarity defect {defects[i]:.3e}"))
    beta = phases[:, :, None] * y[:, m:]
    results = []
    for i, energy in enumerate(energies):
        if i in failed:
            results.append(failed[i])
            continue
        results.append(ScatteringResult(
            energy=float(energy),
            s=s[i],
            alpha=y[i, :m],
            beta=beta[i],
            at_eigenvalue=bool(singular[i]),
            unitarity_defect=float(defects[i]),
            sigma_min_bound=float(bound[i]),
            solve_path=MINIMUM_NORM if singular[i] else REGULAR,
        ))
    return results


def solve_many(gbc: GlobalBC, energies, tol: float = SINGULAR_TOL) -> list:
    """:func:`solve_scattering` at every energy of a grid, batched over energies.

    Each batch of bond matrices is inverted once: an energy with
    ``1/||B^{-1}||_F >= tol`` is certified regular, since that bound never
    exceeds ``sigma_min(B)``, and the certified energies are solved together
    by LU.  Only the other energies take a full SVD of ``B``, which both
    decides ``sigma_min(B) < tol`` and gives the minimum-norm solve, so the
    ``at_eigenvalue`` flags are those of an SVD at every energy.

    Returns, in grid order, a :class:`ScatteringResult` per energy or, where
    the solve failed, the exception :func:`solve_scattering` raises there
    (``NonpositiveEnergy``, ``InvalidBoundaryCondition`` or
    ``InconsistentSystem``).

    Raises:
        NoExternalLines: when ``gbc`` has no external lines.
    """
    if gbc.n == 0:
        raise NoExternalLines("graph has no external lines to scatter on")
    grid = list(energies)
    try:
        gbc.require_admissible()
    except InvalidBoundaryCondition as exc:
        return [exc] * len(grid)
    outcomes: list = [None] * len(grid)
    index, checked = [], []
    for i, e in enumerate(grid):
        try:
            energy = _check_energy(e)
            _check_phase(gbc, np.sqrt(energy))
        except (NonpositiveEnergy, InconsistentSystem) as exc:
            outcomes[i] = exc
            continue
        checked.append(energy)
        index.append(i)
    checked = np.array(checked, dtype=float)
    for part, w, phases in _batches(gbc, np.sqrt(checked)):
        batch = _solve_batch(gbc, checked[part], w, phases, tol)
        for i, out in zip(index[part], batch):
            outcomes[i] = out
    return outcomes


def solve_scattering(gbc: GlobalBC, energy: float,
                     tol: float = SINGULAR_TOL) -> ScatteringResult:
    """Solve for the S-matrix and interior amplitudes at one energy.

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
    energy = _check_energy(energy)
    (outcome,) = solve_many(gbc, [energy], tol)
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
    (fixed iteration count, one batched decomposition per step), merges
    candidates within 1e-6 relative energy, and accepts a candidate when the
    refined ``sigma_min(B) < tol`` (absolute: the singular values of ``B`` lie
    in ``[0, 2]``).  A candidate within 1e-6 relative energy of ``e_min`` is
    the excluded left edge and is dropped.

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

    k_lo, k_hi = np.sqrt(e_min), np.sqrt(e_max)
    _check_phase(gbc, k_hi)
    if grid is None:
        grid = max(200.0, np.ceil(GRID_DENSITY * max(gbc.lengths) * (k_hi - k_lo)))
    if not 3 <= grid <= MAX_GRID_POINTS:
        raise BadWindow(f"grid must have 3 to {MAX_GRID_POINTS} points, got {grid!r}")
    grid = int(grid)
    ks = np.linspace(k_lo, k_hi, grid)
    sigmas = _smallest_sigmas(gbc, ks)

    padded = np.concatenate([[np.inf], sigmas, [np.inf]])
    minima = np.flatnonzero((sigmas <= padded[:-2]) & (sigmas <= padded[2:])
                            & (sigmas < max(1e-2, 10.0 * tol)))
    candidates = []
    if minima.size:
        k_star, r_star = _golden_minimize(
            lambda k: _smallest_sigmas(gbc, k),
            ks[np.maximum(minima - 1, 0)], ks[np.minimum(minima + 1, grid - 1)])
        for k, r in zip(k_star, r_star.tolist()):
            e_star = float(k ** 2)
            # the window excludes its left edge, where the scan starts
            if r < tol and e_star - e_min > MERGE_RELATIVE * max(1.0, e_star):
                candidates.append((e_star, r))

    candidates.sort()
    merged: list[tuple[float, float]] = []
    for e, r in candidates:
        if merged and abs(e - merged[-1][0]) <= MERGE_RELATIVE * max(1.0, e):
            if r < merged[-1][1]:
                merged[-1] = (e, r)
        else:
            merged.append((e, r))

    eigenvalues = tuple(e for e, _ in merged)
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
    energy = _check_energy(energy)
    gbc.require_admissible()
    k = np.sqrt(energy)
    _check_phase(gbc, k)
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
    # [-B T | A T] is [A | B] times a signed permutation, and
    # (-B T)(A T)^dagger = -B A^dagger, (-B T)(A T)^T = -B A^T: the numbers
    # are kept, the norms swap
    numbers = gbc.admissibility_numbers()
    themed = GlobalBC(
        gbc.n, gbc.m,
        tuple(energy * a for a in gbc.lengths),
        boundary.dual(gbc.bc, gbc.n, gbc.m),
        replace(numbers, norm_a=numbers.norm_b, norm_b=numbers.norm_a),
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
        energies: iterable of energies, each > 0.

    Returns:
        ``(results, probabilities)`` where ``probabilities[i, j, k]`` is
        ``|S_jk|^2`` at the i-th energy.

    Raises:
        the first error :func:`solve_scattering` raises on the grid.
    """
    results = solve_many(gbc, energies, tol)
    for r in results:
        if isinstance(r, Exception):
            raise r
    probabilities = np.stack([np.abs(r.s) ** 2 for r in results]) if results \
        else np.zeros((0, gbc.n, gbc.n))
    return results, probabilities
