"""On-shell scattering on metric graphs: S-matrices, interior amplitudes,
embedded eigenvalues, and the identities they satisfy.

For a graph with ``n`` external and ``m`` internal lines and global boundary
condition ``(A, B)``, the scattering solution at energy ``E = k^2 > 0`` is the
plane-wave ansatz ``e^{-ikx} + S e^{ikx}`` on external lines and
``alpha e^{ikx} + beta e^{-ikx}`` on internal ones.  Imposing the boundary
condition turns this into the linear system

    ``Z(E) (S; alpha; beta) = -(A - ikB) (I; 0; 0)``,
    ``Z(E) = A X(E) + ik B Y(E)``,

whose coefficient blocks are assembled by :func:`build_xyz`.  ``Z`` is
invertible away from a discrete set of energies; those exceptional energies
are exactly the eigenvalues embedded in the continuous spectrum, located by
:func:`spectrum`.  At an embedded eigenvalue the system stays solvable, the S
block is still unique, and :func:`solve_scattering` returns the minimum-norm
solution with ``at_eigenvalue`` set.

Every energy goes through one path: :func:`z_stack` builds ``Z`` for a stack
of wavenumbers, one values-only SVD per energy decides regular or singular,
and regular energies are solved by LU.  One kernel decomposes the energy axis
in batches: :func:`solve_many` (behind :func:`sweep`, :func:`solve_scattering`
and ``artifact sweep``) and every stage of :func:`spectrum` read from it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import boundary, numkernel
from .boundary import BoundaryCondition, InvalidBoundaryCondition
from .graph import GlobalBC

# Relative sigma_min/sigma_max threshold below which Z(E) counts as singular.
SINGULAR_TOL = 1e-8
# Fixed iteration budget of the golden-section refinement.
GOLDEN_ITERATIONS = 40
# Candidate eigenvalues closer than this (relatively) are merged.
MERGE_RELATIVE = 1e-6
# Default grid density: points per unit of max_length * (k_max - k_min).
GRID_DENSITY = 2000
# Complex entries of Z per batch: a batch holds max(1, CHUNK_ENTRIES // N^2)
# energies, so memory stays flat in the grid length and in N.
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
    """Raised when a spectral search window is empty or nonpositive."""


class NotAnEigenvalue(ValueError):
    """Raised when an eigenfunction is requested at a regular energy."""


class OutOfDomain(ValueError):
    """Raised when a wavefunction is evaluated outside its line's domain."""


class InconsistentSystem(RuntimeError):
    """Raised when the minimum-norm solve leaves a relative residual or an S
    block unitarity defect above 1e-8.

    For admissible boundary conditions the scattering system is solvable at
    every positive energy and its S block is unitary, so this signals
    corrupted input, or an energy beyond floating-point reach, rather than a
    legitimate outcome.
    """


@dataclass(frozen=True)
class ScatteringResult:
    """Scattering data at one energy.

    ``s`` is n x n; ``alpha``/``beta`` are m x n (column = incoming channel).
    ``at_eigenvalue`` marks energies where Z(E) was numerically singular; the
    S block is unique there but alpha/beta are the minimum-norm choice.
    ``sigma_ratio`` is sigma_min/sigma_max of Z(E) (0 for a zero matrix), and
    ``solve_path`` says which solve ran: :data:`REGULAR` (LU) or
    :data:`MINIMUM_NORM` (pseudoinverse, exactly when ``at_eigenvalue``).
    """

    energy: float
    s: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    at_eigenvalue: bool
    unitarity_defect: float
    sigma_ratio: float
    solve_path: str


@dataclass(frozen=True)
class SpectrumResult:
    """Embedded eigenvalues found in a window, sorted ascending.

    ``residuals[i]`` is sigma_min(Z) at ``eigenvalues[i]``.
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


def z_stack(gbc: GlobalBC, ks) -> np.ndarray:
    """``Z(k^2)`` for every wavenumber in ``ks``, as a ``(len(ks), N, N)`` stack.

    ``X`` and ``Y`` are the identity outside the internal-line blocks, so
    ``Z = A X + ik B Y`` is column arithmetic on ``A`` and ``B``, O(N^2) per
    energy.  For internal line ``j`` with phase ``p = exp(ik a_j)``, the
    near-end column is ``A_0 + p A_a + ik (B_0 - p B_a)`` and the far-end
    column ``A_0 + A_a / p + ik (B_a / p - B_0)``; external columns are
    ``A + ik B``.
    """
    ks = np.asarray(ks, dtype=float)
    a, b = gbc.bc.A, gbc.bc.B
    n, m = gbc.n, gbc.m
    ik = 1j * ks[:, None, None]
    z = np.empty((len(ks), n + 2 * m, n + 2 * m), dtype=complex)
    z[:, :, :n] = a[:, :n] + ik * b[:, :n]
    if m:
        p = np.exp(1j * ks[:, None, None] * np.asarray(gbc.lengths))
        near, far = slice(n, n + m), slice(n + m, n + 2 * m)
        a0, aa, b0, ba = a[:, near], a[:, far], b[:, near], b[:, far]
        z[:, :, near] = a0 + p * aa + ik * (b0 - p * ba)
        z[:, :, far] = a0 + aa / p + ik * (ba / p - b0)
    return z


def build_xyz(gbc: GlobalBC, energy: float):
    """The matrices ``X(E)``, ``Y(E)``, ``Z(E)`` of the scattering system.

    Endpoint order is (externals, internal near ends, internal far ends);
    with no internal lines both X and Y degenerate to the identity.  ``Z``
    comes from :func:`z_stack`.
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
    return x, y, z_stack(gbc, [k])[0]


def _decompositions(gbc: GlobalBC, ks):
    """``(part, z, sigma)`` for each batch of CHUNK_ENTRIES entries of ``Z``: ``z``
    is :func:`z_stack` at the array slice ``ks[part]``, ``sigma`` its values-only
    SVD.  Every values-only decomposition of ``Z`` on the energy axis is here."""
    size = gbc.n + 2 * gbc.m
    step = max(1, CHUNK_ENTRIES // max(1, size * size))
    for start in range(0, len(ks), step):
        part = slice(start, start + step)
        z = z_stack(gbc, ks[part])
        yield part, z, np.linalg.svd(z, compute_uv=False)


def _ratio(top, bottom):
    """sigma_min/sigma_max, with 0 for a zero matrix."""
    return np.divide(bottom, top, out=np.zeros_like(top), where=top != 0.0)


def smatrix_single_vertex(bc: BoundaryCondition, energy: float,
                          tol: float = boundary.DEFAULT_TOL) -> np.ndarray:
    """On-shell S-matrix of a single vertex with only external lines.

    Evaluates ``S(E) = -(A + ikB)^{-1} (A - ikB)``, which is unitary for every
    admissible condition and every ``E > 0``.
    """
    energy = _check_energy(energy)
    boundary.require_valid(bc, tol)
    k = np.sqrt(energy)
    # A + ikB is invertible for every admissible pair and real k != 0
    return -np.linalg.solve(bc.A + 1j * k * bc.B, bc.A - 1j * k * bc.B)


def _minimum_norm_solve(z: np.ndarray, rhs: np.ndarray, tol: float) -> np.ndarray:
    sol = numkernel.pseudoinverse(z, tol) @ rhs
    residual = numkernel.spectral_norm(z @ sol - rhs)
    scale = max(numkernel.spectral_norm(rhs), 1.0)
    if residual > 1e-8 * scale:
        raise InconsistentSystem(
            f"minimum-norm solve left relative residual {residual / scale:.3e}")
    return sol


def _solve_batch(gbc: GlobalBC, energies: np.ndarray, z: np.ndarray,
                 sigma: np.ndarray, tol: float) -> list:
    """Results at checked energies of an admissible ``gbc`` with external lines,
    from one batch of :func:`_decompositions`; an :class:`InconsistentSystem`
    instance stands for a refused minimum-norm solve."""
    n, m = gbc.n, gbc.m
    ik = 1j * np.sqrt(energies)[:, None, None]
    rhs = -(gbc.bc.A[:, :n] - ik * gbc.bc.B[:, :n])
    top, bottom = sigma[:, 0], sigma[:, -1]
    singular = (top == 0.0) | (bottom < tol * top)
    sol = np.zeros_like(rhs)
    regular = np.flatnonzero(~singular)
    if regular.size:
        sol[regular] = np.linalg.solve(z[regular], rhs[regular])
    failed = {}
    for i in np.flatnonzero(singular):
        try:
            sol[i] = _minimum_norm_solve(z[i], rhs[i], tol)
        except InconsistentSystem as exc:
            failed[i] = exc
    defects = numkernel.unitarity_defects(sol[:, :n, :])
    for i in np.flatnonzero(singular & (defects > 1e-8)):
        failed.setdefault(i, InconsistentSystem(
            f"minimum-norm solve gave an S block with unitarity defect {defects[i]:.3e}"))
    ratios = _ratio(top, bottom)
    results = []
    for i, energy in enumerate(energies):
        if i in failed:
            results.append(failed[i])
            continue
        results.append(ScatteringResult(
            energy=float(energy),
            s=sol[i, :n, :],
            alpha=sol[i, n:n + m, :],
            beta=sol[i, n + m:, :],
            at_eigenvalue=bool(singular[i]),
            unitarity_defect=float(defects[i]),
            sigma_ratio=float(ratios[i]),
            solve_path=MINIMUM_NORM if singular[i] else REGULAR,
        ))
    return results


def solve_many(gbc: GlobalBC, energies, tol: float = SINGULAR_TOL) -> list:
    """:func:`solve_scattering` at every energy of a grid, batched over energies.

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
            checked.append(_check_energy(e))
            index.append(i)
        except NonpositiveEnergy as exc:
            outcomes[i] = exc
    checked = np.array(checked, dtype=float)
    for part, z, sigma in _decompositions(gbc, np.sqrt(checked)):
        batch = _solve_batch(gbc, checked[part], z, sigma, tol)
        for i, out in zip(index[part], batch):
            outcomes[i] = out
    return outcomes


def solve_scattering(gbc: GlobalBC, energy: float,
                     tol: float = SINGULAR_TOL) -> ScatteringResult:
    """Solve for the S-matrix and interior amplitudes at one energy.

    Args:
        gbc: assembled global boundary condition (must be admissible).
        energy: energy, strictly positive.
        tol: relative singularity threshold on Z(E); below it the system is
            solved through the pseudoinverse (minimum-norm least squares) and
            ``at_eigenvalue`` is set.

    Raises:
        NonpositiveEnergy, NoExternalLines, InvalidBoundaryCondition,
        InconsistentSystem.
    """
    energy = _check_energy(energy)
    (outcome,) = solve_many(gbc, [energy], tol)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _extreme_sigmas(gbc: GlobalBC, ks):
    """sigma_max and sigma_min of Z(k^2) for every k in ``ks``, in batches."""
    ks = np.asarray(ks, dtype=float)
    top, bottom = np.empty(len(ks)), np.empty(len(ks))
    for part, _, sigma in _decompositions(gbc, ks):
        top[part], bottom[part] = sigma[:, 0], sigma[:, -1]
    return top, bottom


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

    Scans ``sigma_min(Z)/sigma_max(Z)`` on a grid uniform in ``k = sqrt(E)``,
    takes each local minimum below ``max(1e-2, 10 tol)`` as a candidate,
    refines all candidates in lockstep by golden-section search (fixed
    iteration count, one batched decomposition per step), merges candidates
    within 1e-6 relative energy, and accepts a candidate when the refined
    ``sigma_min < tol * sigma_max``.  A candidate within 1e-6 relative energy
    of ``e_min`` is the excluded left edge and is dropped.

    Args:
        grid: number of scan points; defaults to about 2000 per unit of
            ``max(lengths) * (sqrt(e_max) - sqrt(e_min))``.

    Raises:
        BadWindow: unless ``0 < e_min < e_max`` and both are finite.
    """
    if not (np.isfinite(e_min) and np.isfinite(e_max)) or not 0.0 < e_min < e_max:
        raise BadWindow(f"need 0 < e_min < e_max, got ({e_min!r}, {e_max!r})")
    gbc.require_admissible()
    if gbc.m == 0:
        # Z(E) = A + ikB is invertible at every positive energy
        return SpectrumResult((), (), (float(e_min), float(e_max)), 0)

    k_lo, k_hi = np.sqrt(e_min), np.sqrt(e_max)
    if grid is None:
        span = max(gbc.lengths) * (k_hi - k_lo)
        grid = int(max(200, np.ceil(GRID_DENSITY * span)))
    elif grid < 3:
        raise BadWindow(f"grid must have at least 3 points, got {grid!r}")
    ks = np.linspace(k_lo, k_hi, grid)
    ratios = _ratio(*_extreme_sigmas(gbc, ks))

    padded = np.concatenate([[np.inf], ratios, [np.inf]])
    minima = np.flatnonzero((ratios <= padded[:-2]) & (ratios <= padded[2:])
                            & (ratios < max(1e-2, 10.0 * tol)))
    candidates = []
    if minima.size:
        k_star, r_star = _golden_minimize(
            lambda k: _ratio(*_extreme_sigmas(gbc, k)),
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
    _, residuals = _extreme_sigmas(gbc, np.sqrt(eigenvalues))
    return SpectrumResult(eigenvalues, tuple(float(r) for r in residuals),
                          (float(e_min), float(e_max)), grid)


def eigenfunction(gbc: GlobalBC, energy: float, tol: float = SINGULAR_TOL):
    """Orthonormal basis of the kernel of Z(E) as ``(alpha_hat, beta_hat)`` pairs.

    The first ``n`` components of every kernel vector vanish (eigenfunctions
    are supported on the internal lines), so only the interior coefficient
    blocks are returned.

    Raises:
        NotAnEigenvalue: when Z(E) has no numerical kernel at ``tol``.
    """
    energy = _check_energy(energy)
    gbc.require_admissible()
    n, m = gbc.n, gbc.m
    _, sigma, vh = np.linalg.svd(z_stack(gbc, [np.sqrt(energy)])[0])
    if sigma[0] == 0.0:
        raise NotAnEigenvalue("Z(E) is the zero matrix; invalid boundary condition")
    kernel = [vh[j].conj() for j in range(len(sigma)) if sigma[j] < tol * sigma[0]]
    if not kernel:
        raise NotAnEigenvalue(
            f"sigma_min/sigma_max = {sigma[-1] / sigma[0]:.3e} at energy {energy!r}, "
            f"not singular at tolerance {tol:g}")
    return [(v[n:n + m].copy(), v[n + m:].copy()) for v in kernel]


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
