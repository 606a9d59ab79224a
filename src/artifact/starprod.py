"""Generalized star product: composing unitary S-matrices across glued channels.

Two unitaries ``U'`` (n' x n') and ``U''`` (n'' x n'') are composed over ``p``
glued channels, taken trailing in ``U'`` and leading in ``U''``, through a
unitary coupling ``V`` (p x p).  Writing the operands in 2 x 2 block form with
``U'_22`` and ``U''_11`` the p x p corner blocks, the product exists whenever

    Condition A: ``V U'_22 V^{-1} U''_11`` has no eigenvalue 1,

and is again unitary of size ``n' + n'' - 2p``.  The composition of on-shell
graph S-matrices is the special case ``V = I`` with the right operand dressed
by propagation phases, handled by :func:`compose_smatrices` and
:func:`factorize_many`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import graph as graphmod
from . import numkernel, scattering
from .boundary import DimensionMismatch, InvalidParameters
from .graph import CutMap, MetricGraph

# Margin below which Condition A counts as violated.
CONDITION_A_TOL = 1e-8
# Operands are rejected when farther than this from unitarity.
UNITARY_TOL = 1e-8


class ConditionAViolated(ValueError):
    """The glued corner blocks resonate (eigenvalue 1); the product is undefined.

    Attributes:
        margin: smallest distance of an eigenvalue of ``V U'_22 V^{-1} U''_11``
            from 1.
    """

    def __init__(self, message: str, margin: float):
        super().__init__(message)
        self.margin = margin


@dataclass(frozen=True)
class StarOperands:
    """Validated inputs of one star product.

    ``p`` channels are glued: the last ``p`` of ``u_left`` against the first
    ``p`` of ``u_right`` through the unitary coupling ``v``.  The Condition A
    margin is computed eagerly and stored.
    """

    u_left: np.ndarray
    u_right: np.ndarray
    v: np.ndarray
    p: int
    margin: float = field(init=False)

    def __post_init__(self):
        u_left = numkernel.as_complex_matrix(self.u_left, "u_left")
        u_right = numkernel.as_complex_matrix(self.u_right, "u_right")
        v = numkernel.as_complex_matrix(self.v, "v")
        p = int(self.p)
        n_left, n_right = u_left.shape[0], u_right.shape[0]
        if u_left.shape != (n_left, n_left) or u_right.shape != (n_right, n_right):
            raise DimensionMismatch("operands must be square")
        if not 0 <= p <= min(n_left, n_right):
            raise InvalidParameters(
                f"p must satisfy 0 <= p <= min({n_left}, {n_right}), got {p}")
        if 2 * p >= n_left + n_right:
            raise InvalidParameters(
                f"need 2p < n' + n'' (got p={p}, sizes {n_left}, {n_right})")
        if v.shape != (p, p):
            raise DimensionMismatch(f"coupling must be {p} x {p}, got {v.shape}")
        for name, u in (("u_left", u_left), ("u_right", u_right), ("v", v)):
            defect = numkernel.unitarity_defect(u)
            if defect > UNITARY_TOL:
                raise InvalidParameters(
                    f"{name} is not unitary (defect {defect:.3e})")
        for arr in (u_left, u_right, v):
            arr.setflags(write=False)
        object.__setattr__(self, "u_left", u_left)
        object.__setattr__(self, "u_right", u_right)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "margin", _margin(u_left, u_right, v, p))

    @property
    def n_left(self) -> int:
        return self.u_left.shape[0]

    @property
    def n_right(self) -> int:
        return self.u_right.shape[0]


def _margin(u_left, u_right, v, p) -> float:
    if p == 0:
        return np.inf
    corner_left = u_left[-p:, -p:]
    corner_right = u_right[:p, :p]
    v_inv = np.linalg.inv(v)
    eigs = np.linalg.eigvals(v @ corner_left @ v_inv @ corner_right)
    return float(np.min(np.abs(eigs - 1.0)))


def condition_a(ops: StarOperands, tol: float = CONDITION_A_TOL):
    """Whether the product of ``ops`` exists, and its margin."""
    return ops.margin > tol, ops.margin


def star(ops: StarOperands, tol: float = CONDITION_A_TOL) -> np.ndarray:
    """The generalized star product of the operands.

    Returns a unitary of size ``n' + n'' - 2p`` whose channel order is
    (untouched left channels, untouched right channels).

    Raises:
        ConditionAViolated: when the glue blocks resonate at ``tol``.
    """
    ok, margin = condition_a(ops, tol)
    if not ok:
        raise ConditionAViolated(
            f"Condition A violated: eigenvalue within {margin:.3e} of 1", margin)
    p = ops.p
    nl, nr = ops.n_left, ops.n_right
    ul, ur, v = ops.u_left, ops.u_right, ops.v
    u11_l, u12_l = ul[:nl - p, :nl - p], ul[:nl - p, nl - p:]
    u21_l, u22_l = ul[nl - p:, :nl - p], ul[nl - p:, nl - p:]
    u11_r, u12_r = ur[:p, :p], ur[:p, p:]
    u21_r, u22_r = ur[p:, :p], ur[p:, p:]
    if p == 0:
        out = np.zeros((nl + nr, nl + nr), dtype=complex)
        out[:nl, :nl] = ul
        out[nl:, nl:] = ur
        return out
    v_inv = np.linalg.inv(v)
    eye = np.eye(p)
    k1 = np.linalg.solve(eye - v @ u22_l @ v_inv @ u11_r, v)
    k2 = np.linalg.solve(eye - v_inv @ u11_r @ v @ u22_l, v_inv)
    out = np.zeros((nl + nr - 2 * p, nl + nr - 2 * p), dtype=complex)
    out[:nl - p, :nl - p] = u11_l + u12_l @ k2 @ u11_r @ v @ u21_l
    out[:nl - p, nl - p:] = u12_l @ k2 @ u12_r
    out[nl - p:, :nl - p] = u21_r @ k1 @ u21_l
    out[nl - p:, nl - p:] = u22_r + u21_r @ k1 @ u22_l @ v_inv @ u12_r
    return out


def associativity_check(u1, u2, u3, v, v_prime, p: int, p_prime: int,
                        tol: float = CONDITION_A_TOL) -> float:
    """Defect between the two nestings of a triple product.

    The glued blocks must be disjoint inside the middle operand, so
    ``p + p_prime <= n_2`` is required.

    Raises:
        ConditionAViolated: if any of the four pairwise products fails
            Condition A.
    """
    u1 = numkernel.as_complex_matrix(u1, "u1")
    u2 = numkernel.as_complex_matrix(u2, "u2")
    u3 = numkernel.as_complex_matrix(u3, "u3")
    n2 = u2.shape[0]
    if p + p_prime > n2:
        raise InvalidParameters(
            f"glued blocks overlap in the middle operand: p + p' = "
            f"{p + p_prime} > {n2}")
    inner_right = star(StarOperands(u2, u3, v_prime, p_prime), tol)
    lhs = star(StarOperands(u1, inner_right, v, p), tol)
    inner_left = star(StarOperands(u1, u2, v, p), tol)
    rhs = star(StarOperands(inner_left, u3, v_prime, p_prime), tol)
    return float(numkernel.spectral_norm(lhs - rhs))


def _permutation(ids, order) -> list[int]:
    """Indices rearranging ``ids`` into ``order`` (both must be bijective)."""
    index = {e: i for i, e in enumerate(ids)}
    if len(index) != len(ids) or sorted(index) != sorted(order):
        raise InvalidParameters("channel id lists do not match")
    return [index[e] for e in order]


def compose_smatrices(s_left, s_right, cutmap: CutMap, energy: float,
                      tol: float = CONDITION_A_TOL) -> np.ndarray:
    """Compose the S-matrices of the two sides of a cut.

    ``s_left``/``s_right`` are indexed by ``cutmap.left_externals`` /
    ``cutmap.right_externals``.  The cut channels are moved to the trailing
    (left) and leading (right) block, the right operand is dressed with the
    propagation phases ``exp(i sqrt(E) a)`` of the severed lines, and the
    operands are starred with identity coupling.  The result is indexed by
    (left non-cut channels, right non-cut channels), in their original order.

    Raises:
        ConditionAViolated: at energies where the glued blocks resonate.
    """
    energy = float(energy)
    s_left = numkernel.as_complex_matrix(s_left, "s_left")
    s_right = numkernel.as_complex_matrix(s_right, "s_right")
    pairs = cutmap.pairs
    p = len(pairs)
    if s_left.shape != (len(cutmap.left_externals),) * 2:
        raise DimensionMismatch(
            f"s_left is {s_left.shape}, cut map lists "
            f"{len(cutmap.left_externals)} left channels")
    if s_right.shape != (len(cutmap.right_externals),) * 2:
        raise DimensionMismatch(
            f"s_right is {s_right.shape}, cut map lists "
            f"{len(cutmap.right_externals)} right channels")
    cut_left = [pair[0] for pair in pairs]
    cut_right = [pair[1] for pair in pairs]
    keep_left = [e for e in cutmap.left_externals if e not in cut_left]
    keep_right = [e for e in cutmap.right_externals if e not in cut_right]
    perm_l = _permutation(cutmap.left_externals, keep_left + cut_left)
    perm_r = _permutation(cutmap.right_externals, cut_right + keep_right)
    sl = s_left[np.ix_(perm_l, perm_l)]
    sr = s_right[np.ix_(perm_r, perm_r)]
    k = np.sqrt(scattering._check_energy(energy))
    phases = np.exp(1j * k * np.array([pair[2] for pair in pairs]))
    dress = np.concatenate([phases, np.ones(len(keep_right))])
    dressed = sr * dress[:, None] * dress[None, :]
    return star(StarOperands(sl, dressed, np.eye(p), p), tol)


def factorize_many(g: MetricGraph, edge_ids, energies,
                   tol: float = CONDITION_A_TOL) -> list:
    """Cut a graph, compose the sides' S-matrices, and compare with the direct
    solve, at every energy of a grid.

    Requested tadpole edges are first split with a trivial vertex (cutting a
    tadpole directly can never split the graph); tadpoles remaining inside
    either side are likewise normalized before the side is solved.  The cut
    and the three assembled graphs are built once, and each is solved over
    the whole grid by :func:`scattering.solve_many`.  The composed matrix is
    re-ordered to the external-channel order of ``g``.

    Returns:
        in grid order, ``(s_composed, s_direct, defect)`` with ``defect`` the
        spectral norm of their difference, or the :class:`ConditionAViolated`
        instance at resonant energies.

    Raises:
        NoExternalLines: when ``g`` has no external lines (nothing composes),
            before anything is solved.
        a side's solve error, and the direct solve's error at an energy that
            composed, in grid order.
    """
    work = g
    cut_ids = []
    for e in edge_ids:
        if work.is_tadpole(e):
            before = {i for i, _ in work.internals}
            work = graphmod.insert_trivial_vertex(work, e)
            cut_ids.extend(i for i, _ in work.internals if i not in before)
        else:
            cut_ids.append(e)
    left, right, cutmap = graphmod.cut(work, cut_ids)
    if not g.n:
        raise scattering.NoExternalLines("graph has no external lines to compose")
    grid = list(energies)
    res_left, res_right, res_direct = (
        scattering.solve_many(graphmod.assemble(graph), grid)
        for graph in (_normalize_tadpoles(left), _normalize_tadpoles(right), g))

    cut_left = {pair[0] for pair in cutmap.pairs}
    cut_right = {pair[1] for pair in cutmap.pairs}
    composed_ids = ([e for e in cutmap.left_externals if e not in cut_left]
                    + [e for e in cutmap.right_externals if e not in cut_right])
    perm = _permutation(composed_ids, list(g.externals))
    outcomes = []
    for energy, sl, sr, sd in zip(grid, res_left, res_right, res_direct):
        for res in (sl, sr):
            if isinstance(res, Exception):
                raise res
        try:
            composed = compose_smatrices(sl.s, sr.s, cutmap, energy, tol)
        except ConditionAViolated as exc:
            outcomes.append(exc)
            continue
        if isinstance(sd, Exception):
            raise sd
        s_composed = composed[np.ix_(perm, perm)]
        defect = float(numkernel.spectral_norm(s_composed - sd.s))
        outcomes.append((s_composed, sd.s, defect))
    return outcomes


def factorize_graph(g: MetricGraph, edge_ids, energy: float,
                    tol: float = CONDITION_A_TOL):
    """:func:`factorize_many` at one energy: ``(s_composed, s_direct, defect)``.

    Raises:
        ConditionAViolated: at resonant energies (no composition there).
    """
    (outcome,) = factorize_many(g, edge_ids, [energy], tol)
    if isinstance(outcome, ConditionAViolated):
        raise outcome
    return outcome


def _normalize_tadpoles(g: MetricGraph) -> MetricGraph:
    while True:
        for i, _ in g.internals:
            if g.is_tadpole(i):
                g = graphmod.insert_trivial_vertex(g, i)
                break
        else:
            return g
