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

All products run on one stacked kernel, :func:`star_many`: for ``G`` operand
pairs sharing ``V`` it checks shape, finiteness and unitarity once per stack,
takes the ``G`` Condition A margins from one stacked eigenvalue call and the
products from two stacked solves, and reports a resonant or non-unitary pair
in place without stopping the others.  :func:`star`,
:attr:`StarOperands.margin` and :func:`compose_smatrices` are its one-pair
cases, and :func:`factorize_many` composes a whole energy grid as one stack.
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
    ``p`` of ``u_right`` through the unitary coupling ``v``.  The checks and
    the Condition A margin are those of :func:`star_many` for a one-pair
    stack; the margin is computed eagerly and stored.
    """

    u_left: np.ndarray
    u_right: np.ndarray
    v: np.ndarray
    p: int
    margin: float = field(init=False)

    def __post_init__(self):
        u_left = numkernel.as_complex_matrix(self.u_left, "u_left")
        u_right = numkernel.as_complex_matrix(self.u_right, "u_right")
        u_left, u_right, v, p, (error,) = _check_stacks(
            u_left[None], u_right[None], self.v, int(self.p))
        if error is not None:
            raise error
        (margin,), _, _ = _glue(u_left, u_right, v, p)
        u_left, u_right = u_left[0], u_right[0]
        for arr in (u_left, u_right, v):
            arr.setflags(write=False)
        object.__setattr__(self, "u_left", u_left)
        object.__setattr__(self, "u_right", u_right)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "margin", float(margin))

    @property
    def n_left(self) -> int:
        return self.u_left.shape[0]

    @property
    def n_right(self) -> int:
        return self.u_right.shape[0]


def _as_stack(obj, name: str) -> np.ndarray:
    m = np.ascontiguousarray(np.asarray(obj, dtype=np.complex128))
    if m.ndim != 3:
        raise ValueError(f"{name} must be a stack of matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _check_stacks(u_left, u_right, v, p: int):
    """Coerce and check a stack of operand pairs sharing the coupling ``v``.

    Shapes and finiteness are properties of the whole stack and raise.
    Unitarity is judged per pair, one :func:`numkernel.unitarity_defects`
    call per operand, and returned as ``errors``: in stack order, the
    :class:`InvalidParameters` a one-pair check of that pair raises, or None.
    """
    u_left = _as_stack(u_left, "u_left")
    u_right = _as_stack(u_right, "u_right")
    v = numkernel.as_complex_matrix(v, "v")
    n_left, n_right = u_left.shape[1], u_right.shape[1]
    if u_left.shape[1:] != (n_left, n_left) or u_right.shape[1:] != (n_right, n_right):
        raise DimensionMismatch("operands must be square")
    if len(u_left) != len(u_right):
        raise DimensionMismatch(
            f"operand stacks hold {len(u_left)} and {len(u_right)} matrices")
    if not 0 <= p <= min(n_left, n_right):
        raise InvalidParameters(
            f"p must satisfy 0 <= p <= min({n_left}, {n_right}), got {p}")
    if 2 * p >= n_left + n_right:
        raise InvalidParameters(
            f"need 2p < n' + n'' (got p={p}, sizes {n_left}, {n_right})")
    if v.shape != (p, p):
        raise DimensionMismatch(f"coupling must be {p} x {p}, got {v.shape}")
    defect_v = numkernel.unitarity_defect(v)
    errors = []
    for defects in zip(numkernel.unitarity_defects(u_left),
                       numkernel.unitarity_defects(u_right)):
        failed = next(((name, defect) for name, defect
                       in zip(("u_left", "u_right", "v"), (*defects, defect_v))
                       if defect > UNITARY_TOL), None)
        errors.append(failed and InvalidParameters(
            f"{failed[0]} is not unitary (defect {failed[1]:.3e})"))
    return u_left, u_right, v, p, errors


def _glue(u_left, u_right, v, p: int):
    """Condition A margins of a checked stack, from one stacked ``eigvals``.

    Returns ``(margins, glue, v_inv)`` with ``glue = V U'_22 V^{-1} U''_11``
    for every pair (None when ``p == 0``: nothing is glued, every margin is
    infinite).
    """
    if p == 0:
        return np.full(len(u_left), np.inf), None, None
    v_inv = np.linalg.inv(v)
    glue = v @ u_left[:, -p:, -p:] @ v_inv @ u_right[:, :p, :p]
    margins = np.abs(np.linalg.eigvals(glue) - 1.0).min(axis=-1)
    return margins, glue, v_inv


def _star_checked(u_left, u_right, v, p: int, errors, tol: float) -> list:
    """:func:`star_many` on a stack that :func:`_check_stacks` accepted."""
    margins, glue, v_inv = _glue(u_left, u_right, v, p)
    outcomes = list(errors)
    rows = []
    for i, (error, margin) in enumerate(zip(errors, margins.tolist())):
        if error is not None:
            continue
        if margin > tol:
            rows.append(i)
        else:
            outcomes[i] = ConditionAViolated(
                f"Condition A violated: eigenvalue within {margin:.3e} of 1", margin)
    if not rows:
        return outcomes
    nl, nr = u_left.shape[1], u_right.shape[1]
    ul, ur = u_left[rows], u_right[rows]
    if p == 0:
        out = np.zeros((len(rows), nl + nr, nl + nr), dtype=complex)
        out[:, :nl, :nl] = ul
        out[:, nl:, nl:] = ur
    else:
        u11_l, u12_l = ul[:, :nl - p, :nl - p], ul[:, :nl - p, nl - p:]
        u21_l, u22_l = ul[:, nl - p:, :nl - p], ul[:, nl - p:, nl - p:]
        u11_r, u12_r = ur[:, :p, :p], ur[:, :p, p:]
        u21_r, u22_r = ur[:, p:, :p], ur[:, p:, p:]
        eye = np.eye(p)
        shape = (len(rows), p, p)
        k1 = np.linalg.solve(eye - glue[rows], np.broadcast_to(v, shape))
        k2 = np.linalg.solve(eye - v_inv @ u11_r @ v @ u22_l,
                             np.broadcast_to(v_inv, shape))
        out = np.zeros((len(rows), nl + nr - 2 * p, nl + nr - 2 * p), dtype=complex)
        out[:, :nl - p, :nl - p] = u11_l + u12_l @ k2 @ u11_r @ v @ u21_l
        out[:, :nl - p, nl - p:] = u12_l @ k2 @ u12_r
        out[:, nl - p:, :nl - p] = u21_r @ k1 @ u21_l
        out[:, nl - p:, nl - p:] = u22_r + u21_r @ k1 @ u22_l @ v_inv @ u12_r
    for i, product in zip(rows, out):
        outcomes[i] = product
    return outcomes


def star_many(u_left, u_right, v, tol: float = CONDITION_A_TOL) -> list:
    """Star products of a stack of operand pairs sharing one coupling.

    ``u_left`` is a ``(G, n', n')`` stack, ``u_right`` a ``(G, n'', n'')``
    stack and ``v`` the ``(p, p)`` coupling.  Shape, finiteness and unitarity
    are checked once per stack, the ``G`` Condition A margins come from one
    stacked eigenvalue call, and the products of the non-resonant pairs from
    two stacked solves; each pair's result equals its one-pair
    :func:`star` bit for bit.

    Returns:
        in stack order, the product of each pair (channel order as in
        :func:`star`) or the exception its one-pair :func:`star` raises:
        :class:`InvalidParameters` for an operand farther than
        ``UNITARY_TOL`` from unitary, :class:`ConditionAViolated` (carrying
        ``.margin``) where the glue blocks resonate at ``tol``.

    Raises:
        DimensionMismatch, InvalidParameters, ValueError: for a malformed
            stack (shapes, ``p`` out of range, non-finite entries).
    """
    v = numkernel.as_complex_matrix(v, "v")
    return _star_checked(*_check_stacks(u_left, u_right, v, v.shape[0]), tol)


def condition_a(ops: StarOperands, tol: float = CONDITION_A_TOL):
    """Whether the product of ``ops`` exists, and its margin."""
    return ops.margin > tol, ops.margin


def star(ops: StarOperands, tol: float = CONDITION_A_TOL) -> np.ndarray:
    """The generalized star product of the operands: :func:`star_many` for a
    one-pair stack.

    Returns a unitary of size ``n' + n'' - 2p`` whose channel order is
    (untouched left channels, untouched right channels).

    Raises:
        ConditionAViolated: when the glue blocks resonate at ``tol``.
    """
    (out,) = _star_checked(ops.u_left[None], ops.u_right[None], ops.v, ops.p,
                           [None], tol)
    if isinstance(out, Exception):
        raise out
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
    """Compose the S-matrices of the two sides of a cut at one energy.

    ``s_left``/``s_right`` are indexed by ``cutmap.left_externals`` /
    ``cutmap.right_externals``.  The cut channels are moved to the trailing
    (left) and leading (right) block, the right operand is dressed with the
    propagation phases ``exp(i sqrt(E) a)`` of the severed lines, and the
    operands are starred with identity coupling.  The result is indexed by
    (left non-cut channels, right non-cut channels), in their original order.
    This is the one-energy case of the stacked composition that
    :func:`factorize_many` runs on a whole grid.

    Raises:
        ConditionAViolated: at energies where the glued blocks resonate.
    """
    s_left = numkernel.as_complex_matrix(s_left, "s_left")
    s_right = numkernel.as_complex_matrix(s_right, "s_right")
    (out,) = _compose_many(s_left[None], s_right[None], cutmap, [energy], tol)
    if isinstance(out, Exception):
        raise out
    return out


def _compose_many(s_left, s_right, cutmap: CutMap, energies, tol: float) -> list:
    """:func:`compose_smatrices` at every energy of a grid: the ``(G, ., .)``
    stacks are permuted and dressed at once and starred by :func:`star_many`,
    whose per-energy outcomes are returned."""
    pairs = cutmap.pairs
    p = len(pairs)
    if s_left.shape[1:] != (len(cutmap.left_externals),) * 2:
        raise DimensionMismatch(
            f"s_left is {s_left.shape[1:]}, cut map lists "
            f"{len(cutmap.left_externals)} left channels")
    if s_right.shape[1:] != (len(cutmap.right_externals),) * 2:
        raise DimensionMismatch(
            f"s_right is {s_right.shape[1:]}, cut map lists "
            f"{len(cutmap.right_externals)} right channels")
    cut_left = [pair[0] for pair in pairs]
    cut_right = [pair[1] for pair in pairs]
    keep_left = [e for e in cutmap.left_externals if e not in cut_left]
    keep_right = [e for e in cutmap.right_externals if e not in cut_right]
    perm_l = np.array(_permutation(cutmap.left_externals, keep_left + cut_left))
    perm_r = np.array(_permutation(cutmap.right_externals, cut_right + keep_right))
    sl = s_left[:, perm_l[:, None], perm_l]
    sr = s_right[:, perm_r[:, None], perm_r]
    energies = np.array(energies, dtype=float)
    for error in scattering._refusals(energies, 0.0)[1]:
        if error is not None:
            raise error
    k = np.sqrt(energies)
    phases = np.exp(1j * k[:, None] * np.array([pair[2] for pair in pairs]))
    dress = np.concatenate([phases, np.ones((len(k), len(keep_right)))], axis=1)
    dressed = sr * dress[:, :, None] * dress[:, None, :]
    return star_many(sl, dressed, np.eye(p), tol)


def factorize_many(g: MetricGraph, edge_ids, energies,
                   tol: float = CONDITION_A_TOL) -> list:
    """Cut a graph, compose the sides' S-matrices, and compare with the direct
    solve, at every energy of a grid.

    Requested tadpole edges are first split with a trivial vertex (cutting a
    tadpole directly can never split the graph); tadpoles remaining inside
    either side are solved as they are.  The cut and the three assembled
    graphs are built once, and each is solved over the whole grid by
    :func:`scattering.solve_many`.  The side S-matrices are then composed as
    one stack by :func:`star_many`, re-ordered to the external-channel order
    of ``g``, and compared with the direct ones by one stacked spectral norm.

    Returns:
        in grid order, ``(s_composed, s_direct, defect)`` with ``defect`` the
        spectral norm of their difference, or the :class:`ConditionAViolated`
        instance at resonant energies.

    Raises:
        NoExternalLines: when ``g`` has no external lines (nothing composes),
            before anything is solved.
        in grid order, the first of: a side's solve error, an operand's
            :class:`InvalidParameters`, and the direct solve's error at an
            energy that composed.
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
        for graph in (left, right, g))

    # every energy before the first side error composes; that error is
    # raised once the energies before it have raised theirs
    side_errors = list(zip(res_left.errors, res_right.errors))
    solved = next((i for i, pair in enumerate(side_errors) if pair != (None, None)),
                  len(grid))
    outcomes = _compose_many(res_left.s[:solved], res_right.s[:solved],
                             cutmap, grid[:solved], tol) if solved else []
    composed = []
    for i, out in enumerate(outcomes):
        if isinstance(out, ConditionAViolated):
            continue
        if isinstance(out, Exception):
            raise out
        if res_direct.errors[i] is not None:
            raise res_direct.errors[i]
        composed.append(i)
    if solved < len(grid):
        raise next(exc for exc in side_errors[solved] if exc is not None)
    if composed:
        cut_left = {pair[0] for pair in cutmap.pairs}
        cut_right = {pair[1] for pair in cutmap.pairs}
        composed_ids = ([e for e in cutmap.left_externals if e not in cut_left]
                        + [e for e in cutmap.right_externals if e not in cut_right])
        perm = np.array(_permutation(composed_ids, list(g.externals)))
        s_composed = np.stack([outcomes[i] for i in composed])[:, perm[:, None], perm]
        s_direct = res_direct.s[composed]
        defects = numkernel.spectral_norms(s_composed - s_direct)
        for i, sc, sd, defect in zip(composed, s_composed, s_direct, defects.tolist()):
            outcomes[i] = (sc, sd, defect)
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

