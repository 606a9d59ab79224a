"""Metric graphs: external half lines, internal intervals, vertex couplings.

A :class:`MetricGraph` lists external lines (half lines ``[0, inf)``), internal
lines (intervals ``[0, a]`` with ``a > 0``) and vertices.  Every line endpoint
is referenced by a tag tuple: ``("ext", id)`` for the origin of an external
line, ``("int", id, "0")`` and ``("int", id, "a")`` for the two ends of an
internal line.  Each endpoint must belong to exactly one vertex; each vertex
carries a local boundary condition whose size equals its endpoint count.

:func:`assemble` merges the local conditions into one global pair ``(A, B)``
ordered as (externals, internal near ends, internal far ends) with inward
derivatives, which is the layout the scattering solver consumes.  Tadpoles
(both ends of an edge at one vertex) and parallel edges are allowed.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from . import boundary
from .boundary import BoundaryCondition, InvalidParameters

END_EXTERNAL = "ext"
END_INTERNAL = "int"


class InvalidGraph(ValueError):
    """Raised when a graph's endpoint bookkeeping is inconsistent."""


class UnknownEdge(ValueError):
    """Raised when an operation names an internal line the graph lacks."""


class NotACut(ValueError):
    """Raised when a set of edges does not split a graph into two parts."""


def ext_ref(line_id: str) -> tuple:
    """Endpoint reference for the origin of an external line."""
    return (END_EXTERNAL, line_id)


def int_ref(line_id: str, side: str) -> tuple:
    """Endpoint reference for one end (``"0"`` or ``"a"``) of an internal line."""
    if side not in ("0", "a"):
        raise ValueError(f"internal endpoint side must be '0' or 'a', got {side!r}")
    return (END_INTERNAL, line_id, side)


@dataclass(frozen=True)
class Vertex:
    """An ordered set of endpoints tied together by a local boundary condition."""

    endpoints: tuple
    bc: BoundaryCondition

    def __post_init__(self):
        eps = tuple(tuple(e) for e in self.endpoints)
        if not eps:
            raise InvalidGraph("vertex has no endpoints")
        for e in eps:
            if not _wellformed(e):
                raise InvalidGraph(f"malformed endpoint reference {e!r}")
        if self.bc.dim != len(eps):
            raise InvalidGraph(
                f"vertex has {len(eps)} endpoints but a boundary condition of "
                f"size {self.bc.dim}")
        object.__setattr__(self, "endpoints", eps)


def _wellformed(e: tuple) -> bool:
    if len(e) == 2 and e[0] == END_EXTERNAL and isinstance(e[1], str):
        return True
    return (len(e) == 3 and e[0] == END_INTERNAL and isinstance(e[1], str)
            and e[2] in ("0", "a"))


@dataclass(frozen=True)
class MetricGraph:
    """A finite metric graph with local boundary conditions at its vertices.

    Args:
        externals: ordered external line ids.
        internals: ordered ``(id, length)`` pairs, lengths positive and finite.
        vertices: the vertices; together they must reference every endpoint of
            every line exactly once.
    """

    externals: tuple
    internals: tuple
    vertices: tuple

    def __post_init__(self):
        externals = tuple(str(e) for e in self.externals)
        internals = tuple((str(i), float(a)) for i, a in self.internals)
        vertices = tuple(self.vertices)
        object.__setattr__(self, "externals", externals)
        object.__setattr__(self, "internals", internals)
        object.__setattr__(self, "vertices", vertices)

        if len(set(externals)) != len(externals):
            raise InvalidGraph("duplicate external line ids")
        internal_ids = [i for i, _ in internals]
        if len(set(internal_ids)) != len(internal_ids):
            raise InvalidGraph("duplicate internal line ids")
        for i, a in internals:
            if not np.isfinite(a) or a <= 0:
                raise InvalidGraph(f"internal line {i!r} has invalid length {a!r}")

        expected = {ext_ref(e) for e in externals}
        for i, _ in internals:
            expected.add(int_ref(i, "0"))
            expected.add(int_ref(i, "a"))
        seen: dict[tuple, int] = {}
        for vi, v in enumerate(vertices):
            if not isinstance(v, Vertex):
                raise InvalidGraph(f"vertices[{vi}] is not a Vertex")
            for e in v.endpoints:
                if e not in expected:
                    raise InvalidGraph(
                        f"vertex {vi} references unknown endpoint {e!r}")
                if e in seen:
                    raise InvalidGraph(
                        f"endpoint {e!r} assigned to vertices {seen[e]} and {vi}")
                seen[e] = vi
        missing = expected - set(seen)
        if missing:
            raise InvalidGraph(f"dangling endpoints with no vertex: {sorted(missing)}")

    @property
    def n(self) -> int:
        return len(self.externals)

    @property
    def m(self) -> int:
        return len(self.internals)

    def length(self, line_id: str) -> float:
        for i, a in self.internals:
            if i == line_id:
                return a
        raise UnknownEdge(f"no internal line with id {line_id!r}")

    def is_tadpole(self, line_id: str) -> bool:
        """Whether both ends of ``line_id`` meet the same vertex."""
        if line_id not in [i for i, _ in self.internals]:
            raise UnknownEdge(f"no internal line with id {line_id!r}")
        home = {}
        for vi, v in enumerate(self.vertices):
            for e in v.endpoints:
                home[e] = vi
        return home[int_ref(line_id, "0")] == home[int_ref(line_id, "a")]


@dataclass(frozen=True)
class GlobalBC:
    """Assembled global boundary condition of a metric graph.

    ``bc`` has size ``n + 2m`` with columns ordered as externals, internal
    near ends, internal far ends (inward derivative convention built in).
    ``admissibility``, when given, must be the exact admissibility numbers of
    ``bc`` (as :func:`assemble` knows them from the vertex blocks); otherwise
    they are measured on first use.  ``blocks``, when given, must be the
    vertex pairs of ``bc`` as :func:`assemble` writes them; otherwise the
    whole pair is one block (see :meth:`vertex_blocks`).
    """

    n: int
    m: int
    lengths: tuple
    bc: BoundaryCondition
    admissibility: InitVar[boundary.Admissibility | None] = None
    blocks: InitVar[tuple | None] = None

    def __post_init__(self, admissibility, blocks):
        lengths = tuple(float(a) for a in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if len(lengths) != self.m:
            raise InvalidGraph(f"{self.m} internal lines but {len(lengths)} lengths")
        if any(not np.isfinite(a) or a <= 0 for a in lengths):
            raise InvalidGraph("internal lengths must be positive and finite")
        if self.bc.dim != self.n + 2 * self.m:
            raise InvalidGraph(
                f"global condition has size {self.bc.dim}, expected "
                f"{self.n + 2 * self.m}")
        object.__setattr__(self, "_admissibility", admissibility)
        object.__setattr__(self, "_admissible", False)
        if blocks is None:
            blocks = ((np.arange(self.bc.dim)[None], self.bc.A[None], self.bc.B[None]),)
        object.__setattr__(self, "_blocks", tuple(blocks))

    def vertex_blocks(self) -> tuple:
        """One ``(columns, a_blocks, b_blocks)`` stack per vertex size: the
        i-th pair ``(a_blocks[i], b_blocks[i])`` couples the endpoints in the
        global columns ``columns[i]``.  Each column belongs to one vertex, so
        the vertex S-matrices scattered by these columns make the S-matrix of
        ``bc``.
        """
        return self._blocks

    def admissibility_numbers(self) -> boundary.Admissibility:
        """The admissibility numbers of ``bc``.

        They do not depend on the energy, so they are measured at most once
        per instance, and not at all when given at construction.
        """
        if self._admissibility is None:
            object.__setattr__(self, "_admissibility",
                               boundary.measure_admissibility(self.bc))
        return self._admissibility

    def is_real(self) -> bool:
        """:func:`boundary.is_real` at ``boundary.DEFAULT_TOL``, read from
        :meth:`admissibility_numbers`."""
        return self.admissibility_numbers().real(boundary.DEFAULT_TOL)

    def require_admissible(self) -> None:
        """Raise :class:`~artifact.boundary.InvalidBoundaryCondition` unless
        ``bc`` is admissible at ``boundary.DEFAULT_TOL``.  A passed check is
        kept, so every later solve on the instance skips it."""
        if not self._admissible:
            self.admissibility_numbers().require(boundary.DEFAULT_TOL)
            object.__setattr__(self, "_admissible", True)


@dataclass(frozen=True)
class CutMap:
    """Bookkeeping for a two-sided cut.

    ``pairs`` lists ``(left_external_id, right_external_id, length)`` for each
    severed edge.  ``left_externals``/``right_externals`` give the full ordered
    external channels of the two subgraphs: on the left the cut channels come
    last, on the right they come first, in pair order.
    """

    pairs: tuple
    left_externals: tuple
    right_externals: tuple


def measure_vertices(vertices) -> tuple[list, list]:
    """``(numbers, stacks)``: the admissibility numbers of every vertex, in
    order, from one :func:`boundary.measure_admissibility_stack` per vertex
    size, and one ``(members, a_blocks, b_blocks)`` stack of vertex indices
    and pairs per size."""
    by_size: dict[int, list[int]] = {}
    for vi, v in enumerate(vertices):
        by_size.setdefault(v.bc.dim, []).append(vi)
    numbers, stacks = [None] * len(vertices), []
    for members in by_size.values():
        a_blocks = np.stack([vertices[vi].bc.A for vi in members])
        b_blocks = np.stack([vertices[vi].bc.B for vi in members])
        for vi, record in zip(members,
                              boundary.measure_admissibility_stack(a_blocks, b_blocks)):
            numbers[vi] = record
        stacks.append((members, a_blocks, b_blocks))
    return numbers, stacks


def assemble(g: MetricGraph, tol: float = boundary.DEFAULT_TOL) -> GlobalBC:
    """Merge the local vertex conditions into the global pair ``(A, B)``.

    The blocks of each size, measured by :func:`measure_vertices`, are
    written into ``(A, B)`` by one indexed assignment, so the numpy calls do
    not grow with the vertex count, and kept as the result's
    :meth:`GlobalBC.vertex_blocks`.  Each vertex is judged at ``tol``; the
    global pair's numbers are combined from the vertex ones, so no check of
    the N x N pair decomposes it.

    Raises:
        InvalidBoundaryCondition: for the first inadmissible vertex, in the
            order of ``g.vertices``.
    """
    n, m = g.n, g.m
    size = n + 2 * m
    col: dict[tuple, int] = {}
    for j, e in enumerate(g.externals):
        col[ext_ref(e)] = j
    for j, (i, _) in enumerate(g.internals):
        col[int_ref(i, "0")] = n + j
        col[int_ref(i, "a")] = n + m + j

    a = np.zeros((size, size), dtype=complex)
    b = np.zeros((size, size), dtype=complex)
    vertices = g.vertices
    first_row = np.cumsum([0] + [v.bc.dim for v in vertices])
    assert first_row[-1] == size
    parts, stacks = measure_vertices(vertices)
    blocks = []
    for members, a_blocks, b_blocks in stacks:
        rows = (first_row[members][:, None] + np.arange(a_blocks.shape[-1]))[:, :, None]
        cols = np.array([[col[e] for e in vertices[vi].endpoints] for vi in members])
        a[rows, cols[:, None, :]] = a_blocks
        b[rows, cols[:, None, :]] = b_blocks
        blocks.append((cols, a_blocks, b_blocks))
    for vi, numbers in enumerate(parts):
        try:
            numbers.require(tol)
        except boundary.InvalidBoundaryCondition as exc:
            raise boundary.InvalidBoundaryCondition(f"vertex {vi}: {exc}")
    # (A, B) is a row- and column-permuted block sum of the vertex pairs
    return GlobalBC(n=n, m=m, lengths=tuple(length for _, length in g.internals),
                    bc=BoundaryCondition(a, b),
                    admissibility=boundary.combine_admissibility(parts), blocks=blocks)


def trivial_vertex_bc() -> BoundaryCondition:
    """Two-line vertex acting as if the lines were one: continuity of value
    and of the derivative across the vertex (inward derivatives sum to 0)."""
    return boundary.kirchhoff_standard(2)


def insert_trivial_vertex(g: MetricGraph, internal_id: str,
                          position: float = 0.5) -> MetricGraph:
    """Split an internal line in two at ``position`` (a fraction of its length),
    joining the halves with a trivial vertex.  The spectrum and S-matrix of the
    graph are unchanged.

    Raises:
        UnknownEdge: if ``internal_id`` is not an internal line of ``g``.
    """
    if not 0.0 < position < 1.0:
        raise InvalidParameters(f"position must lie strictly in (0, 1), got {position!r}")
    ids = [i for i, _ in g.internals]
    if internal_id not in ids:
        raise UnknownEdge(f"no internal line with id {internal_id!r}")
    total = g.length(internal_id)
    taken = set(ids) | set(g.externals)
    id1 = _fresh(f"{internal_id}.1", taken)
    taken.add(id1)
    id2 = _fresh(f"{internal_id}.2", taken)

    internals = []
    for i, a in g.internals:
        if i == internal_id:
            internals.append((id1, position * total))
            internals.append((id2, (1.0 - position) * total))
        else:
            internals.append((i, a))

    old0, olda = int_ref(internal_id, "0"), int_ref(internal_id, "a")
    new_for = {old0: int_ref(id1, "0"), olda: int_ref(id2, "a")}
    vertices = [
        Vertex(tuple(new_for.get(e, e) for e in v.endpoints), v.bc)
        for v in g.vertices
    ]
    vertices.append(Vertex((int_ref(id1, "a"), int_ref(id2, "0")), trivial_vertex_bc()))
    return MetricGraph(g.externals, tuple(internals), tuple(vertices))


def cut(g: MetricGraph, edge_ids) -> tuple[MetricGraph, MetricGraph, CutMap]:
    """Sever the given internal lines, splitting ``g`` into two subgraphs.

    Each severed end becomes a new external line on its side: trailing (in
    severed-edge order) on the left subgraph, leading on the right.  The left
    side is the one containing the first vertex of ``g``.

    Raises:
        UnknownEdge: if an id is not an internal line of ``g``.
        NotACut: if removing the edges does not leave exactly two components,
            or some severed edge does not run between the two components.
    """
    ids = [i for i, _ in g.internals]
    cut_set = []
    for e in edge_ids:
        if e not in ids:
            raise UnknownEdge(f"no internal line with id {e!r}")
        if e not in cut_set:
            cut_set.append(e)
    # deterministic order: as listed in g.internals
    cut_set = [i for i in ids if i in cut_set]
    if not cut_set:
        raise NotACut("no edges were selected")

    home: dict[tuple, int] = {}
    for vi, v in enumerate(g.vertices):
        for e in v.endpoints:
            home[e] = vi

    parent = list(range(len(g.vertices)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, _ in g.internals:
        if i not in cut_set:
            r0, ra = find(home[int_ref(i, "0")]), find(home[int_ref(i, "a")])
            if r0 != ra:
                parent[ra] = r0
    roots = {find(v) for v in range(len(g.vertices))}
    if len(roots) != 2:
        raise NotACut(
            f"removing {cut_set!r} leaves {len(roots)} components, expected 2")
    left_root = find(0)
    side = {vi: (0 if find(vi) == left_root else 1) for vi in range(len(g.vertices))}

    for e in cut_set:
        s0 = side[home[int_ref(e, "0")]]
        sa = side[home[int_ref(e, "a")]]
        if s0 == sa:
            raise NotACut(
                f"edge {e!r} does not run between the two components")

    taken = set(g.externals) | set(ids)
    new_ext: dict[tuple, str] = {}
    pairs = []
    for e in cut_set:
        stub0 = _fresh(f"{e}.cut0", taken)
        taken.add(stub0)
        stuba = _fresh(f"{e}.cuta", taken)
        taken.add(stuba)
        new_ext[int_ref(e, "0")] = stub0
        new_ext[int_ref(e, "a")] = stuba
        if side[home[int_ref(e, "0")]] == 0:
            pairs.append((stub0, stuba, g.length(e)))
        else:
            pairs.append((stuba, stub0, g.length(e)))

    def build(which: int) -> MetricGraph:
        kept_ext = [e for e in g.externals if side[home[ext_ref(e)]] == which]
        cut_ext = [p[which] for p in pairs]
        externals = kept_ext + cut_ext if which == 0 else cut_ext + kept_ext
        internals = [(i, a) for i, a in g.internals
                     if i not in cut_set and side[home[int_ref(i, "0")]] == which]
        vertices = []
        for vi, v in enumerate(g.vertices):
            if side[vi] != which:
                continue
            eps = tuple(
                ext_ref(new_ext[e]) if e in new_ext else e for e in v.endpoints)
            vertices.append(Vertex(eps, v.bc))
        return MetricGraph(tuple(externals), tuple(internals), tuple(vertices))

    left, right = build(0), build(1)
    return left, right, CutMap(
        pairs=tuple(pairs),
        left_externals=left.externals,
        right_externals=right.externals,
    )


def _fresh(candidate: str, taken: set) -> str:
    while candidate in taken:
        candidate += "x"
    return candidate
