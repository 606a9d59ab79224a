"""Metric graphs: external half lines, internal intervals, vertex couplings.

A :class:`MetricGraph` lists external lines (half lines ``[0, inf)``), internal
lines (intervals ``[0, a]`` with ``a > 0``) and vertices.  Every line endpoint
is referenced by a tag tuple: ``("ext", id)`` for the origin of an external
line, ``("int", id, "0")`` and ``("int", id, "a")`` for the two ends of an
internal line.  Each endpoint must belong to exactly one vertex; each vertex
carries a local boundary condition whose size equals its endpoint count.

:func:`assemble` collects the local conditions into the vertex blocks of one
global pair ``(A, B)``, with columns ordered as (externals, internal near
ends, internal far ends) and inward derivatives.  The blocks are what the
scattering solver consumes; the dense pair is written only when read.  Tadpoles
(both ends of an edge at one vertex) and parallel edges are allowed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boundary
from .boundary import BoundaryCondition, InvalidParameters
from .numkernel import as_complex_matrix

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


class GlobalBC:
    """Global boundary condition of a metric graph, held as its vertex blocks.

    The global pair ``(A, B)`` has size ``N = n + 2m``, with columns ordered
    as externals, internal near ends, internal far ends (inward derivative
    convention built in).  It is a row- and column-permuted block sum of the
    vertex pairs, and a ``GlobalBC`` holds those pairs, as one
    ``(rows, columns, a_blocks, b_blocks)`` stack per vertex size (see
    :meth:`vertex_blocks`), which is what :func:`assemble` builds.  Give
    either ``blocks`` or a dense ``bc``; a ``GlobalBC`` built from a dense
    ``bc`` is one block of size ``N``.  The solver reads only the blocks:
    :attr:`bc` writes the dense pair from them on first read, for the
    reference :func:`~artifact.scattering.build_xyz` and outside callers.

    ``admissibility``, when given, must be the exact admissibility numbers of
    the vertices, one record per vertex in the order of :meth:`vertex_blocks`
    (a lone record for the one block of a dense ``bc``); otherwise they are
    measured on first use.  Treat an instance as immutable.

    Raises:
        InvalidGraph: when the lengths are not ``m`` positive finite numbers,
            the pair does not have size ``N``, or the rows or the columns of
            the blocks are not each a permutation of ``range(N)``.
    """

    __slots__ = ("n", "m", "lengths", "_blocks", "_bc", "_vertex_numbers",
                 "_admissibility", "_admissible")

    def __init__(self, n: int, m: int, lengths, bc: BoundaryCondition | None = None,
                 admissibility=None, blocks=None):
        self.n, self.m = n, m
        self.lengths = tuple(float(a) for a in lengths)
        if len(self.lengths) != m:
            raise InvalidGraph(f"{m} internal lines but {len(self.lengths)} lengths")
        if any(not np.isfinite(a) or a <= 0 for a in self.lengths):
            raise InvalidGraph("internal lengths must be positive and finite")
        size = n + 2 * m
        if (bc is None) == (blocks is None):
            raise TypeError("GlobalBC takes either a dense bc or its blocks")
        if bc is not None:
            if bc.dim != size:
                raise InvalidGraph(
                    f"global condition has size {bc.dim}, expected {size}")
            whole = np.arange(size)[None]
            blocks = ((whole, whole, bc.A[None], bc.B[None]),)
        else:
            blocks = tuple(blocks)
            _check_blocks(blocks, size)
        if isinstance(admissibility, boundary.Admissibility):
            admissibility = (admissibility,)
        if admissibility is not None:
            admissibility = tuple(admissibility)
            if len(admissibility) != sum(len(cols) for _, cols, _, _ in blocks):
                raise ValueError("admissibility needs one record per vertex")
        self._blocks, self._bc = blocks, bc
        self._vertex_numbers, self._admissibility = admissibility, None
        self._admissible = False

    @property
    def bc(self) -> BoundaryCondition:
        """The dense ``N x N`` pair ``(A, B)``, written from the blocks on
        first read and kept."""
        if self._bc is None:
            size = self.n + 2 * self.m
            a = np.zeros((size, size), dtype=complex)
            b = np.zeros((size, size), dtype=complex)
            for rows, cols, a_blocks, b_blocks in self._blocks:
                a[rows[:, :, None], cols[:, None, :]] = a_blocks
                b[rows[:, :, None], cols[:, None, :]] = b_blocks
            self._bc = BoundaryCondition(a, b)
        return self._bc

    def vertex_blocks(self) -> tuple:
        """One ``(rows, columns, a_blocks, b_blocks)`` stack per vertex size:
        the i-th pair ``(a_blocks[i], b_blocks[i])`` sits in the global rows
        ``rows[i]`` and couples the endpoints in the global columns
        ``columns[i]``.  Each row and each column belongs to one vertex, so
        the vertex S-matrices scattered by these columns make the S-matrix of
        ``bc``.
        """
        return self._blocks

    def vertex_admissibility(self) -> tuple:
        """The admissibility numbers of every vertex, in the order of
        :meth:`vertex_blocks`: given at construction, or measured once, by
        one :func:`boundary.measure_admissibility_stack` per vertex size (a
        lone vertex, such as a dense ``bc``, by
        :func:`boundary.measure_admissibility`)."""
        if self._vertex_numbers is None:
            if len(self._blocks) == 1 and len(self._blocks[0][1]) == 1:
                _, _, a_blocks, b_blocks = self._blocks[0]
                self._vertex_numbers = (boundary.measure_admissibility(
                    BoundaryCondition(a_blocks[0], b_blocks[0])),)
            else:
                self._vertex_numbers = tuple(
                    record for _, _, a_blocks, b_blocks in self._blocks
                    for record in boundary.measure_admissibility_stack(a_blocks, b_blocks))
        return self._vertex_numbers

    def admissibility_numbers(self) -> boundary.Admissibility:
        """The admissibility numbers of ``bc``, combined exactly from the
        vertex ones (:func:`boundary.combine_admissibility`).

        They do not depend on the energy, so they are formed at most once
        per instance.
        """
        if self._admissibility is None:
            self._admissibility = boundary.combine_admissibility(
                self.vertex_admissibility())
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
            self._admissible = True

    def conjugate(self) -> "GlobalBC":
        """The conjugate pair ``(A-bar, B-bar)``, block by block.  Conjugation
        keeps every admissibility number exactly, so the vertex records are
        inherited."""
        return GlobalBC(self.n, self.m, self.lengths,
                        admissibility=self.vertex_admissibility(),
                        blocks=[(rows, cols, a.conj(), b.conj())
                                for rows, cols, a, b in self._blocks])

    def dual(self, energy: float) -> "GlobalBC":
        """The length/energy dual: the pair ``(-B T, A T)`` of
        :func:`boundary.dual`, block by block (``T_v`` is the vertex's slice
        of ``T``), on lines ``energy`` times as long.  Each row of
        ``[-B T | A T]`` is its row of ``[A | B]``, signed and permuted, so
        the vertex records are inherited."""
        t = np.ones(self.n + 2 * self.m)
        t[self.n + self.m:] = -1.0
        return GlobalBC(self.n, self.m, tuple(energy * a for a in self.lengths),
                        admissibility=self.vertex_admissibility(),
                        blocks=[(rows, cols, -b * t[cols][:, None, :],
                                 a * t[cols][:, None, :])
                                for rows, cols, a, b in self._blocks])

    def rotate_channels(self, u) -> "GlobalBC":
        """The pair ``(A U_hat, B U_hat)`` with ``U_hat = diag(u, I)`` for an
        ``n x n`` channel matrix ``u``.

        ``U_hat`` mixes the external columns, so the vertices that hold one
        merge into one block ``(A_E U_E, B_E U_E)``; every other block keeps
        its pair and its record.  The merged block is measured, never
        inherited: ``(A U)(B U)^T = A U U^T B^T``, so a complex ``u`` changes
        the reality defect.

        Raises:
            DimensionMismatch: unless ``u`` is ``n x n``.
        """
        u = as_complex_matrix(u, "channel unitary")
        if u.shape != (self.n, self.n):
            raise boundary.DimensionMismatch(
                f"channel unitary must be {self.n} x {self.n}, got {u.shape}")
        numbers = iter(self.vertex_admissibility())
        merged, kept, kept_numbers = [], [], []
        for rows, cols, a, b in self._blocks:
            external = (cols < self.n).any(axis=1)
            for holds, record in zip(external, numbers):
                if not holds:
                    kept_numbers.append(record)
            merged += [(rows[i], cols[i], a[i], b[i]) for i in external.nonzero()[0]]
            if not external.all():
                kept.append((rows[~external], cols[~external], a[~external], b[~external]))
        if not merged:
            return self
        rows = np.concatenate([r for r, _, _, _ in merged])
        cols = np.concatenate([c for _, c, _, _ in merged])
        a_e = np.zeros((len(cols), len(cols)), dtype=complex)
        b_e = np.zeros_like(a_e)
        start = 0
        for _, _, a, b in merged:
            stop = start + len(a)
            a_e[start:stop, start:stop], b_e[start:stop, start:stop] = a, b
            start = stop
        u_e = np.eye(len(cols), dtype=complex)
        ext = (cols < self.n).nonzero()[0]
        u_e[np.ix_(ext, ext)] = u[np.ix_(cols[ext], cols[ext])]
        pair = BoundaryCondition(a_e @ u_e, b_e @ u_e)
        return GlobalBC(self.n, self.m, self.lengths,
                        admissibility=[boundary.measure_admissibility(pair), *kept_numbers],
                        blocks=[(rows[None], cols[None], pair.A[None], pair.B[None]),
                                *kept])


def _check_blocks(blocks, size: int) -> None:
    """Raise :class:`InvalidGraph` unless ``blocks`` are ``(rows, columns,
    a_blocks, b_blocks)`` stacks of shapes ``(V, d)``, ``(V, d)``,
    ``(V, d, d)``, ``(V, d, d)`` whose rows and whose columns each run over
    ``range(size)`` once."""
    for rows, cols, a_blocks, b_blocks in blocks:
        if np.ndim(cols) != 2 or not (np.shape(rows) == np.shape(cols)
                                      and np.shape(a_blocks) == np.shape(b_blocks)
                                      == np.shape(cols) + np.shape(cols)[-1:]):
            raise InvalidGraph("vertex blocks must be (V, d) rows and columns "
                               "with (V, d, d) pairs")
    for which, name in ((0, "rows"), (1, "columns")):
        used = np.concatenate([np.zeros(0, dtype=int)]
                              + [np.ravel(block[which]) for block in blocks])
        if used.dtype.kind not in "iu" or not np.array_equal(np.sort(used),
                                                             np.arange(size)):
            raise InvalidGraph(
                f"the {name} of the vertex blocks are not a permutation of range({size})")


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
    """The global condition of ``g``: its vertex blocks, measured by
    :func:`measure_vertices`, one ``(rows, columns, a_blocks, b_blocks)``
    stack per vertex size.

    The rows follow ``g.vertices`` and the columns the endpoint order of
    :class:`GlobalBC`, so the numpy calls do not grow with the vertex count
    and no ``N x N`` array is written.  Each vertex is judged at ``tol``,
    and its numbers are the result's vertex records, so no check of the
    global pair decomposes it.

    Raises:
        InvalidBoundaryCondition: for the first inadmissible vertex, in the
            order of ``g.vertices``.
    """
    n, m = g.n, g.m
    col: dict[tuple, int] = {}
    for j, e in enumerate(g.externals):
        col[ext_ref(e)] = j
    for j, (i, _) in enumerate(g.internals):
        col[int_ref(i, "0")] = n + j
        col[int_ref(i, "a")] = n + m + j

    vertices = g.vertices
    first_row = np.cumsum([0] + [v.bc.dim for v in vertices])
    parts, stacks = measure_vertices(vertices)
    blocks = []
    for members, a_blocks, b_blocks in stacks:
        rows = first_row[members][:, None] + np.arange(a_blocks.shape[-1])
        cols = np.array([[col[e] for e in vertices[vi].endpoints] for vi in members])
        blocks.append((rows, cols, a_blocks, b_blocks))
    for vi, numbers in enumerate(parts):
        try:
            numbers.require(tol)
        except boundary.InvalidBoundaryCondition as exc:
            raise boundary.InvalidBoundaryCondition(f"vertex {vi}: {exc}")
    return GlobalBC(n=n, m=m, lengths=tuple(length for _, length in g.internals),
                    admissibility=[parts[vi] for members, _, _ in stacks for vi in members],
                    blocks=blocks)


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
