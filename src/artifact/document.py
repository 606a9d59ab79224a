"""Graph documents: the JSON format the command line reads.

A document has the shape

    {
      "metadata":  { ... free form ... },
      "externals": ["l1", "l2"],
      "internals": [{"id": "i1", "length": 1.0}],
      "vertices":  [{"endpoints": ["ext:l1", "int:i1:0"],
                     "bc": {"kind": "kirchhoff"}}]
    }

Endpoint references are ``ext:<id>``, ``int:<id>:0`` or ``int:<id>:a``.  A
``bc`` entry names one of the couplings below (sized by the endpoint count of
its vertex) or gives explicit matrices with complex entries as [re, im] pairs:

    dirichlet | neumann | kirchhoff            (no parameters)
    robin       {"phi": x}                     (single endpoint)
    delta       {"strength": c, "mu": 0.0}     (two endpoints)
    delta_prime {"strength": b}                (two endpoints)
    sl2         {"a":, "b":, "c":, "d":, "mu": 0.0}   (two endpoints)
    cyclic      {"c": x}                       (odd endpoint count >= 3)
    matrix      {"A": [[[re,im],...],...], "B": ...}

Unknown keys anywhere in a document are rejected; every malformed or
structurally invalid document raises :class:`DocumentError`.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import boundary
from . import graph as graphmod
from .boundary import BoundaryCondition, DimensionMismatch, InvalidParameters
from .graph import MetricGraph, Vertex, ext_ref, int_ref


class DocumentError(ValueError):
    """Malformed graph document or command input (exit code 2)."""


def _matrix_bc(params: dict, dim: int) -> BoundaryCondition:
    a, b = (np.array([[complex(re, im) for re, im in row] for row in params[name]])
            for name in ("A", "B"))
    if a.shape != (dim, dim) or b.shape != (dim, dim):
        raise DimensionMismatch(
            f"matrices must be {dim} x {dim} for {dim} endpoints")
    return BoundaryCondition(a, b)


# Named couplings: required parameters, optional parameters, the endpoint
# count it needs (None for any) and its constructor from (params, dim).
_BC_KINDS = {
    "dirichlet": ((), (), None, lambda p, dim: boundary.dirichlet(dim)),
    "neumann": ((), (), None, lambda p, dim: boundary.neumann(dim)),
    "kirchhoff": ((), (), None, lambda p, dim: boundary.kirchhoff_standard(dim)),
    "robin": (("phi",), (), 1, lambda p, dim: boundary.robin(p["phi"])),
    "delta": (("strength",), ("mu",), 2,
              lambda p, dim: boundary.delta_coupling(p["strength"], p.get("mu", 0.0))),
    "delta_prime": (("strength",), (), 2,
                    lambda p, dim: boundary.delta_prime(p["strength"])),
    "sl2": (("a", "b", "c", "d"), ("mu",), 2,
            lambda p, dim: boundary.sl2_coupling(p["a"], p["b"], p["c"], p["d"],
                                                 p.get("mu", 0.0))),
    "cyclic": (("c",), (), None, lambda p, dim: boundary.cyclic_coupling(p["c"], dim)),
    "matrix": (("A", "B"), (), None, _matrix_bc),
}


@dataclass(frozen=True)
class VertexSpec:
    endpoints: tuple
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GraphDocument:
    """Parsed, normalized form of a graph description file.

    Parsing and serialization are inverse up to normalization: any accepted
    document satisfies ``from_dict(doc.to_dict()) == doc``.
    """

    externals: tuple
    internals: tuple
    vertices: tuple
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data) -> "GraphDocument":
        if not isinstance(data, dict):
            raise DocumentError("document must be a JSON object")
        _check_keys(data, {"metadata", "externals", "internals", "vertices"},
                    "document")
        externals = tuple(_require_id(e, "external id")
                          for e in _require_list(data, "externals"))
        internals = []
        for entry in _require_list(data, "internals"):
            if not isinstance(entry, dict):
                raise DocumentError(f"internal entry must be an object, got {entry!r}")
            _check_keys(entry, {"id", "length"}, "internal entry")
            internals.append((_require_id(entry.get("id"), "internal id"),
                              _require_number(entry.get("length"), "length")))
        vertices = []
        for vi, entry in enumerate(_require_list(data, "vertices")):
            if not isinstance(entry, dict):
                raise DocumentError(f"vertex {vi} must be an object")
            _check_keys(entry, {"endpoints", "bc"}, f"vertex {vi}")
            endpoints = tuple(_parse_endpoint(e, vi)
                              for e in _require_list(entry, "endpoints", f"vertex {vi}"))
            kind, params = _parse_bc_spec(entry.get("bc"), vi)
            vertices.append(VertexSpec(endpoints, kind, params))
        metadata = data.get("metadata", {})
        if not isinstance(metadata, dict):
            raise DocumentError("metadata must be an object")
        return cls(externals, tuple(internals), tuple(vertices), metadata)

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "externals": list(self.externals),
            "internals": [{"id": i, "length": a} for i, a in self.internals],
            "vertices": [
                {
                    "endpoints": [":".join(e) for e in v.endpoints],
                    "bc": {"kind": v.kind, **v.params},
                }
                for v in self.vertices
            ],
        }

    def to_graph(self) -> MetricGraph:
        """Build the metric graph; structural failures become DocumentError."""
        vertices = []
        for vi, spec in enumerate(self.vertices):
            bc = _build_bc(spec.kind, spec.params, len(spec.endpoints), vi)
            try:
                vertices.append(Vertex(spec.endpoints, bc))
            except graphmod.InvalidGraph as exc:
                raise DocumentError(f"vertex {vi}: {exc}")
        try:
            return MetricGraph(self.externals, self.internals, tuple(vertices))
        except graphmod.InvalidGraph as exc:
            raise DocumentError(str(exc))


def _check_keys(entry: dict, allowed: set, where: str) -> None:
    unknown = set(entry) - allowed
    if unknown:
        raise DocumentError(f"unknown keys in {where}: {sorted(unknown)}")


def _require_list(data: dict, key: str, where: str = "document"):
    value = data.get(key)
    if not isinstance(value, list):
        raise DocumentError(f"{where} needs a {key!r} array")
    return value


def _require_id(value, what: str) -> str:
    if not isinstance(value, str) or not value or ":" in value:
        raise DocumentError(f"{what} must be a nonempty string without ':', "
                            f"got {value!r}")
    return value


def _require_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{what} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise DocumentError(f"{what} must be finite, got {value!r}")
    return value


def _parse_endpoint(text, vi: int) -> tuple:
    if not isinstance(text, str):
        raise DocumentError(f"vertex {vi}: endpoint must be a string, got {text!r}")
    parts = text.split(":")
    if len(parts) == 2 and parts[0] == "ext" and parts[1]:
        return ext_ref(parts[1])
    if len(parts) == 3 and parts[0] == "int" and parts[1] and parts[2] in ("0", "a"):
        return int_ref(parts[1], parts[2])
    raise DocumentError(f"vertex {vi}: malformed endpoint reference {text!r}")


def _parse_bc_spec(spec, vi: int):
    if not isinstance(spec, dict):
        raise DocumentError(f"vertex {vi}: bc must be an object")
    kind = spec.get("kind")
    if kind not in _BC_KINDS:
        raise DocumentError(
            f"vertex {vi}: unknown bc kind {kind!r} (known: "
            f"{', '.join(sorted(_BC_KINDS))})")
    required, optional, _, _ = _BC_KINDS[kind]
    _check_keys(spec, {"kind", *required, *optional}, f"vertex {vi} bc")
    params = {}
    for name in required:
        if name not in spec:
            raise DocumentError(f"vertex {vi}: bc kind {kind!r} needs {name!r}")
    for name in (*required, *optional):
        if name not in spec:
            continue
        if kind == "matrix":
            params[name] = _normalize_matrix(spec[name], f"vertex {vi} bc {name}")
        else:
            params[name] = _require_number(spec[name], f"vertex {vi} bc {name!r}")
    return kind, params


def _normalize_matrix(rows, where: str):
    if not isinstance(rows, list) or not rows:
        raise DocumentError(f"{where} must be a nonempty array of rows")
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != len(rows):
            raise DocumentError(f"{where} must be square (rows of [re, im] pairs)")
        out_row = []
        for cell in row:
            if not isinstance(cell, list) or len(cell) != 2:
                raise DocumentError(
                    f"{where}: complex entries are [re, im] pairs, got {cell!r}")
            out_row.append([_require_number(cell[0], f"{where} entry"),
                            _require_number(cell[1], f"{where} entry")])
        out.append(out_row)
    return out


def _build_bc(kind: str, params: dict, dim: int, vi: int) -> BoundaryCondition:
    _, _, count, build = _BC_KINDS[kind]
    if count is not None and dim != count:
        raise DocumentError(f"vertex {vi}: {kind} needs exactly {count} "
                            f"endpoint{'s' if count > 1 else ''}, has {dim}")
    try:
        return build(params, dim)
    except (InvalidParameters, DimensionMismatch) as exc:
        raise DocumentError(f"vertex {vi}: {exc}")


def load_document(path: str) -> GraphDocument:
    """Read and parse a graph document; IO and JSON problems are input errors."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path!r}: {exc}")
    return loads_document(text)


def loads_document(text: str) -> GraphDocument:
    """Parse a graph document from JSON text."""
    def reject_constant(name):
        raise DocumentError(f"non-finite number {name!r} in document")

    try:
        data = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}")
    return GraphDocument.from_dict(data)
