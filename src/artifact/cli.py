"""Command-line front end: graph documents, sweeps, spectra, composition.

Graph documents are JSON files of the shape

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

Unknown keys anywhere in a document are rejected.  Sweep CSV columns are, in
order: E, k, then Re/Im/|.|^2 triples of every S entry row-major (labels
``ReS_<out>_<in>`` etc.), then unitarity_defect, at_eigenvalue, status.  Rows
whose solve failed carry the error name in status and nan data cells.

Exit codes: 0 success, 1 domain failure, 2 malformed input.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import boundary, numkernel, scattering, starprod
from . import graph as graphmod
from .boundary import (BoundaryCondition, DimensionMismatch,
                       InvalidBoundaryCondition, InvalidParameters)
from .graph import MetricGraph, Vertex, ext_ref, int_ref

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


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
                    "endpoints": [_format_endpoint(e) for e in v.endpoints],
                    "bc": {"kind": v.kind, **v.params},
                }
                for v in self.vertices
            ],
        }

    def to_graph(self) -> MetricGraph:
        """Build the metric graph; structural failures become DocumentError."""
        line_ends = {}
        for i, _ in self.internals:
            line_ends[(i, "0")] = int_ref(i, "0")
            line_ends[(i, "a")] = int_ref(i, "a")
        vertices = []
        for vi, spec in enumerate(self.vertices):
            dim = len(spec.endpoints)
            bc = _build_bc(spec.kind, spec.params, dim, vi)
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


def _format_endpoint(e: tuple) -> str:
    return ":".join(str(part) for part in e)


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
    def reject_constant(name):
        raise DocumentError(f"non-finite number {name!r} in document")

    try:
        data = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}")
    return GraphDocument.from_dict(data)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_validate(args) -> int:
    doc = load_document(args.file)
    g = doc.to_graph()
    reports = [boundary.validate(v.bc, args.tol) for v in g.vertices]
    all_ok = all(r.ok for r in reports)
    global_report = None
    if all_ok:
        gbc = graphmod.assemble(g, args.tol)
        global_report = boundary.validate(gbc.bc, args.tol)

    if args.json:
        payload = {
            "valid": bool(all_ok and global_report and global_report.ok),
            "vertices": [
                {"ok": r.ok, "rank_ok": r.rank_ok, "hermitian_ok": r.hermitian_ok,
                 "rank_found": r.rank_found,
                 "hermiticity_defect": r.hermiticity_defect,
                 "is_real": r.is_real_bc}
                for r in reports
            ],
            "global": None if global_report is None else {
                "n": g.n, "m": g.m, "size": g.n + 2 * g.m,
                "ok": global_report.ok,
                "hermiticity_defect": global_report.hermiticity_defect,
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for vi, (v, r) in enumerate(zip(g.vertices, reports)):
            if r.ok:
                print(f"vertex {vi} ({len(v.endpoints)} endpoints): ok, "
                      f"hermiticity defect {r.hermiticity_defect:.3e}, "
                      f"real={'yes' if r.is_real_bc else 'no'}")
            elif not r.rank_ok:
                print(f"vertex {vi} ({len(v.endpoints)} endpoints): FAIL rank "
                      f"({r.rank_found} of {len(v.endpoints)})")
            else:
                print(f"vertex {vi} ({len(v.endpoints)} endpoints): FAIL "
                      f"hermiticity (defect {r.hermiticity_defect:.3e})")
        if global_report is None:
            print("global: skipped (inadmissible vertex conditions)")
        else:
            word = "ok" if global_report.ok else "FAIL"
            print(f"global: n={g.n} m={g.m} size={g.n + 2 * g.m} {word}")
    return EXIT_OK if all_ok and global_report and global_report.ok else EXIT_DOMAIN


def _sweep_energies(args) -> list:
    if args.emin <= 0 or not np.isfinite(args.emin) or not np.isfinite(args.emax):
        raise DocumentError(f"need 0 < emin <= emax, got ({args.emin}, {args.emax})")
    if args.emax < args.emin:
        raise DocumentError(f"need 0 < emin <= emax, got ({args.emin}, {args.emax})")
    if args.points < 1:
        raise DocumentError(f"points must be >= 1, got {args.points}")
    if args.uniform_e:
        return [float(e) for e in np.linspace(args.emin, args.emax, args.points)]
    ks = np.linspace(np.sqrt(args.emin), np.sqrt(args.emax), args.points)
    return [float(k * k) for k in ks]


def cmd_sweep(args) -> int:
    doc = load_document(args.file)
    g = doc.to_graph()
    gbc = graphmod.assemble(g)
    if gbc.n == 0:
        raise scattering.NoExternalLines("graph has no external lines to sweep")
    energies = _sweep_energies(args)
    outcomes = scattering.solve_many(gbc, energies, args.tol)

    ids = g.externals
    columns = ["E", "k"]
    for out_id in ids:
        for in_id in ids:
            columns += [f"ReS_{out_id}_{in_id}", f"ImS_{out_id}_{in_id}",
                        f"absS2_{out_id}_{in_id}"]
    columns += ["unitarity_defect", "at_eigenvalue", "status"]

    rows = []
    for e, res in zip(energies, outcomes):
        row = [e, float(np.sqrt(e))]
        if isinstance(res, Exception):
            row += [None] * (3 * len(ids) ** 2 + 1) + [0, type(res).__name__]
        else:
            for j in range(gbc.n):
                for l in range(gbc.n):
                    s = res.s[j, l]
                    row += [float(s.real), float(s.imag), float(abs(s) ** 2)]
            row += [float(res.unitarity_defect),
                    1 if res.at_eigenvalue else 0, "ok"]
        rows.append(row)

    if args.json:
        payload = {"columns": columns, "rows": rows}
        _output(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["nan" if cell is None else
                             (_fmt(cell) if isinstance(cell, float) else cell)
                             for cell in row])
        _output(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    doc = load_document(args.file)
    g = doc.to_graph()
    gbc = graphmod.assemble(g)
    if not (np.isfinite(args.emin) and np.isfinite(args.emax)) \
            or not 0 < args.emin < args.emax:
        raise DocumentError(f"need 0 < emin < emax, got ({args.emin}, {args.emax})")
    result = scattering.spectrum(gbc, args.emin, args.emax, grid=args.grid_points)

    functions = []
    if args.eigenfunctions:
        for e in result.eigenvalues:
            basis = scattering.eigenfunction(gbc, e)
            functions.append([
                {"alpha_hat": [[z.real, z.imag] for z in a],
                 "beta_hat": [[z.real, z.imag] for z in b]}
                for a, b in basis
            ])

    if args.json:
        payload = {
            "window": list(result.search_window),
            "grid_points": result.grid_points,
            "eigenvalues": list(result.eigenvalues),
            "residuals": list(result.residuals),
        }
        if args.eigenfunctions:
            payload["eigenfunctions"] = functions
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        lo, hi = result.search_window
        print(f"{len(result.eigenvalues)} eigenvalue(s) in ({_fmt(lo)}, {_fmt(hi)}] "
              f"({result.grid_points} grid points)")
        for i, (e, r) in enumerate(zip(result.eigenvalues, result.residuals)):
            print(f"E = {_fmt(e)}   residual = {r:.3e}")
            if args.eigenfunctions:
                for bi, vec in enumerate(functions[i]):
                    alpha = [complex(re, im) for re, im in vec["alpha_hat"]]
                    beta = [complex(re, im) for re, im in vec["beta_hat"]]
                    print(f"  basis {bi}: alpha_hat = {alpha}")
                    print(f"           beta_hat  = {beta}")
    return EXIT_OK


def cmd_compose(args) -> int:
    doc = load_document(args.file)
    g = doc.to_graph()
    cut_ids = [part for part in args.cut.split(",") if part]
    if not cut_ids:
        raise DocumentError("--cut needs a comma-separated list of edge ids")
    try:
        energies = [float(part) for part in args.energies.split(",") if part]
    except ValueError:
        raise DocumentError(f"cannot parse --energies {args.energies!r}")
    if not energies:
        raise DocumentError("--energies needs at least one value")
    if any(not np.isfinite(e) or e <= 0 for e in energies):
        raise DocumentError("energies must be finite and > 0")

    rows = []
    for e, out in zip(energies, starprod.factorize_many(g, cut_ids, energies, args.tol)):
        if isinstance(out, starprod.ConditionAViolated):
            rows.append((e, None, f"SKIPPED (Condition A margin {out.margin:.3e})"))
        else:
            rows.append((e, out[2], "ok"))

    if args.json:
        payload = [{"E": e, "defect": d, "status": status}
                   for e, d, status in rows]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"cut {','.join(cut_ids)}: composed vs direct S-matrix")
        for e, d, status in rows:
            if d is None:
                print(f"E = {_fmt(e)}   {status}")
            else:
                print(f"E = {_fmt(e)}   defect = {d:.3e}   {status}")
    return EXIT_OK


# --------------------------------------------------------------------------
# selftest
# --------------------------------------------------------------------------

def _fixture(name: str) -> GraphDocument:
    text = (resources.files("artifact") / "fixtures" / name).read_text("utf-8")
    return loads_document(text)


def _fixture_gbc(name: str):
    return graphmod.assemble(_fixture(name).to_graph())


def _check_three_star(rng):
    gbc = _fixture_gbc("kirchhoff_star.json")
    target = 2.0 / 3.0 * np.ones((3, 3)) - np.eye(3)
    worst = 0.0
    for e in (0.5, 1.0, 2.0, 10.0):
        s = scattering.solve_scattering(gbc, e).s
        worst = max(worst, float(np.abs(s - target).max()))
    return worst < 1e-12, f"max deviation {worst:.3e}"


def _check_free_junction(rng):
    gbc = _fixture_gbc("free_two_line.json")
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    worst = max(float(np.abs(scattering.solve_scattering(gbc, e).s - target).max())
                for e in (0.3, 2.0, 40.0))
    return worst < 1e-12, f"max deviation {worst:.3e}"


def _check_robin_delta(rng):
    gbc = _fixture_gbc("robin_delta.json")
    phi, c = np.pi / 4.0, 1.0
    worst = 0.0
    for e in (0.5, 2.0, 10.0):
        k = np.sqrt(e)
        res = scattering.solve_scattering(gbc, e)
        # independent route: eliminate by hand from the three endpoint relations
        q = np.exp(1j * k)
        rows = np.array([
            [0.0, np.sin(phi) + 1j * k * np.cos(phi),
             np.sin(phi) - 1j * k * np.cos(phi)],
            [1.0, -q, -1.0 / q],
            [1j * k, -1j * k * q - c * q, 1j * k / q - c / q],
        ], dtype=complex)
        rhs = np.array([0.0, -1.0, 1j * k], dtype=complex)
        s, alpha, beta = np.linalg.solve(rows, rhs)
        worst = max(worst,
                    abs(res.s[0, 0] - s),
                    abs(res.alpha[0, 0] - alpha),
                    abs(res.beta[0, 0] - beta))
    return worst < 1e-10, f"max deviation vs direct elimination {worst:.3e}"


def _check_ring(rng):
    gbc = _fixture_gbc("ring.json")
    worst = 0.0
    for e in (0.5, 2.0, 11.0, 30.0, 47.0):
        k = np.sqrt(e)
        q2 = np.exp(2j * k)
        target = -np.array([[3.0 * (q2 - 1.0), 8.0 * np.exp(1j * k)],
                            [8.0 * np.exp(1j * k), 3.0 * (q2 - 1.0)]]) / (q2 - 9.0)
        s = scattering.solve_scattering(gbc, e).s
        worst = max(worst, float(np.abs(s - target).max()))
        _, _, z = scattering.build_xyz(gbc, e)
        det = numkernel.determinant(z)
        det_target = (10.0 - q2 - 9.0 / q2) * e
        worst = max(worst, abs(det - det_target) / abs(det_target))
    found = scattering.spectrum(gbc, 0.5, 100.0)
    expected = np.array([np.pi ** 2, 4.0 * np.pi ** 2, 9.0 * np.pi ** 2])
    if len(found.eigenvalues) != 3:
        return False, f"expected 3 eigenvalues, found {len(found.eigenvalues)}"
    spec_err = float(np.abs(np.array(found.eigenvalues) / expected - 1.0).max())
    ok = worst < 1e-10 and spec_err < 1e-8
    return ok, f"closed-form deviation {worst:.3e}, spectrum relative {spec_err:.3e}"


def _check_chain(rng):
    doc = _fixture("chain.json")
    g = doc.to_graph()
    a = g.length("mid")
    _, _, defect = starprod.factorize_graph(g, ["mid"], 2.0)
    # dressed two-block formula for the same composition
    k = np.sqrt(2.0)
    s_left = scattering.smatrix_single_vertex(g.vertices[0].bc, 2.0)
    s_right = scattering.smatrix_single_vertex(g.vertices[1].bc, 2.0)
    # right vertex lists the interval end first; its single-vertex channels
    # are ordered like its endpoints, so put the cut channel first
    den = 1.0 - s_left[1, 1] * s_right[0, 0] * np.exp(2j * k * a)
    s11 = s_left[0, 0] + s_left[0, 1] * s_right[0, 0] * s_left[1, 0] \
        * np.exp(2j * k * a) / den
    s_direct = scattering.solve_scattering(graphmod.assemble(g), 2.0).s
    formula_err = abs(s_direct[0, 0] - s11)
    ok = defect < 1e-10 and formula_err < 1e-10
    return ok, f"factorization defect {defect:.3e}, block formula {formula_err:.3e}"


def _check_ring_star(rng):
    g = _fixture("ring.json").to_graph()
    worst = 0.0
    for e in (0.7, 2.0, 13.0):
        _, _, defect = starprod.factorize_graph(g, ["i1", "i2"], e)
        worst = max(worst, defect)
        # kernel factor against its closed form
        k = np.sqrt(e)
        q2 = np.exp(2j * k)
        s3 = scattering.smatrix_single_vertex(boundary.kirchhoff_standard(3), e)
        corner = s3[1:, 1:]
        k1 = np.linalg.inv(np.eye(2) - corner @ (q2 * corner))
        k1_target = np.array([[1.0 - 5.0 / 9.0 * q2, -4.0 / 9.0 * q2],
                              [-4.0 / 9.0 * q2, 1.0 - 5.0 / 9.0 * q2]]) \
            / ((1.0 - q2 / 9.0) * (1.0 - q2))
        worst = max(worst, float(np.abs(k1 - k1_target).max()))
    return worst < 1e-10, f"max defect {worst:.3e}"


def _check_tadpole(rng):
    doc = _fixture("tadpole.json")
    g = doc.to_graph()
    gbc = graphmod.assemble(g)
    worst = 0.0
    for e in (0.3, 1.7, 5.0):
        q = np.exp(1j * np.sqrt(e))
        closed = q * (1.0 / q - 3.0) / (q - 3.0)
        direct = scattering.solve_scattering(gbc, e).s[0, 0]
        split = graphmod.insert_trivial_vertex(g, "loop")
        inserted = scattering.solve_scattering(graphmod.assemble(split), e).s[0, 0]
        composed, _, _ = starprod.factorize_graph(g, ["loop"], e)
        worst = max(worst, abs(direct - closed), abs(inserted - closed),
                    abs(composed[0, 0] - closed))
    resonant = (2.0 * np.pi) ** 2
    try:
        starprod.factorize_graph(g, ["loop"], resonant, tol=1e-6)
        flagged = False
    except starprod.ConditionAViolated:
        flagged = True
    ok = worst < 1e-10 and flagged
    return ok, f"max route disagreement {worst:.3e}, resonance flagged={flagged}"


def _check_cyclic(rng):
    worst = 0.0
    circ = 0.0
    for n in (3, 5):
        for c in (0.5, 2.0):
            bc = boundary.cyclic_coupling(c, n)
            for e in (0.5, 2.0, 7.0):
                s = scattering.smatrix_single_vertex(bc, e)
                k = np.sqrt(e)
                target = np.zeros((n, n), dtype=complex)
                for j in range(n):
                    for l in range(n):
                        acc = 0.0j
                        for mm in range(n):
                            w = np.exp(2j * np.pi * (l - j) * mm / n)
                            g = 2.0 * c * k * np.cos(2.0 * np.pi * mm / n)
                            acc += w * (1.0 - 1j * g) / (1.0 + 1j * g)
                        target[j, l] = -acc / n
                worst = max(worst, float(np.abs(s - target).max()))
                rolled = np.roll(np.roll(s, 1, axis=0), 1, axis=1)
                circ = max(circ, float(np.abs(rolled - s).max()))
    ok = worst < 1e-10 and circ < 1e-12
    return ok, f"spectral formula {worst:.3e}, circulant defect {circ:.3e}"


def _sl2_closed_form(a, b, c, d, mu, e):
    k = np.sqrt(e)
    den = a - 1j * k * b + 1j * c / k + d
    return np.array([
        [a - 1j * k * b - 1j * c / k - d, 2.0 * np.exp(1j * mu)],
        [2.0 * np.exp(-1j * mu), -a - 1j * k * b - 1j * c / k + d],
    ]) / den


def _check_sl2(rng):
    worst = 0.0
    draws = []
    for _ in range(5):
        while True:
            a, b, c = rng.normal(size=3)
            if abs(a) > 0.3:
                break
        d = (1.0 + b * c) / a
        draws.append((a, b, c, d, float(rng.uniform(0.0, 2.0 * np.pi))))
    draws.append((1.0, 0.0, 1.4, 1.0, 0.0))    # value-jump junction
    draws.append((1.0, -0.8, 0.0, 1.0, 0.0))   # derivative-jump junction
    for a, b, c, d, mu in draws:
        bc = boundary.sl2_coupling(a, b, c, d, mu)
        for e in (0.5, 2.0, 9.0):
            s = scattering.smatrix_single_vertex(bc, e)
            worst = max(worst,
                        float(np.abs(s - _sl2_closed_form(a, b, c, d, mu, e)).max()))
    return worst < 1e-10, f"max deviation {worst:.3e}"


def _check_random_bcs(rng):
    worst_s = 0.0
    worst_w = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 6))
        bc = boundary.random_bc(n, rng)
        if not boundary.validate(bc).ok:
            return False, "random condition failed validation"
        s = scattering.smatrix_single_vertex(bc, 1.7)
        worst_s = max(worst_s, numkernel.unitarity_defect(s))
        w = boundary.von_neumann_parameter(bc)
        worst_w = max(worst_w, numkernel.unitarity_defect(w))
    neumann_w = boundary.von_neumann_parameter(boundary.neumann(3))
    dirichlet_w = boundary.von_neumann_parameter(boundary.dirichlet(3))
    special = max(float(np.abs(neumann_w - 1j * np.eye(3)).max()),
                  float(np.abs(dirichlet_w + np.eye(3)).max()))
    ok = worst_s < 1e-9 and worst_w < 1e-10 and special == 0.0
    return ok, (f"S defect {worst_s:.3e}, extension parameter defect "
                f"{worst_w:.3e}, named cases {special:.1e}")


def _random_graph(rng):
    """Two clusters of random couplings joined by bridge edges (a valid cut)."""
    n_left = int(rng.integers(1, 3))
    n_right = int(rng.integers(0, 3))
    bridges = int(rng.integers(1, 3))
    with_tadpole = bool(rng.integers(0, 2))
    externals = [f"l{i}" for i in range(n_left)] + [f"r{i}" for i in range(n_right)]
    internals = [(f"b{i}", float(rng.uniform(0.2, 3.0))) for i in range(bridges)]
    left_eps = [ext_ref(f"l{i}") for i in range(n_left)]
    left_eps += [int_ref(f"b{i}", "0") for i in range(bridges)]
    if with_tadpole:
        internals.append(("t0", float(rng.uniform(0.2, 3.0))))
        left_eps += [int_ref("t0", "0"), int_ref("t0", "a")]
    right_eps = [ext_ref(f"r{i}") for i in range(n_right)]
    right_eps += [int_ref(f"b{i}", "a") for i in range(bridges)]
    vertices = (
        Vertex(tuple(left_eps), boundary.random_bc(len(left_eps), rng)),
        Vertex(tuple(right_eps), boundary.random_bc(len(right_eps), rng)),
    )
    g = MetricGraph(tuple(externals), tuple(internals), vertices)
    return g, [i for i, _ in internals if i.startswith("b")]


def _check_random_graphs(rng):
    worst = 0.0
    worst_fact = 0.0
    skips = 0
    for _ in range(8):
        g, bridge_ids = _random_graph(rng)
        gbc = graphmod.assemble(g)
        for _ in range(3):
            e = float(rng.uniform(0.3, 12.0))
            res = scattering.solve_scattering(gbc, e)
            if res.at_eigenvalue:
                continue
            worst = max(worst, res.unitarity_defect,
                        scattering.check_transpose(gbc, e),
                        scattering.check_duality(gbc, e))
            u = boundary.random_unitary(gbc.n, rng)
            worst = max(worst, scattering.check_covariance(gbc, u, e))
            try:
                _, _, defect = starprod.factorize_graph(g, bridge_ids, e)
                worst_fact = max(worst_fact, defect)
            except starprod.ConditionAViolated:
                skips += 1
    ok = worst < 1e-9 and worst_fact < 1e-9
    return ok, (f"identity defects {worst:.3e}, factorization {worst_fact:.3e}, "
                f"{skips} resonant skip(s)")


def _check_star_algebra(rng):
    worst_u = 0.0
    for _ in range(30):
        nl = int(rng.integers(2, 6))
        nr = int(rng.integers(2, 6))
        p = int(rng.integers(1, min(nl, nr, (nl + nr - 1) // 2) + 1))
        ops = starprod.StarOperands(boundary.random_unitary(nl, rng),
                                    boundary.random_unitary(nr, rng),
                                    boundary.random_unitary(p, rng), p)
        if ops.margin <= 1e-8:
            continue
        worst_u = max(worst_u, numkernel.unitarity_defect(starprod.star(ops)))
    # unit laws
    worst_unit = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, n))
        u = boundary.random_unitary(n, rng)
        v = boundary.random_unitary(p, rng)
        flip = np.zeros((2 * p, 2 * p), dtype=complex)
        flip[:p, p:] = np.eye(p)
        flip[p:, :p] = np.eye(p)
        left = starprod.star(starprod.StarOperands(flip, u, v, p))
        dv = np.eye(n, dtype=complex)
        dv[:p, :p] = v
        target = np.linalg.inv(dv) @ u @ dv
        worst_unit = max(worst_unit, float(np.abs(left - target).max()))
        right = starprod.star(starprod.StarOperands(u, flip, v, p))
        dv2 = np.eye(n, dtype=complex)
        dv2[n - p:, n - p:] = np.linalg.inv(v)
        target2 = np.linalg.inv(dv2) @ u @ dv2
        worst_unit = max(worst_unit, float(np.abs(right - target2).max()))
    # associativity
    worst_assoc = 0.0
    tries = 0
    attempts = 0
    while tries < 5 and attempts < 50:
        attempts += 1
        n2 = int(rng.integers(2, 5))
        p = int(rng.integers(1, n2))
        pp = int(rng.integers(1, n2 - p + 1))
        n1 = p + int(rng.integers(1, 3))
        n3 = pp + int(rng.integers(1, 3))
        u1 = boundary.random_unitary(n1, rng)
        u2 = boundary.random_unitary(n2, rng)
        u3 = boundary.random_unitary(n3, rng)
        v = boundary.random_unitary(p, rng)
        vp = boundary.random_unitary(pp, rng)
        try:
            worst_assoc = max(worst_assoc,
                              starprod.associativity_check(u1, u2, u3, v, vp, p, pp))
        except starprod.ConditionAViolated:
            continue
        tries += 1
    ok = worst_u < 1e-10 and worst_unit < 1e-12 and worst_assoc < 1e-10
    return ok, (f"unitarity {worst_u:.3e}, unit laws {worst_unit:.3e}, "
                f"associativity {worst_assoc:.3e}")


def _check_pseudoinverse(rng):
    worst = 0.0
    for i in range(20):
        r = int(rng.integers(1, 6))
        c = int(rng.integers(1, 6))
        if i % 3 == 0 and min(r, c) > 1:
            u = rng.normal(size=(r, 1)) + 1j * rng.normal(size=(r, 1))
            v = rng.normal(size=(1, c)) + 1j * rng.normal(size=(1, c))
            m = u @ v
        elif i == 5:
            m = np.zeros((r, c))
        else:
            m = rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
        pinv = numkernel.pseudoinverse(m)
        scale = max(1.0, float(np.abs(m).max()))
        worst = max(
            worst,
            float(np.abs(m @ pinv @ m - m).max()) / scale,
            float(np.abs(pinv @ m @ pinv - pinv).max()) / scale,
            float(np.abs((m @ pinv).conj().T - m @ pinv).max()),
            float(np.abs((pinv @ m).conj().T - pinv @ m).max()),
        )
    return worst < 1e-10, f"max residual {worst:.3e}"


def _check_round_trip(rng):
    names = ["kirchhoff_star.json", "free_two_line.json", "robin_delta.json",
             "ring.json", "tadpole.json", "chain.json", "cyclic_junction.json",
             "closed_ring.json"]
    for name in names:
        doc = _fixture(name)
        again = GraphDocument.from_dict(
            json.loads(json.dumps(doc.to_dict())))
        if again != doc:
            return False, f"{name} does not round-trip"
        doc.to_graph()
    return True, f"{len(names)} fixtures parse and round-trip"


_SELFTEST_CHECKS = (
    ("document round-trip", _check_round_trip),
    ("three-star coupling closed form", _check_three_star),
    ("free junction is transparent", _check_free_junction),
    ("interval with robin end and delta junction", _check_robin_delta),
    ("two-edge ring closed form and spectrum", _check_ring),
    ("two-vertex chain factorization", _check_chain),
    ("ring star composition kernels", _check_ring_star),
    ("tadpole composition three ways", _check_tadpole),
    ("odd cyclic coupling spectral formula", _check_cyclic),
    ("transfer junction family closed form", _check_sl2),
    ("random conditions and extension parameters", _check_random_bcs),
    ("random graph identities and factorization", _check_random_graphs),
    ("star product algebra", _check_star_algebra),
    ("pseudoinverse penrose residuals", _check_pseudoinverse),
)


def cmd_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    outcomes = []
    for name, fn in _SELFTEST_CHECKS:
        ok, detail = fn(rng)
        outcomes.append({"name": name, "ok": bool(ok), "detail": detail})
    passed = sum(1 for o in outcomes if o["ok"])
    if args.json:
        print(json.dumps({"checks": outcomes, "passed": passed,
                          "total": len(outcomes)}, indent=2, sort_keys=True))
    else:
        for o in outcomes:
            print(f"{'PASS' if o['ok'] else 'FAIL'}  {o['name']}: {o['detail']}")
        print(f"passed {passed}/{len(outcomes)}")
    return EXIT_OK if passed == len(outcomes) else EXIT_DOMAIN


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Scattering on metric graphs: validate couplings, sweep "
                    "S-matrices, locate embedded eigenvalues, compose subgraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph document's couplings")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=boundary.DEFAULT_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="S-matrix over an energy grid (CSV)")
    p.add_argument("file")
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", default="-")
    p.add_argument("--uniform-e", action="store_true",
                   help="grid uniform in E instead of k")
    p.add_argument("--tol", type=float, default=scattering.SINGULAR_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="embedded eigenvalues in a window")
    p.add_argument("file")
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--eigenfunctions", action="store_true",
                   help="also print interior coefficients of each eigenfunction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("compose", help="cut a graph and compare composed vs direct S")
    p.add_argument("file")
    p.add_argument("--cut", required=True, help="comma-separated internal line ids")
    p.add_argument("--energies", required=True, help="comma-separated energies")
    p.add_argument("--tol", type=float, default=starprod.CONDITION_A_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("selftest", help="run the bundled example and property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return parser


_INPUT_ERRORS = (DocumentError, graphmod.UnknownEdge, graphmod.NotACut,
                 scattering.BadWindow)
_DOMAIN_ERRORS = (InvalidBoundaryCondition, numkernel.SingularMatrix,
                  scattering.NonpositiveEnergy, scattering.NoExternalLines,
                  scattering.NotAnEigenvalue, scattering.OutOfDomain,
                  scattering.InconsistentSystem, starprod.ConditionAViolated,
                  InvalidParameters, DimensionMismatch, graphmod.InvalidGraph)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
