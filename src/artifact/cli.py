"""Command-line front end: validate, sweep, spectrum, compose.

Every command reads a graph document (format in :mod:`artifact.document`;
``-`` reads stdin).  Sweep CSV columns are, in order: E, k, then Re/Im/|.|^2
triples of every S entry row-major (labels ``ReS_<out>_<in>`` etc.), then
unitarity_defect, at_eigenvalue, status.  Rows whose solve failed carry the
error name in status and nan data cells.

Exit codes: 0 success, 1 domain failure, 2 malformed input.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import boundary, scattering, starprod
from . import graph as graphmod
from .boundary import DimensionMismatch, InvalidBoundaryCondition, InvalidParameters
from .document import DocumentError, GraphDocument, load_document, loads_document
from .graph import ext_ref

__all__ = ["DocumentError", "GraphDocument", "ext_ref", "load_document",
           "loads_document", "main"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_validate(args) -> int:
    g = load_document(args.file).to_graph()
    parts, _ = graphmod.measure_vertices(g.vertices)
    reports = [p.report(args.tol) for p in parts]
    # the global pair is a permuted block sum of the vertex pairs: it is
    # admissible exactly when they are, and its numbers combine from theirs
    valid = all(r.ok for r in reports)
    numbers = boundary.combine_admissibility(parts) if valid else None

    if args.json:
        payload = {
            "valid": valid,
            "vertices": [
                {"ok": r.ok, "rank_ok": r.rank_ok, "hermitian_ok": r.hermitian_ok,
                 "rank_found": r.rank_found,
                 "hermiticity_defect": r.hermiticity_defect,
                 "is_real": r.is_real_bc}
                for r in reports
            ],
            "global": None if numbers is None else {
                "n": g.n, "m": g.m, "size": g.n + 2 * g.m,
                "ok": valid,
                "hermiticity_defect": numbers.hermiticity_defect,
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
        if numbers is None:
            print("global: skipped (inadmissible vertex conditions)")
        else:
            word = "ok" if valid else "FAIL"
            print(f"global: n={g.n} m={g.m} size={g.n + 2 * g.m} {word}")
    return EXIT_OK if valid else EXIT_DOMAIN


def _sweep_energies(args) -> np.ndarray:
    if not (np.isfinite(args.emin) and np.isfinite(args.emax)) \
            or not 0 < args.emin <= args.emax:
        raise DocumentError(f"need 0 < emin <= emax, got ({args.emin}, {args.emax})")
    if not 1 <= args.points <= scattering.MAX_GRID_POINTS:
        raise DocumentError(
            f"points must be at least 1 and at most {scattering.MAX_GRID_POINTS}, "
            f"got {args.points}")
    if args.uniform_e:
        return np.linspace(args.emin, args.emax, args.points)
    ks = np.linspace(np.sqrt(args.emin), np.sqrt(args.emax), args.points)
    return ks * ks


def _s_cells(entries: list) -> list:
    """The Re, Im, |.|^2 cells of S entries (Python complex values) listed
    row-major; ``|.|^2`` is :func:`scattering.abs_squared`."""
    return [x for z in entries for x in (z.real, z.imag, scattering.abs_squared(z))]


def cmd_sweep(args) -> int:
    g = load_document(args.file).to_graph()
    gbc = graphmod.assemble(g)
    result = scattering.solve_many(gbc, _sweep_energies(args), args.tol)

    ids = g.externals
    columns = (["E", "k"] + [f"{part}_{out_id}_{in_id}" for out_id in ids for in_id in ids
                             for part in ("ReS", "ImS", "absS2")]
               + ["unitarity_defect", "at_eigenvalue", "status"])
    # per energy: E, k, the S entries, the defect, the flag, the error or None
    table = zip(result.energies.tolist(), np.sqrt(result.energies).tolist(),
                result.s.reshape(len(result), -1).tolist(),
                result.unitarity_defect.tolist(), result.at_eigenvalue.tolist(),
                result.errors)
    blank = 3 * len(ids) ** 2 + 1       # data cells of a failed row

    if args.json:
        rows = [[e, k, *_s_cells(entries), defect, int(flag), "ok"] if error is None
                else [e, k, *[None] * blank, 0, type(error).__name__]
                for e, k, entries, defect, flag, error in table]
        payload = {"columns": columns, "rows": rows}
        _output(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        # only the header can hold text that needs quoting (the external ids)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(columns)
        ok = "%.17g," * (blank + 2) + "%d,ok\n"
        failed = "%.17g,%.17g," + "nan," * blank + "0,%s\n"
        buf.write("".join(
            ok % (e, k, *_s_cells(entries), defect, flag) if error is None
            else failed % (e, k, type(error).__name__)
            for e, k, entries, defect, flag, error in table))
        _output(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    gbc = graphmod.assemble(load_document(args.file).to_graph())
    result = scattering.spectrum(gbc, args.emin, args.emax, grid=args.grid_points)

    # per eigenvalue, the (alpha_hat, beta_hat) pairs of a basis as complex lists
    bases = [[(a.tolist(), b.tolist()) for a, b in scattering.eigenfunction(gbc, e)]
             for e in result.eigenvalues] if args.eigenfunctions else []

    if args.json:
        payload = {
            "window": list(result.search_window),
            "grid_points": result.grid_points,
            "eigenvalues": list(result.eigenvalues),
            "residuals": list(result.residuals),
        }
        if args.eigenfunctions:
            payload["eigenfunctions"] = [
                [{"alpha_hat": [[z.real, z.imag] for z in a],
                  "beta_hat": [[z.real, z.imag] for z in b]} for a, b in basis]
                for basis in bases]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        lo, hi = result.search_window
        print(f"{len(result.eigenvalues)} eigenvalue(s) in ({_fmt(lo)}, {_fmt(hi)}] "
              f"({result.grid_points} grid points)")
        for i, (e, r) in enumerate(zip(result.eigenvalues, result.residuals)):
            print(f"E = {_fmt(e)}   residual = {r:.3e}")
            if args.eigenfunctions:
                for bi, (alpha, beta) in enumerate(bases[i]):
                    print(f"  basis {bi}: alpha_hat = {alpha}")
                    print(f"           beta_hat  = {beta}")
    return EXIT_OK


def cmd_compose(args) -> int:
    g = load_document(args.file).to_graph()
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

    outcomes = starprod.factorize_many(g, cut_ids, energies, args.tol)
    rows = [(e, None, f"SKIPPED (Condition A margin {out.margin:.3e})")
            if isinstance(out, starprod.ConditionAViolated) else (e, out[2], "ok")
            for e, out in zip(energies, outcomes)]

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


def tolerance(text: str) -> float:
    """The argparse type of every ``--tol``: a finite number > 0."""
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


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
    p.add_argument("--tol", type=tolerance, default=boundary.DEFAULT_TOL)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="S-matrix over an energy grid (CSV)")
    p.add_argument("file")
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", default="-")
    p.add_argument("--uniform-e", action="store_true",
                   help="grid uniform in E instead of k")
    p.add_argument("--tol", type=tolerance, default=scattering.SINGULAR_TOL)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="embedded eigenvalues in a window")
    p.add_argument("file")
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--eigenfunctions", action="store_true",
                   help="also print interior coefficients of each eigenfunction")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("compose", help="cut a graph and compare composed vs direct S")
    p.add_argument("file")
    p.add_argument("--cut", required=True, help="comma-separated internal line ids")
    p.add_argument("--energies", required=True, help="comma-separated energies")
    p.add_argument("--tol", type=tolerance, default=starprod.CONDITION_A_TOL)
    p.set_defaults(func=cmd_compose)

    for p in sub.choices.values():      # every command, as its last option
        p.add_argument("--json", action="store_true")
    return parser


_INPUT_ERRORS = (DocumentError, graphmod.UnknownEdge, graphmod.NotACut,
                 scattering.BadWindow)
_DOMAIN_ERRORS = (InvalidBoundaryCondition, scattering.NonpositiveEnergy,
                  scattering.NoExternalLines, scattering.NotAnEigenvalue,
                  scattering.OutOfDomain, scattering.InconsistentSystem,
                  starprod.ConditionAViolated, InvalidParameters, DimensionMismatch,
                  graphmod.InvalidGraph)


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
