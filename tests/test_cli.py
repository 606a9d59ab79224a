import csv
import io
import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from numpy.testing import assert_allclose

from artifact import boundary, cli, scattering, selftest
from artifact import graph as graphmod
from artifact.cli import DocumentError, GraphDocument, loads_document, main

FIXTURES = ["kirchhoff_star.json", "free_two_line.json", "robin_delta.json",
            "ring.json", "tadpole.json", "chain.json", "cyclic_junction.json",
            "closed_ring.json"]


def _fixture_text(name):
    return (resources.files("artifact") / "fixtures" / name).read_text("utf-8")


def _fixture_path(name):
    return str(resources.files("artifact") / "fixtures" / name)


def _write(tmp_path, data):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _ring_doc():
    return {
        "externals": ["l1", "l2"],
        "internals": [{"id": "i1", "length": 1.0}, {"id": "i2", "length": 1.0}],
        "vertices": [
            {"endpoints": ["ext:l1", "int:i1:0", "int:i2:0"],
             "bc": {"kind": "kirchhoff"}},
            {"endpoints": ["ext:l2", "int:i1:a", "int:i2:a"],
             "bc": {"kind": "kirchhoff"}},
        ],
    }


def test_bundled_fixtures_round_trip():
    for name in FIXTURES:
        doc = loads_document(_fixture_text(name))
        doc.to_graph()
        again = GraphDocument.from_dict(json.loads(json.dumps(doc.to_dict())))
        assert again == doc, name


def test_matrix_bc_round_trip():
    data = _ring_doc()
    data["vertices"][0]["bc"] = {
        "kind": "matrix",
        "A": [[[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
              [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]],
              [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
        "B": [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
              [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
              [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]],
    }
    doc = GraphDocument.from_dict(data)
    assert GraphDocument.from_dict(doc.to_dict()) == doc
    doc.to_graph()


def test_unknown_keys_rejected_everywhere():
    data = _ring_doc()
    data["color"] = "red"
    with pytest.raises(DocumentError, match="unknown keys"):
        GraphDocument.from_dict(data)

    data = _ring_doc()
    data["internals"][0]["capacity"] = 3
    with pytest.raises(DocumentError, match="unknown keys"):
        GraphDocument.from_dict(data)

    data = _ring_doc()
    data["vertices"][0]["label"] = "junction"
    with pytest.raises(DocumentError, match="unknown keys"):
        GraphDocument.from_dict(data)

    data = _ring_doc()
    data["vertices"][0]["bc"]["twist"] = 1.0
    with pytest.raises(DocumentError, match="unknown keys"):
        GraphDocument.from_dict(data)


def test_document_parse_errors():
    with pytest.raises(DocumentError, match="invalid JSON"):
        loads_document("{not json")
    with pytest.raises(DocumentError, match="non-finite"):
        loads_document('{"externals": [], "internals": [{"id": "i", '
                       '"length": Infinity}], "vertices": []}')

    data = _ring_doc()
    data["vertices"][0]["endpoints"][0] = "int:i1:b"
    with pytest.raises(DocumentError, match="malformed endpoint"):
        GraphDocument.from_dict(data)

    data = _ring_doc()
    data["externals"][0] = "l:1"  # ids may not contain the separator
    with pytest.raises(DocumentError):
        GraphDocument.from_dict(data)

    data = _ring_doc()
    data["internals"][0]["length"] = True
    with pytest.raises(DocumentError, match="number"):
        GraphDocument.from_dict(data)

    data = _ring_doc()
    data["vertices"][0]["bc"] = {"kind": "hyperbolic"}
    with pytest.raises(DocumentError, match="unknown bc kind"):
        GraphDocument.from_dict(data)

    data = _ring_doc()
    data["vertices"][0]["bc"] = {"kind": "robin"}  # missing phi
    with pytest.raises(DocumentError, match="needs 'phi'"):
        GraphDocument.from_dict(data)

    data = _ring_doc()
    data["vertices"][0]["bc"] = {"kind": "matrix", "A": [[[0, 0]]],
                                 "B": [[0.5]]}  # cell is not a [re, im] pair
    with pytest.raises(DocumentError, match=r"\[re, im\]"):
        GraphDocument.from_dict(data)


def test_structural_errors_are_input_errors(tmp_path):
    # robin on a three-endpoint vertex: well-formed JSON, bad structure
    data = _ring_doc()
    data["vertices"][0]["bc"] = {"kind": "robin", "phi": 0.5}
    with pytest.raises(DocumentError, match="exactly 1 endpoint"):
        GraphDocument.from_dict(data).to_graph()
    data["vertices"][0]["bc"] = {"kind": "delta", "strength": 1.0}
    with pytest.raises(DocumentError, match="exactly 2 endpoints, has 3"):
        GraphDocument.from_dict(data).to_graph()
    data["vertices"][0]["bc"] = {"kind": "matrix", "A": [[[1, 0]]], "B": [[[0, 0]]]}
    with pytest.raises(DocumentError, match="matrices must be 3 x 3 for 3 endpoints"):
        GraphDocument.from_dict(data).to_graph()
    # dangling endpoint
    data = _ring_doc()
    data["vertices"][1]["endpoints"] = ["ext:l2", "int:i1:a"]
    data["vertices"][1]["bc"] = {"kind": "kirchhoff"}
    with pytest.raises(DocumentError, match="dangling"):
        GraphDocument.from_dict(data).to_graph()


def test_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", _fixture_path("ring.json")]) == 0
    out = capsys.readouterr().out
    assert "global: n=2 m=2 size=6 ok" in out

    # a Kirchhoff vertex with its rows scaled by 1e12 is the same condition
    scaled = _ring_doc()
    a = [[1, -1, 0], [0, 1, -1], [0, 0, 0]]
    b = [[0, 0, 0], [0, 0, 0], [1, 1, 1]]
    scaled["vertices"][0]["bc"] = {
        "kind": "matrix",
        "A": [[[1e12 * x, 0.0] for x in row] for row in a],
        "B": [[[1e12 * x, 0.0] for x in row] for row in b],
    }
    assert main(["validate", _write(tmp_path, scaled)]) == 0
    assert "global: n=2 m=2 size=6 ok" in capsys.readouterr().out

    # rank-deficient vertex condition
    bad = _ring_doc()
    bad["vertices"][0]["bc"] = {
        "kind": "matrix",
        "A": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]],
              [[0, 0], [0, 0], [0, 0]]],
        "B": [[[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]],
              [[0, 0], [0, 0], [0, 0]]],
    }
    assert main(["validate", _write(tmp_path, bad)]) == 1
    assert "FAIL rank" in capsys.readouterr().out

    # full-rank but non-Hermitian A B^dagger
    bad = {
        "externals": ["l1", "l2"],
        "internals": [],
        "vertices": [{"endpoints": ["ext:l1", "ext:l2"],
                      "bc": {"kind": "matrix",
                             "A": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                             "B": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}}],
    }
    assert main(["validate", _write(tmp_path, bad)]) == 1
    assert "FAIL hermiticity" in capsys.readouterr().out


def test_validate_json_payload(capsys):
    assert main(["validate", _fixture_path("robin_delta.json"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["global"]["ok"] is True
    assert all(v["ok"] for v in payload["vertices"])


def test_validate_measures_no_global_pair(monkeypatch, capsys):
    # the global verdict comes from the vertex blocks' numbers: no SVD may see
    # a matrix with more rows than a vertex (3) or more columns than [A | B]
    shapes = []
    original = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    assert main(["validate", _fixture_path("ring.json")]) == 0
    assert "global: n=2 m=2 size=6 ok" in capsys.readouterr().out
    assert shapes and all(rows <= 3 and cols <= 6 for rows, cols in shapes), shapes


def _chain_doc(junctions, rng):
    """Two leads through ``junctions`` delta junctions, then a third lead
    joined at a 3-endpoint Kirchhoff vertex."""
    edges = [f"e{j}" for j in range(junctions)]
    ends = ["ext:l"] + [f"int:{e}:{side}" for e in edges for side in ("0", "a")]
    vertices = [{"endpoints": ends[2 * j:2 * j + 2],
                 "bc": {"kind": "delta", "strength": float(rng.uniform(-3.0, 3.0))}}
                for j in range(junctions)]
    vertices.append({"endpoints": [ends[-1], "ext:r", "ext:x"],
                     "bc": {"kind": "kirchhoff"}})
    return {"externals": ["l", "r", "x"],
            "internals": [{"id": e, "length": float(rng.uniform(0.2, 2.0))}
                          for e in edges],
            "vertices": vertices}


def test_validate_measures_each_vertex_size_once(monkeypatch, tmp_path, capsys):
    path = _write(tmp_path, _chain_doc(200, np.random.default_rng(8)))
    calls = dict.fromkeys(("svd", "validate", "is_real", "equivalent", "assemble"), 0)

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(np.linalg, "svd")
    for name in ("validate", "is_real", "equivalent"):
        counting(boundary, name)
    counting(graphmod, "assemble")
    for extra in ([], ["--json"]):
        calls.update(dict.fromkeys(calls, 0))
        assert main(["validate", path, *extra]) == 0
        # two vertex sizes (2 and 3), at most two stacked SVD calls each
        assert 0 < calls["svd"] <= 4
        assert [calls[name] for name in ("validate", "is_real", "equivalent",
                                         "assemble")] == [0, 0, 0, 0]
    out = capsys.readouterr().out
    assert "global: n=3 m=200 size=403 ok" in out
    assert json.loads(out[out.index("{"):])["valid"] is True


def test_window_and_lead_errors_come_from_the_library(capsys):
    assert main(["spectrum", _fixture_path("ring.json"),
                 "--emin", "2", "--emax", "1"]) == 2
    assert capsys.readouterr().err == "error: need 0 < e_min < e_max, got (2.0, 1.0)\n"
    assert main(["sweep", _fixture_path("closed_ring.json"),
                 "--emin", "1", "--emax", "2", "--points", "3"]) == 1
    assert capsys.readouterr().err == ("error: graph has no external lines to "
                                       "scatter on\n")


_TOL_COMMANDS = [
    ["validate", _fixture_path("ring.json")],
    ["sweep", _fixture_path("ring.json"), "--emin", "1", "--emax", "3", "--points", "2"],
    ["compose", _fixture_path("tadpole.json"), "--cut", "loop",
     "--energies", "39.47841760435743"],
]


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("argv", _TOL_COMMANDS, ids=lambda argv: argv[0])
def test_tolerance_must_be_finite_and_positive(argv, tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", tol])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --tol: must be finite and > 0" in captured.err


def test_malformed_input_is_exit_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    bad = _ring_doc()
    bad["vertices"][0]["endpoints"][0] = "ext"
    assert main(["validate", _write(tmp_path, bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_sweep_csv_deterministic(tmp_path, capsys):
    path = _fixture_path("tadpole.json")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["sweep", path, "--emin", "0.5", "--emax", "30",
                     "--points", "40", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    assert len(lines) == 41
    header = lines[0].split(",")
    assert header[:2] == ["E", "k"]
    assert header[-3:] == ["unitarity_defect", "at_eigenvalue", "status"]
    assert "ReS_l1_l1" in header and "absS2_l1_l1" in header
    for line in lines[1:]:
        cells = line.split(",")
        # one open channel: |S|^2 must be 1 on every row
        prob = float(cells[header.index("absS2_l1_l1")])
        assert abs(prob - 1.0) < 1e-10
        assert cells[-1] == "ok"


def test_sweep_grids(tmp_path, capsys):
    path = _fixture_path("free_two_line.json")
    out = tmp_path / "grid.csv"
    assert main(["sweep", path, "--emin", "1", "--emax", "9",
                 "--points", "5", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    ks = [float(r.split(",")[1]) for r in rows]
    assert_allclose(ks, np.linspace(1.0, 3.0, 5), atol=1e-12)

    assert main(["sweep", path, "--emin", "1", "--emax", "9", "--points", "5",
                 "--uniform-e", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = out.read_text().splitlines()[1:]
    es = [float(r.split(",")[0]) for r in rows]
    assert_allclose(es, np.linspace(1.0, 9.0, 5), atol=1e-12)


def test_sweep_flags_eigenvalue_rows(capsys):
    e_star = np.pi ** 2
    assert main(["sweep", _fixture_path("ring.json"),
                 "--emin", repr(e_star), "--emax", repr(e_star),
                 "--points", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    header = out[0].split(",")
    row = out[1].split(",")
    assert row[header.index("at_eigenvalue")] == "1"
    assert row[header.index("status")] == "ok"


def test_sweep_json_payload(capsys):
    assert main(["sweep", _fixture_path("free_two_line.json"),
                 "--emin", "1", "--emax", "4", "--points", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"][0] == "E"
    assert len(payload["rows"]) == 3
    assert isinstance(payload["rows"][0][0], float)
    # the trivial junction transmits perfectly at every energy
    col = payload["columns"].index("absS2_l1_l2")
    for row in payload["rows"]:
        assert abs(row[col] - 1.0) < 1e-12


def _reference_sweep(path, emin, emax, points, uniform_e, as_json):
    """``artifact sweep`` output as the per-cell formatter wrote it, kept as
    the reference: energies in a Python list, one result per energy, and
    every float cell through ``csv.writer`` and ``f"{x:.17g}"``, or into a
    JSON row built cell by cell."""
    g = cli.load_document(path).to_graph()
    gbc = graphmod.assemble(g)
    if uniform_e:
        energies = [float(e) for e in np.linspace(emin, emax, points)]
    else:
        ks = np.linspace(np.sqrt(emin), np.sqrt(emax), points)
        energies = [float(k * k) for k in ks]
    ids = g.externals
    columns = (["E", "k"] + [f"{part}_{out_id}_{in_id}" for out_id in ids for in_id in ids
                             for part in ("ReS", "ImS", "absS2")]
               + ["unitarity_defect", "at_eigenvalue", "status"])
    rows = []
    for e, res in zip(energies, scattering.solve_many(gbc, energies)):
        row = [e, float(np.sqrt(e))]
        if isinstance(res, Exception):
            row += [None] * (3 * len(ids) ** 2 + 1) + [0, type(res).__name__]
        else:
            for s in res.s.ravel():
                row += [float(s.real), float(s.imag), float(abs(s) ** 2)]
            row += [float(res.unitarity_defect), 1 if res.at_eigenvalue else 0, "ok"]
        rows.append(row)
    if as_json:
        return json.dumps({"columns": columns, "rows": rows}, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["nan" if cell is None else
                         (f"{float(cell):.17g}" if isinstance(cell, float) else cell)
                         for cell in row])
    return buf.getvalue()


_SWEEP_CASES = (
    [("ring.json", 0.55, 400.0, 500, False),
     # the ring's second eigenvalue: an at_eigenvalue row
     ("ring.json", (2 * np.pi) ** 2, (2 * np.pi) ** 2, 1, False),
     ("free_two_line.json", 1.0, 90.0, 60, True),
     # k a reaches 2**52 at E = 2**104: InconsistentSystem rows of nan cells
     ("ring.json", 1e20, 1e35, 40, False),
     ("ring.json", 1e20, 1e35, 40, True),
     ("chain200", 20.0, 400.0, 6, False)]
    + [(name, 0.3, 200.0, 150, False) for name in FIXTURES if name != "closed_ring.json"])


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("name, emin, emax, points, uniform_e", _SWEEP_CASES)
def test_sweep_output_is_byte_identical_to_the_per_cell_formatter(
        tmp_path, capsys, name, emin, emax, points, uniform_e, as_json):
    if name == "chain200":
        path = _write(tmp_path, _chain_doc(200, np.random.default_rng(12)))
    else:
        path = _fixture_path(name)
    out = tmp_path / "sweep.out"
    argv = ["sweep", path, "--emin", repr(emin), "--emax", repr(emax),
            "--points", str(points), "--out", str(out)]
    argv += ["--uniform-e"] * uniform_e + ["--json"] * as_json
    assert main(argv) == 0
    capsys.readouterr()
    expected = _reference_sweep(path, emin, emax, points, uniform_e, as_json)
    assert out.read_bytes() == expected.encode("utf-8")
    if emax == 1e35:
        assert "InconsistentSystem" in expected


def test_sweep_abs_squared_cells_are_python_abs_squared():
    # |S|^2 cells must keep the digits of abs(z) ** 2 on each complex value;
    # np.abs rounds differently in the last bit on many of these
    rng = np.random.default_rng(2012)
    size = 200_000
    z = (rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size)) \
        * 10.0 ** rng.uniform(-150.0, 0.0, size)
    z[:4] = [0.0, -0.0, 1j, -1.0]
    cells = np.array(cli._s_cells(z.tolist())).reshape(size, 3)
    assert np.array_equal(cells[:, 0], z.real) and np.array_equal(cells[:, 1], z.imag)
    python = np.array([abs(complex(v)) ** 2 for v in z])
    scalar = np.array([float(abs(v) ** 2) for v in z])      # numpy scalars
    assert np.array_equal(cells[:, 2].view(np.uint64), python.view(np.uint64))
    assert np.array_equal(cells[:, 2].view(np.uint64), scalar.view(np.uint64))


def test_sweep_rejects_closed_graphs_and_bad_grids(capsys):
    assert main(["sweep", _fixture_path("closed_ring.json"),
                 "--emin", "1", "--emax", "2", "--points", "3"]) == 1
    assert main(["sweep", _fixture_path("ring.json"),
                 "--emin", "-1", "--emax", "2", "--points", "3"]) == 2
    assert main(["sweep", _fixture_path("ring.json"),
                 "--emin", "2", "--emax", "1", "--points", "3"]) == 2
    capsys.readouterr()


def _ring_closed_form(k):
    q = np.exp(1j * k)
    r, t = 3.0 * (q ** 2 - 1.0), 8.0 * q
    return -np.array([[r, t], [t, r]]) / (q ** 2 - 9.0)


def test_sweep_refuses_non_unitary_minimum_norm_rows(capsys):
    # k of 1e-150 is solved and matches the closed form; the other rows have
    # k a of 2e149 and more, past the 2**52 phase bound, and are refused
    assert main(["sweep", _fixture_path("ring.json"), "--emin", "1e-300",
                 "--emax", "1e300", "--points", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    columns, rows = payload["columns"], payload["rows"]
    assert [row[-1] for row in rows] == ["ok"] + ["InconsistentSystem"] * 5
    first = rows[0]
    s = np.array([first[columns.index(f"ReS_{o}_{i}")]
                  + 1j * first[columns.index(f"ImS_{o}_{i}")]
                  for o in ("l1", "l2") for i in ("l1", "l2")]).reshape(2, 2)
    assert np.abs(s - _ring_closed_form(first[1])).max() <= 1e-12
    gbc = graphmod.assemble(loads_document(_fixture_text("ring.json")).to_graph())
    res = scattering.solve_scattering(gbc, 1e20)
    assert np.abs(res.s - _ring_closed_form(1e10)).max() <= 1e-12
    with pytest.raises(scattering.InconsistentSystem, match=r"2\*\*52"):
        scattering.solve_scattering(gbc, 2.0 ** 104)


def test_grids_past_the_size_limit_are_refused_before_allocating(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(np, "linspace", refuse)
    assert main(["sweep", _fixture_path("ring.json"), "--emin", "1", "--emax", "2",
                 "--points", "10000000000000"]) == 2
    assert "at most 10000000, got 10000000000000" in capsys.readouterr().err
    # the default grid of this window would have about 2e18 points
    assert main(["spectrum", _fixture_path("ring.json"), "--emin", "1",
                 "--emax", "1e30"]) == 2
    assert "grid must have 3 to 10000000 points" in capsys.readouterr().err
    assert main(["spectrum", _fixture_path("ring.json"), "--emin", "1", "--emax", "2",
                 "--grid-points", str(scattering.MAX_GRID_POINTS + 1)]) == 2
    assert "grid must have 3 to 10000000 points" in capsys.readouterr().err


def test_spectrum_past_the_phase_bound_is_exit_1(capsys):
    assert main(["spectrum", _fixture_path("ring.json"), "--emin", "1",
                 "--emax", "1e40", "--grid-points", "10"]) == 1
    assert "reaches 2**52" in capsys.readouterr().err


def test_spectrum_ring(capsys):
    assert main(["spectrum", _fixture_path("ring.json"),
                 "--emin", "0.5", "--emax", "100", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert_allclose(payload["eigenvalues"],
                    [np.pi ** 2, 4 * np.pi ** 2, 9 * np.pi ** 2], rtol=1e-8)
    assert payload["grid_points"] > 0
    assert len(payload["residuals"]) == 3


def test_spectrum_closed_graph_and_eigenfunctions(capsys):
    assert main(["spectrum", _fixture_path("closed_ring.json"),
                 "--emin", "0.5", "--emax", "50", "--json",
                 "--eigenfunctions"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert_allclose(payload["eigenvalues"], [np.pi ** 2, 4 * np.pi ** 2],
                    rtol=1e-8)
    basis = payload["eigenfunctions"][0]
    assert len(basis) == 2  # circle eigenvalues are doubly degenerate
    assert len(basis[0]["alpha_hat"]) == 2
    assert len(basis[0]["alpha_hat"][0]) == 2


def test_spectrum_bad_window(capsys):
    assert main(["spectrum", _fixture_path("ring.json"),
                 "--emin", "2", "--emax", "1"]) == 2
    capsys.readouterr()


def test_compose_ring(capsys):
    assert main(["compose", _fixture_path("ring.json"), "--cut", "i1,i2",
                 "--energies", "0.7,2.9,14.0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["status"] for row in payload] == ["ok"] * 3
    assert all(row["defect"] < 1e-10 for row in payload)


def test_compose_skips_resonant_energies(capsys):
    e_res = 4 * np.pi ** 2
    assert main(["compose", _fixture_path("tadpole.json"), "--cut", "loop",
                 "--energies", f"1.5,{e_res!r}", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["status"] == "ok" and payload[0]["defect"] < 1e-10
    assert payload[1]["status"].startswith("SKIPPED")
    assert payload[1]["defect"] is None


def test_compose_input_errors(capsys):
    assert main(["compose", _fixture_path("ring.json"), "--cut", "ghost",
                 "--energies", "1.0"]) == 2
    assert main(["compose", _fixture_path("ring.json"), "--cut", "i1",
                 "--energies", "1.0"]) == 2  # not a separating cut
    assert main(["compose", _fixture_path("ring.json"), "--cut", "i1,i2",
                 "--energies", "zero"]) == 2
    assert main(["compose", _fixture_path("ring.json"), "--cut", "i1,i2",
                 "--energies", "-3"]) == 2
    capsys.readouterr()


def test_compose_cuts_and_assembles_once(monkeypatch, capsys):
    counts = dict.fromkeys(("cut", "assemble"), 0)

    def counting(name):
        original = getattr(graphmod, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(graphmod, name, wrapper)

    counting("cut")
    counting("assemble")
    assert main(["compose", _fixture_path("ring.json"), "--cut", "i1,i2",
                 "--energies", "0.7,1.3,2.9,5.0,14.0"]) == 0
    capsys.readouterr()
    # the left side, the right side and the whole graph
    assert counts == {"cut": 1, "assemble": 3}


def test_compose_linalg_calls_do_not_grow_with_the_energies(monkeypatch, capsys):
    counts = {}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    names = ("eigvals", "solve", "inv", "svd")
    for name in names:
        counting(name)
    seen = []
    for energies in ("0.7", "0.7,1.3,2.9,5.0,14.0"):
        counts.update(dict.fromkeys(names, 0))
        assert main(["compose", _fixture_path("ring.json"), "--cut", "i1,i2",
                     "--energies", energies]) == 0
        capsys.readouterr()
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    # one stacked margin, two stacked solves for the products, one bond-matrix
    # solve per assembled graph (empty for the two sides without internal
    # lines) and one vertex S-matrix solve per vertex size of each of them;
    # one inverse for the glue and one certifying the ring's bond matrix (the
    # two sides have none to certify)
    assert seen[0]["eigvals"] == 1 and seen[0]["solve"] == 2 + 3 + 3
    assert seen[0]["inv"] == 1 + 1


def test_selftest_passes_and_is_deterministic(capsys):
    assert main(["selftest", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["selftest", "--seed", "1"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert f"passed {len(selftest._SELFTEST_CHECKS)}/{len(selftest._SELFTEST_CHECKS)}" in first
    assert "FAIL" not in first


def test_sweep_refuses_an_inadmissible_vertex_by_name(tmp_path, capsys):
    # A = I with a non-Hermitian B: full rank, A B^dagger not Hermitian.  The
    # graph is refused before any row, naming the vertex
    doc = _ring_doc()
    doc["vertices"][1]["bc"] = {
        "kind": "matrix",
        "A": [[[float(i == j), 0.0] for j in range(3)] for i in range(3)],
        "B": [[[float(j > i), 0.0] for j in range(3)] for i in range(3)],
    }
    assert main(["sweep", _write(tmp_path, doc), "--emin", "1", "--emax", "4",
                 "--points", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: vertex 1: boundary condition is not admissible: rank 3 of 3")


def test_compose_without_external_lines_is_a_named_error(capsys):
    assert main(["compose", _fixture_path("closed_ring.json"), "--cut", "i1,i2",
                 "--energies", "2.0"]) == 1
    assert capsys.readouterr().err == "error: graph has no external lines to compose\n"


_COMMANDS = [
    ["sweep", _fixture_path("ring.json"), "--emin", "1", "--emax", "30", "--points", "4"],
    ["validate", _fixture_path("tadpole.json"), "--json"],
    ["sweep", _fixture_path("ring.json"), "--emin", "1", "--emax", "30", "--points", "3",
     "--uniform-e", "--json", "--tol", "1e-6"],
    ["compose", _fixture_path("tadpole.json"), "--cut", "loop", "--energies", "1.5,3.0"],
    ["spectrum", _fixture_path("ring.json"), "--emin", "1", "--emax", "50", "--json"],
    ["sweep", _fixture_path("ring.json"), "--emin", "1", "--emax", "30", "--points", "4"],
    ["compose", _fixture_path("ring.json"), "--cut", "i1,i2", "--energies", "0.7",
     "--json", "--tol", "1e-3"],
    ["validate", _fixture_path("tadpole.json")],
    ["selftest", "--seed", "3", "--json"],
    ["spectrum", _fixture_path("ring.json"), "--emin", "1", "--emax", "50",
     "--eigenfunctions"],
]


def test_repeated_main_calls_match_fresh_processes(capsys):
    # the parser is built once per process: every call must still see its own
    # flags and the defaults of the flags it leaves out
    outputs = []
    for argv in _COMMANDS:
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[5] and outputs[0] != outputs[2]
    for argv, out in zip(_COMMANDS, outputs):
        fresh = subprocess.run([sys.executable, "-m", "artifact.cli", *argv],
                               capture_output=True, text=True, check=True,
                               env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert fresh.stdout == out, argv
