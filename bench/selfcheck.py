"""Self-check of the benchmark itself.

Run from the root of a checkout:

    python3 bench/selfcheck.py

It confirms that every input generator is deterministic in its seed, that
every output check accepts the program's real output and rejects a perturbed
copy of it, that the tracer puts back every attribute it replaced, and that
``BENCHMARK.json`` names the metrics ``run.py`` prints.  Exit code 0 when all
of that holds, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

import run

class Report:
    """Prints one line per expectation and remembers the failed ones."""

    def __init__(self):
        self.failures: list = []

    def expect(self, condition: bool, what: str) -> None:
        print(f"{'ok  ' if condition else 'FAIL'} {what}")
        if not condition:
            self.failures.append(what)


def cli_output(cli, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}")
    return out.getvalue()


def flip_first_s_entry(text: str) -> str:
    """The CSV with the sign of S_11 (real and imaginary part) flipped in row 1."""
    rows = list(csv.reader(io.StringIO(text)))
    rows[1][2] = repr(-float(rows[1][2]))
    rows[1][3] = repr(-float(rows[1][3]))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def check_generators(expect, inputs) -> None:
    seeded = {
        "sweep_small_window": inputs.sweep_small_window,
        "chain": lambda s: inputs.dumps(inputs.chain_document(*inputs.chain_parameters(s))),
        "chain_energies": inputs.chain_energies,
        "spectrum_ring_windows": inputs.spectrum_ring_windows,
        "clusters": lambda s: [(inputs.dumps(d), b, e) for d, b, e in inputs.cluster_cases(s)],
    }
    for name, gen in seeded.items():
        expect(gen(7) == gen(7), f"{name}: same seed, same output")
        expect(gen(7) != gen(8), f"{name}: another seed, another output")
    expect(inputs.dumps(inputs.pair_document()) == inputs.dumps(inputs.pair_document()),
           "pair document is fixed")


def check_sweeps(expect, cli, inputs, checks, work: Path) -> None:
    out = work / "out.csv"
    energies = [float(e) for e in inputs.k_grid(0.55, 60.0, 25)]
    cli_output(cli, ["sweep", inputs.RING_FIXTURE, "--emin", "0.55", "--emax", "60.0",
                     "--points", "25", "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    good = checks.check_sweep_csv(text, energies, checks.ring_smatrix, 2)
    expect(good.failed == 0 and good.matched == 25, "ring sweep matches the closed form")
    bad = checks.check_sweep_csv(flip_first_s_entry(text), energies, checks.ring_smatrix, 2)
    expect(bad.failed == 1 and bad.matched == 24, "ring check rejects a flipped S entry")
    shifted = checks.check_sweep_csv(text, [e * (1 + 1e-9) for e in energies],
                                     checks.ring_smatrix, 2)
    expect(shifted.failed == 25, "ring check rejects energies other than requested")

    lengths, strengths = inputs.chain_parameters(3, junctions=20)
    path = work / "chain.json"
    path.write_text(inputs.dumps(inputs.chain_document(lengths, strengths)), encoding="utf-8")
    e = inputs.chain_energies(3)[0]
    grid = [float(x) for x in inputs.k_grid(e, e, 1)]
    cli_output(cli, ["sweep", str(path), "--emin", repr(e), "--emax", repr(e),
                     "--points", "1", "--out", str(out)])
    text = out.read_text(encoding="utf-8")

    def reference(es):
        return [checks.chain_smatrix(lengths, strengths, x) for x in es]

    good = checks.check_sweep_csv(text, grid, reference, 2)
    expect(good.failed == 0 and good.matched == 1, "chain sweep matches the transfer product")
    bad = checks.check_sweep_csv(flip_first_s_entry(text), grid, reference, 2)
    expect(bad.failed == 1, "chain check rejects a flipped S entry")

    def wrong(es):
        return [checks.chain_smatrix(lengths, -strengths, x) for x in es]

    expect(checks.check_sweep_csv(text, grid, wrong, 2).failed == 1,
           "chain check rejects the S-matrix of another chain")


def check_spectrum(expect, cli, inputs, checks) -> None:
    text = cli_output(cli, ["spectrum", inputs.RING_FIXTURE, "--emin", "0.5",
                            "--emax", "100", "--json"])
    reference = checks.reference_eigenvalues([1.0], 0.5, 100.0)
    good = checks.check_spectrum_json(text, reference)
    expect(good.failed == 0 and good.eigs_missed == 0 and good.matched == 3,
           "ring spectrum matches (j pi)^2")
    payload = json.loads(text)
    payload["eigenvalues"][1] *= 1 + 1e-6
    bad = checks.check_spectrum_json(json.dumps(payload), reference)
    expect(bad.failed == 1 and bad.eigs_missed == 1,
           "spectrum check rejects a moved eigenvalue")
    payload = json.loads(text)
    del payload["eigenvalues"][0]
    short = checks.check_spectrum_json(json.dumps(payload), reference)
    expect(short.failed == 0 and short.eigs_missed == 1,
           "spectrum check counts a missed eigenvalue")
    pair = checks.reference_eigenvalues(inputs.PAIR_LENGTHS, *inputs.PAIR_WINDOW)
    expect(len(pair) == 6, "the interval pair has six reference eigenvalues in (1, 100]")


def check_compose(expect, cli, inputs, checks, work: Path) -> None:
    doc, bridges, energies = inputs.cluster_cases(5)[-1]
    path = work / "cluster.json"
    path.write_text(inputs.dumps(doc), encoding="utf-8")
    text = cli_output(cli, ["compose", str(path), "--cut", ",".join(bridges), "--energies",
                            ",".join(repr(e) for e in energies), "--json"])
    good = checks.check_compose_json(text, energies)
    expect(good.failed == 0 and good.matched == len(energies), "composition defects are small")
    rows = json.loads(text)
    rows[0]["defect"] = 1e-6
    expect(checks.check_compose_json(json.dumps(rows), energies).failed == 1,
           "compose check rejects a large defect")
    rows = json.loads(text)
    rows[1].update(defect=None, status="SKIPPED (Condition A margin 1.000e-09)")
    skipped = checks.check_compose_json(json.dumps(rows), energies)
    expect(skipped.failed == 1 and skipped.skipped == 1, "compose check counts a skipped row")


def check_tracer(expect, tracing, artifact, np, inputs) -> None:
    from artifact import cli, graph, scattering
    before = (cli.main, graph.assemble, cli.ext_ref, artifact.solve_scattering,
              cli.GraphDocument.__dict__["to_graph"], np.linalg.svd)
    with tracing.Tracer(artifact, np.linalg) as tracer:
        wrapped = (scattering.solve_scattering is not before[3]
                   and np.linalg.svd is not before[5])
        gbc = graph.assemble(cli.load_document(inputs.RING_FIXTURE).to_graph())
        scattering.solve_scattering(gbc, 2.0)
    after = (cli.main, graph.assemble, cli.ext_ref, artifact.solve_scattering,
             cli.GraphDocument.__dict__["to_graph"], np.linalg.svd)
    expect(wrapped, "tracer replaces public functions and numpy.linalg calls")
    expect(all(a is b for a, b in zip(before, after)), "tracer restores every attribute")
    names = [s[0] for s in tracer.spans]
    totals = tracing.span_totals(tracer.spans, 0, len(tracer.spans))
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    expect(names.count("scattering.solve_scattering") == 1 and "linalg.svd" in names,
           "tracer records the solve and the numpy.linalg calls under it")
    expect(abs(sum(totals["self"].values()) - roots) < 1e-9,
           "self times add up to the duration of the top-level spans")


def check_benchmark_json(expect, root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")


def main() -> int:
    root = Path.cwd()
    try:
        run.load_program(root)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import artifact
    from artifact import cli

    import checks
    import inputs
    import tracing

    report = Report()
    expect = report.expect
    work = root / run.WORK_DIR / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        check_generators(expect, inputs)
        check_sweeps(expect, cli, inputs, checks, work)
        check_spectrum(expect, cli, inputs, checks)
        check_compose(expect, cli, inputs, checks, work)
        check_tracer(expect, tracing, artifact, np, inputs)
        check_benchmark_json(expect, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(report.failures)} failure(s)")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
