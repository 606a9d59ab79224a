"""End-to-end and per-layer benchmark of the ``artifact`` command line.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 28 --trace 0

The workload's commands go through ``artifact.cli.main(argv)`` in this
process, back to back (a closed loop with one client); ``ARTIFACT_WORKERS`` is
removed from the environment and BLAS is pinned to ``BLAS_THREADS`` threads.
Inputs are generated from ``--seed`` (see ``inputs.py``) and every output is
checked against a reference that does not use the solver (see ``checks.py``).

``--trace 0`` measures with tracing off and prints the end-to-end metrics.
``--trace 1`` measures half the time untraced and half traced, then prints the
per-layer metrics (see ``tracing.py``) and the tracing overhead, and writes
the spans of the first traced pass of each kind to ``.bench_work/traces/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload, each in a process of its own, and prints all their metrics.
``METRICS.md`` defines the metrics and says which end-to-end metric each
layer metric should move, on which workload.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKERS_ENV = "ARTIFACT_WORKERS"
WORK_DIR = ".bench_work"

WORKLOADS = ("sweep-small", "sweep-large", "spectrum-dense", "compose-random")

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("run_s_tail", "s"),
    ("energies_per_s", "1/s"), ("peak_rss_mib", "MiB"), ("ok_share", "share"),
)
PER_LAYER = (
    ("boundary.validate_calls_per_energy", "calls/energy"),
    ("boundary.validate_s", "s"),
    ("linalg.calls_per_energy", "calls/energy"),
    ("linalg.svd_s", "s"),
    ("linalg.spectrum_svd_calls", "count"),
    ("scattering.build_xyz_s", "s"),
    ("scattering.build_xyz_calls", "count"),
    ("scattering.solve_scattering_self_s", "s"),
    ("scattering.spectrum_self_s", "s"),
    ("scattering.spectrum.refinements", "count"),
    ("scattering.spectrum.yield", "eig/refinement"),
    ("numkernel.solve_linear_s", "s"),
    ("numkernel.solve_linear_calls", "count"),
    ("numkernel.pseudoinverse_calls", "count"),
    ("numkernel.unitarity_defect_s", "s"),
    ("numkernel.numeric_rank_calls", "count"),
    ("graph.assemble_s", "s"),
    ("graph.assemble_calls", "count"),
    ("graph.cut_s", "s"),
    ("graph.cut_calls", "count"),
    ("starprod.star_s", "s"),
    ("starprod.star_calls", "count"),
    ("starprod.factorize_self_s", "s"),
    ("starprod.skip_share", "share"),
    ("cli.self_s", "s"),
    ("cli.parse_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Command:
    argv: list
    attempted: int
    expected: int
    judge: Callable  # stdout text -> checks.Outcome


@dataclass
class Workload:
    setup_paths: list      # documents loaded and assembled by the set-up step
    passes: list           # (kind, commands); pass i runs passes[i % len(passes)]


@dataclass
class Record:
    seconds: float         # wall time of the pass's commands, checks excluded
    outcome: object        # checks.Outcome of the pass
    first_span: int        # index of the pass's first span when traced
    kind: str


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def _write(path: Path, doc: dict, inputs) -> str:
    path.write_text(inputs.dumps(doc), encoding="utf-8")
    return str(path)


def sweep_small(seed, work, inputs, checks):
    emin, emax, points = inputs.sweep_small_window(seed)
    energies = [float(e) for e in inputs.k_grid(emin, emax, points)]
    out = work / "ring.csv"
    argv = ["sweep", inputs.RING_FIXTURE, "--emin", repr(emin), "--emax", repr(emax),
            "--points", str(points), "--out", str(out)]

    def judge(_):
        return checks.check_sweep_csv(out.read_text(encoding="utf-8"), energies,
                                      checks.ring_smatrix, 2)

    return Workload([inputs.RING_FIXTURE],
                    [("ring", [Command(argv, points, points, judge)])])


def sweep_large(seed, work, inputs, checks):
    lengths, strengths = inputs.chain_parameters(seed)
    path = _write(work / "chain.json", inputs.chain_document(lengths, strengths), inputs)
    out = work / "chain.csv"
    passes = []
    for e in inputs.chain_energies(seed):
        grid = [float(x) for x in inputs.k_grid(e, e, 1)]
        s_ref = checks.chain_smatrix(lengths, strengths, grid[0])
        argv = ["sweep", path, "--emin", repr(e), "--emax", repr(e), "--points", "1",
                "--out", str(out)]

        def judge(_, grid=grid, s_ref=s_ref):
            return checks.check_sweep_csv(out.read_text(encoding="utf-8"), grid,
                                          lambda _: [s_ref], 2)

        passes.append(("chain", [Command(argv, 1, 1, judge)]))
    return Workload([path], passes)


def spectrum_dense(seed, work, inputs, checks):
    pair = _write(work / "pair.json", inputs.pair_document(), inputs)
    scans = [(f"ring-{j + 1}", inputs.RING_FIXTURE, [1.0], window)
             for j, window in enumerate(inputs.spectrum_ring_windows(seed))]
    scans.append(("pair", pair, inputs.PAIR_LENGTHS, inputs.PAIR_WINDOW))
    passes = []
    for kind, path, lengths, (lo, hi) in scans:
        ref = checks.reference_eigenvalues(lengths, lo, hi)
        argv = ["spectrum", path, "--emin", repr(lo), "--emax", repr(hi), "--json"]
        judge = partial(checks.check_spectrum_json, reference=ref)
        passes.append((kind, [Command(argv, 1, len(ref), judge)]))
    return Workload([inputs.RING_FIXTURE, pair], passes)


def compose_random(seed, work, inputs, checks):
    commands, paths = [], []
    for i, (doc, bridges, energies) in enumerate(inputs.cluster_cases(seed)):
        path = _write(work / f"cluster{i}.json", doc, inputs)
        paths.append(path)
        argv = ["compose", path, "--cut", ",".join(bridges),
                "--energies", ",".join(repr(e) for e in energies), "--json"]
        commands.append(Command(
            argv, len(energies), len(energies),
            lambda text, energies=energies: checks.check_compose_json(text, energies)))
    return Workload(paths, [("clusters", commands)])


BUILDERS = {"sweep-small": sweep_small, "sweep-large": sweep_large,
            "spectrum-dense": spectrum_dense, "compose-random": compose_random}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def run_command(cli, cmd: Command, checks):
    """Run one command in-process; returns ``(seconds, outcome)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(cmd.argv)
    except SystemExit as exc:       # argparse rejecting the arguments
        code = exc.code
    except Exception as exc:        # a crash counts as a failed command
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if code == 0:
        try:
            return seconds, cmd.judge(stdout.getvalue())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            code = f"unreadable output: {exc!r}"
    outcome = checks.Outcome(attempted=cmd.attempted, expected=cmd.expected)
    outcome.fail(cmd.attempted, f"{cmd.argv[0]} exit {code}: "
                                f"{stderr.getvalue().strip()[:300]}")
    return seconds, outcome


def run_pass(cli, commands, checks):
    seconds, outcome = 0.0, checks.Outcome()
    for cmd in commands:
        dt, got = run_command(cli, cmd, checks)
        seconds += dt
        outcome.add(got)
    return seconds, outcome


def measure(cli, workload, seconds, checks, total, tracer=None, start_index=0,
            between=None):
    """Run passes back to back for ``seconds``; returns their records and adds
    their outcomes to ``total``.  ``between(record)``, if given, runs untimed
    after every pass."""
    records = []
    deadline = time.perf_counter() + seconds
    i = start_index
    while True:
        first = len(tracer.spans) if tracer else 0
        kind, commands = workload.passes[i % len(workload.passes)]
        dt, outcome = run_pass(cli, commands, checks)
        records.append(Record(dt, outcome, first, kind))
        total.add(outcome)
        i += 1
        if between:
            between(records[-1])
        if time.perf_counter() >= deadline:
            return records


class SetupTimer:
    """Times load + to_graph + assemble of the workload's documents.

    Each call repeats the set-up for about ``SLOT`` seconds (at least once).
    Calls are spread between the passes, so the median samples the same
    stretch of time as the pass timings do.
    """

    SLOT = 0.005

    def __init__(self, cli, graph, paths):
        self.cli, self.graph, self.paths = cli, graph, paths
        self.times: list = []

    def __call__(self, _record=None) -> None:
        slot_end = time.perf_counter() + self.SLOT
        while True:
            start = time.perf_counter()
            for path in self.paths:
                self.graph.assemble(self.cli.load_document(path).to_graph())
            self.times.append(time.perf_counter() - start)
            if time.perf_counter() >= slot_end:
                return


def tail(samples) -> tuple:
    """Highest percentile with at least ten samples beyond it, but never below
    the median, as ``(value, percentile)``.

    Without the floor, a run of 11 to 19 samples would report a "tail" below
    its median, and one sample more or less would jump between the maximum
    and the minimum; with it, the value moves continuously with the count.
    """
    xs = sorted(samples)
    if len(xs) >= 20:
        return xs[-11], 100.0 * (len(xs) - 10) / len(xs)
    return statistics.median(xs), 50.0


def by_kind(records, value) -> dict:
    groups: dict = {}
    for r in records:
        groups.setdefault(r.kind, []).append(value(r))
    return groups


def per_cycle(records, value, stat=statistics.median) -> float:
    """``stat`` of ``value(record)`` over the passes of each kind, summed over
    the kinds: the value for one cycle, i.e. one pass of every kind."""
    return sum(stat(v) for v in by_kind(records, value).values())


def pass_quantities(totals: dict, outcome) -> dict:
    """Additive per-pass quantities: the additive layer metrics under their own
    names, and the counts the ratio metrics are made from."""
    calls, total, own = totals["calls"], totals["total"], totals["self"]
    return {
        "energies": outcome.energies, "eigenvalues": outcome.eigenvalues,
        "skipped": outcome.skipped, "attempted": outcome.attempted,
        "validate_calls": totals["validate_calls"], "linalg_calls": totals["linalg_calls"],
        "spectrum_build_xyz_calls": totals["spectrum_build_xyz_calls"],
        "spectrum_calls": totals["spectrum_calls"],
        "boundary.validate_s": totals["validate_s"],
        "linalg.svd_s": totals["svd_s"],
        "linalg.spectrum_svd_calls": totals["spectrum_svd_calls"],
        "scattering.build_xyz_s": total.get("scattering.build_xyz", 0.0),
        "scattering.build_xyz_calls": calls.get("scattering.build_xyz", 0),
        "scattering.solve_scattering_self_s": own.get("scattering.solve_scattering", 0.0),
        "scattering.spectrum_self_s": own.get("scattering.spectrum", 0.0),
        "numkernel.solve_linear_s": total.get("numkernel.solve_linear", 0.0),
        "numkernel.solve_linear_calls": calls.get("numkernel.solve_linear", 0),
        "numkernel.pseudoinverse_calls": calls.get("numkernel.pseudoinverse", 0),
        "numkernel.unitarity_defect_s": total.get("numkernel.unitarity_defect", 0.0),
        "numkernel.numeric_rank_calls": calls.get("numkernel.numeric_rank", 0),
        "graph.assemble_s": total.get("graph.assemble", 0.0),
        "graph.assemble_calls": calls.get("graph.assemble", 0),
        "graph.cut_s": total.get("graph.cut", 0.0),
        "graph.cut_calls": calls.get("graph.cut", 0),
        "starprod.star_s": total.get("starprod.star", 0.0),
        "starprod.star_calls": calls.get("starprod.star", 0),
        "starprod.factorize_self_s": own.get("starprod.factorize_graph", 0.0),
        "cli.self_s": totals["cli_self_s"],
        "cli.parse_s": totals["parse_s"],
    }


def layer_metrics(q: dict, evals_per_refinement: int) -> dict:
    """Per-layer metrics of one cycle from its summed pass quantities."""
    energies = max(q["energies"], 1)
    refinements = 0.0
    if q["spectrum_calls"]:
        refinements = (q["spectrum_build_xyz_calls"] - q["energies"]
                       - q["eigenvalues"]) / evals_per_refinement
    metrics = {name: q[name] for name, _ in PER_LAYER if name in q}
    metrics.update({
        "boundary.validate_calls_per_energy": q["validate_calls"] / energies,
        "linalg.calls_per_energy": q["linalg_calls"] / energies,
        "scattering.spectrum.refinements": refinements,
        "scattering.spectrum.yield": q["eigenvalues"] / refinements if refinements else 0.0,
        "starprod.skip_share": q["skipped"] / max(q["attempted"], 1),
    })
    return metrics


def host_info(args, workers_set: bool) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": BLAS_THREADS,
        f"{WORKERS_ENV}_set": workers_set, "machine": platform.machine(),
    }


def emit(outcome, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def report_untraced(records, setup_times) -> dict:
    medians = {k: statistics.median(v)
               for k, v in by_kind(records, lambda r: r.seconds).items()}
    run_s = sum(medians.values())
    factor, pct = tail([r.seconds / medians[r.kind] for r in records])
    energies = per_cycle(records, lambda r: r.outcome.energies)
    expected = per_cycle(records, lambda r: r.outcome.expected, statistics.mean)
    matched = per_cycle(records, lambda r: r.outcome.matched, statistics.mean)
    failed = sum(r.outcome.failed for r in records)
    attempted = sum(r.outcome.attempted for r in records)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "run_s_tail": run_s * factor,
        "energies_per_s": energies / run_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": matched / max(expected, 1),
    }
    kinds = ", ".join(f"{k} {m:.4g} s" for k, m in medians.items())
    print(f"setup_s {metrics['setup_s']:.6g} s (median of {len(setup_times)} set-ups)")
    print(f"run_s {run_s:.6g} s per cycle of {len(medians)} pass kind(s), "
          f"{len(records)} passes; medians: {kinds}")
    print(f"run_s_tail {metrics['run_s_tail']:.6g} s (p{pct:.1f} slowdown "
          f"{factor:.4g} of {len(records)} passes)")
    print(f"energies_per_s {metrics['energies_per_s']:.6g} 1/s "
          f"({energies:g} energies delivered or scanned per cycle)")
    print(f"peak_rss_mib {metrics['peak_rss_mib']:.6g} MiB")
    print(f"ok_share {metrics['ok_share']:.6g} ({matched:g} of {expected:g} reference "
          f"results per cycle)")
    print(f"failed_share {failed / max(attempted, 1):.6g} ({failed} of {attempted} "
          f"timed operations)")
    print(f"eigs_missed {per_cycle(records, lambda r: r.outcome.eigs_missed, statistics.mean):g}"
          f" per cycle")
    return metrics


def run_traced(cli, workload, args, checks, total, root: Path) -> dict:
    """Half the time untraced, half traced; returns the per-layer metrics.

    Each traced pass is reduced to its quantities as soon as it ends and its
    spans are dropped, except for the first pass of each kind, whose spans are
    written out.
    """
    import numpy as np
    import artifact
    from artifact import scattering

    import tracing

    evals = getattr(scattering, "GOLDEN_ITERATIONS", 40) + 2
    quantities, kept = [], []

    def digest(record):
        totals = tracing.span_totals(tracer.spans, record.first_span, len(tracer.spans))
        quantities.append((record.kind, pass_quantities(totals, record.outcome)))
        if record.kind in {k for k, _, _ in kept}:
            del tracer.spans[record.first_span:]
            return
        kept.append((record.kind, record.first_span, len(tracer.spans)))
        if totals["spectrum_calls"]:
            # svd calls = grid + evals * refinements + eigenvalues + 1 per call
            holds = (totals["spectrum_svd_calls"]
                     == totals["spectrum_build_xyz_calls"] + totals["spectrum_calls"])
            print(f"spectrum svd identity, {record.kind}: {totals['spectrum_svd_calls']} "
                  f"svd calls, {record.outcome.energies} grid points, "
                  f"{record.outcome.eigenvalues} eigenvalues, {totals['spectrum_calls']} "
                  f"call(s): {'holds' if holds else 'does not hold'}")

    plain = measure(cli, workload, args.seconds / 2, checks, total, start_index=1)
    with tracing.Tracer(artifact, np.linalg) as tracer:
        traced = measure(cli, workload, args.seconds / 2, checks, total, tracer=tracer,
                         start_index=1 + len(plain), between=digest)
    groups: dict = {}
    for kind, q in quantities:
        groups.setdefault(kind, []).append(q)
    cycle = {name: sum(statistics.median(q[name] for q in qs) for qs in groups.values())
             for name in quantities[0][1]}
    metrics = layer_metrics(cycle, evals)
    plain_s = per_cycle(plain, lambda r: r.seconds)
    traced_s = per_cycle(traced, lambda r: r.seconds)
    metrics["trace.overhead_s"] = traced_s - plain_s
    print(f"traced run_s {traced_s:.6g} s over {len(traced)} passes, untraced "
          f"{plain_s:.6g} s over {len(plain)} passes")
    span_file = root / WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    write_spans(span_file, tracer.spans, kept)
    print(f"spans of the first traced pass of each kind: {span_file.relative_to(root)}")
    for name, _ in PER_LAYER:
        print(f"{name} {metrics[name]:.6g}")
    return {name: metrics[name] for name, _ in PER_LAYER}


def write_spans(path: Path, spans: list, kept: list) -> None:
    """One JSON line per span; ids and parents count from the pass's first span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for number, (kind, first, end) in enumerate(kept):
            for i in range(first, end):
                name, start, stop, parent = spans[i]
                record = {"pass": number, "kind": kind, "id": i - first,
                          "parent": parent - first if parent >= first else None,
                          "name": name, "start": start, "end": stop}
                fh.write(json.dumps(record) + "\n")


def load_program(root: Path) -> bool:
    """Make ``root/src/artifact`` importable with BLAS pinned and
    ``ARTIFACT_WORKERS`` unset; returns whether that variable was set.

    Raises:
        ImportError: when ``root`` holds no ``src/artifact`` package or another
            copy of ``artifact`` shadows it.
    """
    src = root / "src"
    if not (src / "artifact" / "__init__.py").is_file():
        raise ImportError(f"no src/artifact package under {root}; run from the "
                          "root of a checkout")
    workers_set = WORKERS_ENV in os.environ
    os.environ.pop(WORKERS_ENV, None)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)   # before numpy loads BLAS
    sys.path.insert(0, str(src))
    import artifact
    if Path(artifact.__file__).resolve().parent != (src / "artifact").resolve():
        raise ImportError(f"imported artifact from {artifact.__file__}")
    return workers_set


def run_all(args) -> int:
    """Run every workload in a child process of its own, so that peak RSS stays
    per workload, and relay the output; the last line combines the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900,
                              check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    root = Path.cwd()
    try:
        workers_set = load_program(root)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from artifact import cli, graph

    import checks
    import inputs

    print("host " + json.dumps(host_info(args, workers_set), sort_keys=True))
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = BUILDERS[args.workload](args.seed, work, inputs, checks)
        total = checks.Outcome()
        _, warm = run_pass(cli, workload.passes[0][1], checks)   # untimed warm-up
        total.add(warm)
        if args.trace:
            metrics = run_traced(cli, workload, args, checks, total, root)
            units = dict(PER_LAYER)
        else:
            setup = SetupTimer(cli, graph, workload.setup_paths)
            records = measure(cli, workload, args.seconds, checks, total, start_index=1,
                              between=setup)
            metrics = report_untraced(records, setup.times)
            units = dict(END_TO_END)
        for note in total.notes:
            print(f"check failed: {note}")
        emit(total, metrics, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
