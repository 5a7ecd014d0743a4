"""FASTA -> similarity-graph benchmark: end to end, then layer by layer.

Three ways to call it (see README.md next to this file)::

    python benchmarks/e2e/run.py [--seed N] [--smoke] [--out DIR]
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py --compare A.json B.json

The first runs all four workloads both ways, prints every metric by name
with its unit, checks the outputs and writes ``results.json`` plus one
Chrome trace-event file per workload.  The second is the form the PR driver
calls: one workload, one kind of measurement, one JSON object as the last
line of standard output.  The third compares two ``results.json`` files
metric by metric against the bounds in ``BENCHMARK.json``.

Closed loop, one job at a time: every end-to-end number comes from a fresh
``python -m repro`` child with tracing off (:mod:`harness`); per-layer
numbers come from one separate traced replay (:mod:`probes`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# not the script's own directory: ``trace.py`` there must not shadow the
# standard library's ``trace`` for everything this process imports
sys.path[0:1] = [str(HERE.parent), str(ROOT / "src")]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'}: the program this benchmark runs is not there")

import numpy as np  # noqa: E402

from repro.core.distributed import store_to_fasta_bytes  # noqa: E402

from e2e import harness, probes  # noqa: E402
from e2e.workloads import WORKLOADS, Workload, generate  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_SPECS = {m["name"]: m for m in BENCH["end_to_end"]}

#: reported by the full run next to the ``BENCHMARK.json`` metrics; both
#: are 0 on a healthy tree, so they cannot carry a relative bound there —
#: ``--compare`` holds them to "may not rise"
MAY_NOT_RISE = {"xcheck_mismatch_edges": "lines", "failed_frac": "fraction"}

SETUPS = 3    # set-ups per invocation; setup_s is their median
MIN_RUNS = 3  # timed runs per invocation, however short --seconds is


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


class Bench:
    """One workload at one seed: its input on disk and its child runs."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.fasta = work / f"{workload.name}.fa"
        self.tsv = work / f"{workload.name}.tsv"
        self.runs: list[harness.ChildRun] = []
        self.failures: list[str] = []
        self.reference_sha: str | None = None
        self.setups = 0  # write_input() fills data, input and pycache

    def write_input(self) -> None:
        """Generate the input from the seed and put the FASTA on disk.
        Each set-up gets an empty bytecode cache, so its warm-up run pays
        what a first run on a fresh checkout pays."""
        self.setups += 1
        self.pycache = self.work / f"pycache-{self.setups}"
        self.data = generate(self.workload, self.seed)
        payload = store_to_fasta_bytes(self.data.store)
        self.fasta.write_bytes(payload)
        self.input = {
            "seed": self.seed,
            "sha256": harness.sha256(payload),
            "sequences": len(self.data.store),
            "residues": int(self.data.store.total_residues),
        }

    def job(self, quiet: bool = True) -> harness.ChildRun | None:
        """One run of the workload's own formulation; a run whose TSV
        differs from the first one's is a failure."""
        run = harness.run_child(
            self.fasta, self.tsv, self.workload.flags, self.pycache, quiet=quiet,
        )
        self.runs.append(run)
        why = run.failure
        if why is None:
            if self.reference_sha is None:
                self.reference_sha = run.tsv_sha256
            elif run.tsv_sha256 != self.reference_sha:
                why = "TSV differs from the workload's other runs"
        if why is not None:
            self.failures.append(why)
            log(f"  {self.workload.name}: run {len(self.runs)} failed: {why}")
            return None
        return run

    def xcheck(self) -> tuple[int, int]:
        """Run the other formulation once; returns (mismatching edges,
        edges in either graph)."""
        ours = harness.read_edges(self.tsv)
        other_tsv = self.work / f"{self.workload.name}.xcheck.tsv"
        run = harness.run_child(
            self.fasta, other_tsv, self.workload.xcheck_flags, self.pycache,
        )
        self.runs.append(run)
        if run.failure is not None:
            self.failures.append(f"xcheck: {run.failure}")
            return len(ours), len(ours)
        other = harness.read_edges(other_tsv)
        return harness.mismatch_edges(ours, other), len(ours.keys() | other.keys())


def measure_e2e(bench: Bench, seconds: float, setups: int, min_runs: int) -> dict:
    """Set up ``setups`` times, cross-check once, then run jobs back to
    back for ``seconds`` (at least ``min_runs``); medians over the runs."""
    w = bench.workload
    setup_s, aligned = [], None
    for _ in range(setups):
        t0 = time.perf_counter()
        bench.write_input()
        warm = bench.job(quiet=False)  # not --quiet: it prints the alignment count
        setup_s.append(time.perf_counter() - t0)
        if warm is not None:
            aligned = warm.aligned_pairs
    if aligned is None:
        raise SystemExit(f"{w.name}: no warm-up run succeeded: {bench.failures}")
    edges = harness.read_edges(bench.tsv)
    recall, precision = harness.recall_precision(edges, bench.data)
    mismatch, union = bench.xcheck()

    timed: list[harness.ChildRun] = []
    t0 = time.perf_counter()
    while True:
        run = bench.job()
        if run is not None:
            timed.append(run)
        left = seconds - (time.perf_counter() - t0)
        enough = len(timed) >= min_runs or len(bench.failures) >= min_runs
        if enough and left < 0.5 * bench.runs[-1].wall_s:
            break
    if not timed:
        raise SystemExit(f"{w.name}: no timed run succeeded: {bench.failures}")

    def stat(values, unit):
        return {
            "value": statistics.median(values), "unit": unit,
            "min": min(values), "max": max(values), "n": len(values),
        }

    walls = [r.wall_s for r in timed]
    metrics = {
        "wall_s": stat(walls, "s"),
        "cpu_s": stat([r.cpu_s for r in timed], "s"),
        "peak_rss_mb": stat([r.peak_rss_mb for r in timed], "MB"),
        "setup_s": stat(setup_s, "s"),
        "aligned_pairs_per_s": stat([aligned / x for x in walls], "1/s"),
        "recall": stat([recall], "fraction"),
        "precision": stat([precision], "fraction"),
        "xcheck_agree_frac": stat([1.0 - mismatch / union if union else 1.0], "fraction"),
        "xcheck_mismatch_edges": stat([mismatch], "lines"),
        "failed_frac": stat([len(bench.failures) / len(bench.runs)], "fraction"),
    }
    return {
        "why": w.why,
        "input": bench.input,
        "argv": timed[0].argv,
        "xcheck_flags": list(w.xcheck_flags),
        "oversubscribed": w.ranks > (os.cpu_count() or 1),
        "aligned_pairs": aligned,
        "edges": len(edges),
        "tsv_sha256": bench.reference_sha,
        "end_to_end": metrics,
    }


def measure_layers(bench: Bench, out: Path, reference: tuple[float, str] | None) -> dict:
    """One traced replay.  ``reference`` is (wall seconds, TSV sha256) of
    the workload's untraced runs; without it two jobs are run first (the
    first one compiles bytecode, the second is the reference)."""
    w = bench.workload
    if reference is None:
        bench.write_input()
        bench.job()
        run = bench.job()
        if run is None:
            raise SystemExit(f"{w.name}: reference run failed: {bench.failures}")
        reference = (run.wall_s, run.tsv_sha256)
    result = probes.replay(w, bench.fasta, bench.work, *reference)
    trace_file = out / f"trace-{w.name}.json"
    result["recorder"].write_chrome(trace_file)
    for problem in result["problems"]:
        log(f"  {w.name}: replay check failed: {problem}")
    for miss in result["missing_probes"]:
        log(f"  {w.name}: missing probe: {miss}")
    return {
        "per_layer": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in probes.LAYER_METRICS.items()
        },
        "missing_probes": result["missing_probes"],
        "replay_problems": result["problems"],
        "replay_seconds": result["seconds"],
        "trace_file": trace_file.name,
    }


# ---------------------------------------------------------------------------
# the three entry points
# ---------------------------------------------------------------------------


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def show(name: str, metrics: dict) -> None:
    print(f"\n== {name}")
    for metric, m in metrics.items():
        value = "null (missing probe)" if m["value"] is None else f"{m['value']:.6g}"
        spread = (
            f"  [min {m['min']:.6g}, max {m['max']:.6g}, n={m['n']}]"
            if m.get("n", 1) > 1 else ""
        )
        print(f"  {metric:<28}{value:>14} {m['unit']}{spread}")


def run_all(seed: int, seconds: float, smoke: bool, out: Path, work: Path) -> int:
    """Every workload, end to end and traced; ``results.json`` + traces."""
    results = {
        "schema": "repro.bench.e2e/v1",
        "claim": None,
        "seed": seed,
        "smoke": smoke,
        "run_seconds": seconds,
        **environment(),
        "workloads": {},
    }
    ok = True
    for w in WORKLOADS:
        bench = Bench(w.smoke_sized() if smoke else w, seed, work)
        log(f"{w.name}: end to end ...")
        entry = measure_e2e(
            bench, seconds, 1, 1 if smoke else MIN_RUNS
        )
        log(f"{w.name}: traced replay ...")
        wall = entry["end_to_end"]["wall_s"]["value"]
        entry.update(measure_layers(bench, out, (wall, bench.reference_sha)))
        entry["attempted"] = len(bench.runs)
        entry["failed"] = len(bench.failures)
        entry["failures"] = bench.failures
        ok &= not bench.failures and not entry["replay_problems"]
        results["workloads"][w.name] = entry
        show(f"{w.name}: end to end", entry["end_to_end"])
        show(f"{w.name}: per layer (traced replay)", entry["per_layer"])
    (out / "results.json").write_text(
        json.dumps(results, indent=1) + "\n", encoding="utf-8"
    )
    print(f"\nwrote {out / 'results.json'} and {len(WORKLOADS)} trace files; "
          f"outputs {'correct' if ok else 'NOT correct'}")
    return 0 if ok else 1


def run_one(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    out: Path, work: Path,
) -> int:
    """The driver's form: one JSON object as the last line of stdout."""
    w = {w.name: w for w in WORKLOADS}[name]
    bench = Bench(w.smoke_sized() if smoke else w, seed, work)
    if trace:
        entry = measure_layers(bench, out, None)
        # a missing probe has no number to give; 0 keeps the line parseable
        metrics = {
            n: {"value": m["value"] or 0, "unit": m["unit"]}
            for n, m in entry["per_layer"].items()
        }
        correct = not entry["replay_problems"]
    else:
        entry = measure_e2e(
            bench, seconds, 1 if smoke else SETUPS, 1 if smoke else MIN_RUNS
        )
        metrics = {
            n: {"value": entry["end_to_end"][n]["value"], "unit": spec["unit"]}
            for n, spec in E2E_SPECS.items()
        }
        correct = True
    print(json.dumps({
        "correct": correct and not bench.failures,
        "attempted": len(bench.runs) + int(trace),
        "failed": len(bench.failures) + (int(trace) if not correct else 0),
        "metrics": metrics,
    }))
    return 0


def compare(path_a: str, path_b: str) -> int:
    """Medians of B against medians of A, per workload and end-to-end
    metric; non-zero exit when any is worse by more than its bound."""
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    specs = dict(E2E_SPECS)
    for name, unit in MAY_NOT_RISE.items():
        specs[name] = {"unit": unit, "better": "lower", "bound": 0.0}
    bad = 0
    print(f"{'workload':<13}{'metric':<24}{'A':>12}{'B':>12}{'B vs A':>10}{'bound':>8}")
    for w in a["workloads"]:
        for name, spec in specs.items():
            va = a["workloads"][w]["end_to_end"][name]["value"]
            vb = b["workloads"][w]["end_to_end"][name]["value"]
            worse = (vb - va) if spec["better"] == "lower" else (va - vb)
            # relative to A's median; an A of 0 (the may-not-rise pair)
            # is held absolutely
            rel = worse / va if va else worse
            outside = rel > spec["bound"]
            bad += outside
            print(f"{w:<13}{name:<24}{va:>12.5g}{vb:>12.5g}"
                  f"{(vb - va) / va if va else vb - va:>+10.3f}{spec['bound']:>8.3f}"
                  f"{'  OUTSIDE' if outside else ''}")
    print(f"{bad} (workload, metric) pairs outside their bound")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                   help="run one workload and print one JSON line (driver form)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"],
                   help="how long the timed runs of a workload go on")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 0 = end-to-end metrics, 1 = per-layer")
    p.add_argument("--smoke", action="store_true",
                   help="~20-sequence inputs, one run each (the tier-1 test)")
    p.add_argument("--out", type=Path, default=HERE / "out",
                   help="where results.json, traces and scratch files go")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    args.out.mkdir(parents=True, exist_ok=True)
    work = args.out / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.workload:
            return run_one(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.smoke, args.out, work)
        return run_all(args.seed, 0.0 if args.smoke else args.seconds,
                       args.smoke, args.out, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
