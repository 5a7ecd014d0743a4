"""Tier-1 smoke test of the end-to-end benchmark.

Runs ``run.py --smoke`` (inputs of ~20 sequences, one run each) and holds
its output to ``BENCHMARK.json``: every workload and metric named there is
reported with its unit, the names and counts fit the driver's schema, and
the trace files are Chrome trace-event JSON with parent links.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from .trace import load_chrome_trace

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_e2e")
    proc = run("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads((out / "results.json").read_text(encoding="utf-8"))
    return out, proc.stdout, results


def test_benchmark_json_fits_the_schema():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCH["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_smoke_reports_every_named_metric_with_its_unit(smoke):
    _, stdout, results = smoke
    assert results["claim"] is None
    assert set(results["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    for name, entry in results["workloads"].items():
        assert entry["failed"] == 0, entry["failures"]
        assert not entry["replay_problems"] and not entry["missing_probes"]
        assert re.fullmatch(r"[0-9a-f]{64}", entry["input"]["sha256"])
        assert entry["argv"][1:3] == ["-m", "repro"]
        for kind in ("end_to_end", "per_layer"):
            for spec in BENCH[kind]:
                got = entry[kind][spec["name"]]
                assert got["unit"] == spec["unit"], (name, spec["name"])
                assert isinstance(got["value"], (int, float)), (name, spec["name"])
                assert spec["name"] in stdout
        e2e = entry["end_to_end"]
        assert e2e["failed_frac"]["value"] == 0
        assert e2e["xcheck_mismatch_edges"]["value"] == 0
        assert e2e["wall_s"]["value"] > 0 and e2e["setup_s"]["value"] > 0


def test_trace_files_are_chrome_traces_with_parent_links(smoke):
    out, _, results = smoke
    for name, entry in results["workloads"].items():
        events = load_chrome_trace(out / entry["trace_file"])
        assert any(e["args"]["parent"] is not None for e in events)
        by_name = {e["name"] for e in events}
        assert {"replay.single", "align.batch", "io.write_tsv"} <= by_name
        rank_spans = [e for e in events if e["tid"] > 0]
        assert bool(rank_spans) == (name.startswith("dist-"))


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_form_prints_one_json_object_last(tmp_path, trace, kind):
    proc = run("--workload", "subs-sparse", "--seed", "3", "--seconds", "0",
               "--trace", trace, "--smoke", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH[kind]
    }
    assert not list(tmp_path.glob("work-*")), "scratch directory left behind"


def test_compare_flags_a_metric_outside_its_bound(smoke, tmp_path):
    out, _, results = smoke
    same = run("--compare", str(out / "results.json"), str(out / "results.json"))
    assert same.returncode == 0, same.stdout
    slower = copy.deepcopy(results)
    slower["workloads"]["align-exact"]["end_to_end"]["wall_s"]["value"] *= 1.5
    worse = tmp_path / "slower.json"
    worse.write_text(json.dumps(slower), encoding="utf-8")
    diff = run("--compare", str(out / "results.json"), str(worse))
    assert diff.returncode == 1
    assert re.search(r"align-exact\s+wall_s.*OUTSIDE", diff.stdout)
    assert diff.stdout.count("OUTSIDE") == 1
