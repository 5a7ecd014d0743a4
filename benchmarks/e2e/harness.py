"""Run the program as a batch job and check what it wrote.

One job = a fresh ``python -m repro <fasta> -o <tsv> <flags> --quiet``
child in its own process group: the program sees only the FASTA path and
its flags.  The benchmark measures the child from outside (wall clock,
``os.wait4`` rusage, both taken by :mod:`launch`) and judges it by its exit
status and its TSV.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.bio.generate import FamilyDataset

__all__ = [
    "RUN_TIMEOUT_S", "SRC_DIR", "ChildRun", "run_child", "read_edges",
    "recall_precision", "mismatch_edges", "sha256",
]

#: a run that takes longer is killed (whole process group) and counted as
#: failed instead of hanging the benchmark
RUN_TIMEOUT_S = 120.0

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

_LAUNCHER = Path(__file__).resolve().parent / "launch.py"

_SHM = Path("/dev/shm")


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _shm_segments() -> set[str]:
    return set(os.listdir(_SHM)) if _SHM.is_dir() else set()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class ChildRun:
    """What one job cost and whether it can be trusted."""

    argv: list[str]
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    timed_out: bool
    tsv_sha256: str | None
    leaked_shm: list[str] = field(default_factory=list)
    stdout: str = ""

    @property
    def failure(self) -> str | None:
        """Why this run does not count, or ``None``."""
        if self.timed_out:
            return f"timed out after {RUN_TIMEOUT_S:.0f} s"
        if self.exit_code != 0:
            return f"exit code {self.exit_code}"
        if self.tsv_sha256 is None:
            return "wrote no TSV"
        if self.leaked_shm:
            return f"leaked /dev/shm segments: {self.leaked_shm}"
        return None

    @property
    def aligned_pairs(self) -> int | None:
        """The alignment count the CLI prints unless ``--quiet``."""
        m = re.search(r"(\d+) alignments", self.stdout)
        return int(m.group(1)) if m else None


def run_child(
    fasta: Path,
    tsv: Path,
    flags: tuple[str, ...],
    pycache: Path,
    quiet: bool = True,
) -> ChildRun:
    """Run one job to completion (or to :data:`RUN_TIMEOUT_S`) and measure it.

    The job is started by :mod:`launch` — a process small enough that the
    job's ``ru_maxrss`` is its own — which reports wall seconds (spawn to
    exit) and the ``os.wait4`` rusage: on Linux that covers the job *and*
    every rank process it reaped (``cpu_s`` is their sum, ``ru_maxrss`` the
    largest single process).  ``/dev/shm`` is listed before and after, so a
    shared-memory segment the ``mp`` backend leaves behind fails the run.
    Bytecode goes to ``pycache`` (inside the benchmark's work directory),
    whatever the caller's environment says.
    """
    argv = [sys.executable, "-m", "repro", str(fasta), "-o", str(tsv), *flags]
    if quiet:
        argv.append("--quiet")
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    report = tsv.with_suffix(".report.json")
    report.unlink(missing_ok=True)
    tsv.unlink(missing_ok=True)
    shm_before = _shm_segments()
    proc = subprocess.Popen(
        [sys.executable, "-I", "-S", str(_LAUNCHER), str(report), *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    timed_out = False
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        _kill_group(proc.pid)
        stdout, _ = proc.communicate()
    _kill_group(proc.pid)  # ranks that outlived a dead job
    cost = (
        json.loads(report.read_text(encoding="utf-8")) if report.exists()
        else {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
              "exit_code": proc.returncode or 1}
    )
    return ChildRun(
        argv=argv,
        timed_out=timed_out,
        tsv_sha256=sha256(tsv.read_bytes()) if tsv.exists() else None,
        leaked_shm=sorted(_shm_segments() - shm_before),
        stdout=stdout,
        **cost,
    )


def read_edges(tsv: Path) -> dict[tuple[str, str], str]:
    """``{(id_a, id_b): weight text}`` of an edge TSV."""
    edges = {}
    for line in tsv.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            a, b, w = line.split("\t")
            edges[(a, b)] = w
    return edges


def recall_precision(
    edges: dict[tuple[str, str], str], data: FamilyDataset
) -> tuple[float, float]:
    """Recall and precision of the edge set against the generator's
    same-family pairs."""
    index = {name: i for i, name in enumerate(data.store.ids)}
    found = {tuple(sorted((index[a], index[b]))) for a, b in edges}
    truth = data.true_pairs()
    hits = len(found & truth)
    return hits / len(truth), (hits / len(found) if found else 0.0)


def mismatch_edges(
    ours: dict[tuple[str, str], str], other: dict[tuple[str, str], str]
) -> int:
    """Edges present in only one of two graphs, or in both with another
    weight."""
    return sum(
        1 for key in ours.keys() | other.keys()
        if ours.get(key) != other.get(key)
    )
