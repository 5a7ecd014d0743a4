"""Microbenchmark for the numeric and struct SpGEMM fast paths.

Not a paper figure — this quantifies the PRs that replaced per-element
Python semiring dispatch with vectorized kernels, on Fig. 14-style
workloads (random square operands, the ``A Aᵀ`` k-mer-matrix shape of the
overlap stage, and the ``(AS) Aᵀ`` CommonKmers shape of the struct
expand-reduce path).  Two headline rows are asserted at ≥ 5×: plus-times
on a 500×500, 1 % density pair (the numeric rung of ``spgemm_coo`` vs
hash) and the CommonKmers overlap stage (its struct rung vs the object
reference); in practice both gaps are far larger.  Workloads whose operand
builder needs ``scipy.sparse.random`` self-skip when scipy is not installed.

Run with ``pytest benchmarks/bench_spgemm_fastpath.py -s`` to see the
table, or directly as a script::

    python benchmarks/bench_spgemm_fastpath.py [--smoke] [--json PATH]

which writes a ``BENCH_spgemm.json`` artifact (per-workload best-of-N
timings and speedups) for CI trend tracking; ``--smoke`` shrinks the
workloads for fast smoke runs.  Plain ``time.perf_counter`` timing so the
file needs no pytest-benchmark plugin.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

try:
    import scipy.sparse as sp

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    sp = None
    HAVE_SCIPY = False

from repro.core.semirings import (
    encode_seed_hits,
    substitute_overlap_encoded_semiring,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.semiring import (
    ARITHMETIC,
    COUNTING,
    MAX_TIMES,
    MIN_PLUS,
)
from repro.sparse.spgemm import spgemm_coo, spgemm_hash

needs_scipy = pytest.mark.skipif(not HAVE_SCIPY,
                                 reason="scipy not installed")


def _random_csr(m, n, density, seed) -> CSRMatrix:
    mat = sp.random(m, n, density=density, random_state=seed, format="csr")
    mat.data[:] = np.random.default_rng(seed).integers(1, 9, len(mat.data))
    return CSRMatrix.from_coo(COOMatrix.from_scipy(mat))


def _kmer_matrix(nseqs, kmer_space, kmers_per_seq, seed) -> CSRMatrix:
    """An A-like matrix: one row per sequence, positions as values."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(nseqs), kmers_per_seq)
    cols = rng.integers(0, kmer_space, len(rows))
    pos = rng.integers(0, 200, len(rows)).astype(np.int64)
    coo = COOMatrix(nseqs, kmer_space, rows, cols, pos)
    return CSRMatrix.from_coo(coo.sum_duplicates(lambda a, b: a))


def _as_operands(nseqs, kmer_space, kmers_per_seq, seed):
    """``(AS, Aᵀ)``-shaped operands for the CommonKmers overlap stage:
    left values are int64-encoded seed hits, right values positions."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(nseqs), kmers_per_seq)
    cols = rng.integers(0, kmer_space, len(rows))
    enc = encode_seed_hits(
        rng.integers(0, 200, len(rows)), rng.integers(0, 5, len(rows))
    )
    a_s = COOMatrix(nseqs, kmer_space, rows, cols, enc).sum_duplicates(
        lambda x, y: x
    )
    pos = rng.integers(0, 200, a_s.nnz).astype(np.int64)
    at = COOMatrix(nseqs, kmer_space, a_s.rows, a_s.cols, pos).transpose()
    return CSRMatrix.from_coo(a_s), CSRMatrix.from_coo(at)


def _fast(a: CSRMatrix, b: CSRMatrix, semiring):
    """A timed call of the dispatcher on the COO forms of CSR-built
    operands (converted once, outside the timed region)."""
    ac, bc = a.to_coo(), b.to_coo()
    return lambda: spgemm_coo(ac, bc, semiring)


def _best_of(fn, repeat=5) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _report(rows: list[tuple[str, float, float]]) -> None:
    print("\n=== vectorized fast path vs generic kernel ===")
    print(f"{'workload':<40}{'generic (ms)':>13}{'fast (ms)':>11}"
          f"{'speedup':>10}")
    for name, t_hash, t_num in rows:
        print(f"{name:<40}{t_hash * 1e3:>13.2f}{t_num * 1e3:>11.2f}"
              f"{t_hash / t_num:>9.1f}x")


class TestFastPathSpeedup:
    @needs_scipy
    def test_plus_times_500x500_1pct(self):
        """Acceptance workload: ≥ 5× over the hash path."""
        a = _random_csr(500, 500, 0.01, 1)
        b = _random_csr(500, 500, 0.01, 2)
        ref = spgemm_hash(a, b, ARITHMETIC).to_dict()
        got = _fast(a, b, ARITHMETIC)().to_dict()
        assert {k: float(v) for k, v in got.items()} == (
            {k: float(v) for k, v in ref.items()}
        )
        t_hash = _best_of(lambda: spgemm_hash(a, b, ARITHMETIC))
        t_num = _best_of(_fast(a, b, ARITHMETIC))
        _report([("plus-times 500x500 d=0.01", t_hash, t_num)])
        assert t_hash / t_num >= 5.0, (
            f"fast path only {t_hash / t_num:.1f}x faster"
        )

    @needs_scipy
    def test_semiring_sweep_300x300(self):
        a = _random_csr(300, 300, 0.03, 3)
        b = _random_csr(300, 300, 0.03, 4)
        rows = []
        for semiring in (ARITHMETIC, MIN_PLUS, MAX_TIMES, COUNTING):
            t_hash = _best_of(lambda: spgemm_hash(a, b, semiring))
            t_num = _best_of(_fast(a, b, semiring))
            rows.append(
                (f"{semiring.name} 300x300 d=0.03", t_hash, t_num)
            )
        _report(rows)
        # every numeric semiring must clearly beat the generic kernel; the
        # loose 1.5x bound keeps CI robust to noisy shared runners (locally
        # the ratio is ~10x)
        assert all(t_hash / t_num >= 1.5 for _, t_hash, t_num in rows)

    def test_overlap_shape_counting_aat(self):
        """The paper's dominant shape: hypersparse A times Aᵀ."""
        a = _kmer_matrix(nseqs=400, kmer_space=5000, kmers_per_seq=40,
                         seed=5)
        at = a.transpose()
        t_hash = _best_of(lambda: spgemm_hash(a, at, COUNTING))
        t_num = _best_of(_fast(a, at, COUNTING))
        _report([("counting AAT 400 seqs x 5000 kmers", t_hash, t_num)])
        assert t_hash / t_num >= 1.5


class TestStructPathSpeedup:
    def test_commonkmers_overlap_stage(self):
        """Acceptance workload for the struct expand-reduce path: the
        ``(AS) Aᵀ`` CommonKmers stage at ≥ 5× over the per-element object
        fallback (the kernel the distributed SUMMA blocks now run)."""
        a_s, at = _as_operands(nseqs=300, kmer_space=4000,
                               kmers_per_seq=30, seed=9)
        sr = substitute_overlap_encoded_semiring()
        from repro.core.semirings import records_to_common_kmers

        ref = spgemm_hash(a_s, at, sr).to_dict()
        struct = _fast(a_s, at, sr)
        got = struct()
        unpacked = records_to_common_kmers(got.vals)
        assert {
            (int(r), int(c)): v
            for r, c, v in zip(got.rows, got.cols, unpacked)
        } == ref
        t_obj = _best_of(lambda: spgemm_hash(a_s, at, sr), repeat=3)
        t_struct = _best_of(struct, repeat=3)
        _report([("commonkmers (AS)AT 300 seqs struct", t_obj, t_struct)])
        assert t_obj / t_struct >= 5.0, (
            f"struct path only {t_obj / t_struct:.1f}x faster"
        )


# ---------------------------------------------------------------------------
# script mode: JSON artifact for CI trend tracking
# ---------------------------------------------------------------------------


def _workloads(smoke: bool):
    """``name -> (generic_fn, fast_fn)`` benchmark pairs; ``smoke``
    shrinks every workload so the run finishes in seconds."""
    scale = 0.4 if smoke else 1.0
    n500 = max(int(500 * scale), 50)
    n300 = max(int(300 * scale), 50)
    out = {}
    if HAVE_SCIPY:  # the random-density operand builder needs sp.random
        a = _random_csr(n500, n500, 0.01, 1)
        b = _random_csr(n500, n500, 0.01, 2)
        out[f"plus_times_{n500}x{n500}_d0.01"] = (
            lambda: spgemm_hash(a, b, ARITHMETIC),
            _fast(a, b, ARITHMETIC),
        )
        for semiring in (MIN_PLUS, MAX_TIMES, COUNTING):
            c = _random_csr(n300, n300, 0.03, 3)
            d = _random_csr(n300, n300, 0.03, 4)
            out[f"{semiring.name}_{n300}x{n300}_d0.03"] = (
                lambda c=c, d=d, s=semiring: spgemm_hash(c, d, s),
                _fast(c, d, semiring),
            )
    ka = _kmer_matrix(max(int(400 * scale), 60), max(int(5000 * scale), 500),
                      30, seed=5)
    kat = ka.transpose()
    out["counting_aat_kmer_shape"] = (
        lambda: spgemm_hash(ka, kat, COUNTING),
        _fast(ka, kat, COUNTING),
    )
    a_s, at = _as_operands(max(int(300 * scale), 60),
                           max(int(4000 * scale), 400), 25, seed=9)
    sr = substitute_overlap_encoded_semiring()
    out["commonkmers_overlap_struct"] = (
        lambda: spgemm_hash(a_s, at, sr),
        _fast(a_s, at, sr),
    )
    return out


def main(argv=None) -> int:
    import argparse
    import json
    import platform

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink workloads for a fast CI smoke run")
    ap.add_argument("--json", default="BENCH_spgemm.json",
                    help="path of the JSON artifact (default: %(default)s)")
    args = ap.parse_args(argv)

    repeat = 3 if args.smoke else 5
    rows = []
    results = {}
    for name, (generic_fn, fast_fn) in _workloads(args.smoke).items():
        t_generic = _best_of(generic_fn, repeat=repeat)
        t_fast = _best_of(fast_fn, repeat=repeat)
        rows.append((name, t_generic, t_fast))
        results[name] = {
            "generic_ms": round(t_generic * 1e3, 3),
            "fast_ms": round(t_fast * 1e3, 3),
            "speedup": round(t_generic / t_fast, 2),
        }
    _report(rows)
    payload = {
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": results,
    }
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"\nwrote {args.json}")
    # script mode is informational (trend artifact only): smoke-scaled
    # workloads on shared runners are too noisy to gate CI on — the
    # speedup acceptance gates live in the pytest tests above
    slow = [n for n, r in results.items() if r["speedup"] < 1.5]
    if slow:
        print(f"warning: workloads below 1.5x (noisy runner?): {slow}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
