"""Command-line interface: FASTA in, similarity graph (and clusters) out.

Mirrors the original PASTIS binary's role: read a protein FASTA, run the
one driver at ``--ranks`` ranks, write the PSG as a TSV edge list,
optionally cluster it with MCL and write families.

Usage::

    python -m repro input.fasta -o edges.tsv [--k 6] [--substitutes 25]
        [--align xd|sw] [--weight ani|ns] [--ck N] [--ranks 4]
        [--align-engine batched|python]
        [--align-balance off|greedy]
        [--cluster families.tsv]

Every flag maps onto one :class:`~repro.core.config.PastisConfig` field
(see :func:`config_from_args`); the implementation knobs
(``align-engine``, ``align-balance``) never change the output graph — a
tested byte-identity contract documented in ``docs/knobs.md``.  The SPMD
runtime's checks (the collective lockstep check, the runner's teardown
audit) run in every run and have no flag.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import os
import sys
import time

from .bio.fasta import FastaError, read_fasta
from .bio.sequences import SequenceStore
from .core.config import (
    ALIGN_BALANCE_MODES,
    ALIGN_ENGINES,
    ALIGN_MODES,
    WEIGHTS,
    ConfigError,
    PastisConfig,
    check_inflation,
    check_ranks,
)
from .core.distributed import run_pastis_distributed
from .core.graph import SimilarityGraph

__all__ = ["main", "build_parser", "config_from_args", "write_edges_tsv"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI surface; one flag per :class:`PastisConfig` knob.

    Choice-valued flags take their ``choices`` directly from the tuples in
    :mod:`repro.core.config`, so the parser can never drift from what the
    config validates (``tests/test_cli.py`` locks this in).
    """
    p = argparse.ArgumentParser(
        prog="repro-pastis",
        description="PASTIS reproduction: build a protein similarity "
        "graph from a FASTA file",
    )
    p.add_argument("fasta", help="input protein FASTA file")
    p.add_argument("-o", "--output", required=True,
                   help="output TSV edge list (id_a, id_b, weight)")
    p.add_argument("--k", type=int, default=6, help="k-mer length")
    p.add_argument("--substitutes", "-s", type=int, default=0,
                   help="substitute k-mers per k-mer (0 = exact)")
    p.add_argument("--align", choices=ALIGN_MODES, default="xd",
                   help="alignment mode: x-drop or Smith-Waterman")
    p.add_argument("--weight", choices=WEIGHTS, default="ani",
                   help="edge weight: identity (with 30/70 filter) or "
                   "normalized score (no filter)")
    p.add_argument("--ck", type=int, default=None,
                   help="common k-mer threshold (drop pairs sharing <= CK "
                   "k-mers)")
    p.add_argument("--xdrop", type=int, default=49, help="x-drop value")
    p.add_argument("--min-identity", type=float, default=0.30)
    p.add_argument("--min-coverage", type=float, default=0.70)
    p.add_argument("--ranks", type=int, default=1,
                   help="SPMD ranks, one process each (a positive perfect "
                   "square); one driver at every count, inline in this "
                   "process at 1")
    p.add_argument("--align-engine", choices=ALIGN_ENGINES,
                   default="batched",
                   help="alignment engine: inter-pair batched wavefront "
                   "(default; the paper's SeqAn-style batching) or the "
                   "per-pair Python reference — byte-identical results")
    p.add_argument("--align-balance", choices=ALIGN_BALANCE_MODES,
                   default="off",
                   help="cross-rank alignment rebalancing (--ranks > 1): "
                   "'greedy' costs each rank's candidate pairs in DP "
                   "cells and ships tasks along one deterministic "
                   "bin-pack plan — byte-identical results either way")
    # hidden and inert: 'mp', the one transport, is its only value
    p.add_argument("--comm-backend", choices=("mp",),
                   help=argparse.SUPPRESS)
    p.add_argument("--cluster", metavar="TSV", default=None,
                   help="also run Markov Clustering and write "
                   "(id, cluster) rows to this file")
    p.add_argument("--inflation", type=float, default=2.0,
                   help="MCL inflation (granularity)")
    p.add_argument("--quiet", action="store_true")
    return p


def config_from_args(args: argparse.Namespace) -> PastisConfig:
    """Build the immutable run configuration from parsed CLI arguments.

    The single authoritative flag-to-field mapping — ``main`` uses it, and
    the CLI round-trip tests exercise it for every knob choice.
    """
    return PastisConfig(
        k=args.k,
        substitutes=args.substitutes,
        align_mode=args.align,
        weight=args.weight,
        common_kmer_threshold=args.ck,
        xdrop=args.xdrop,
        min_identity=args.min_identity,
        min_coverage=args.min_coverage,
        align_engine=args.align_engine,
        align_balance=args.align_balance,
    )


def write_edges_tsv(path: str, graph: SimilarityGraph) -> int:
    """Write the edge list; returns the number of edges written."""
    ids = graph.ids or [str(i) for i in range(graph.n)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#id_a\tid_b\tweight\n")
        for i, j, w in zip(graph.ri, graph.rj, graph.weights):
            fh.write(f"{ids[int(i)]}\t{ids[int(j)]}\t{w:.6f}\n")
    return graph.nedges


def _check_writable(path: str) -> None:
    """Raise the :class:`OSError` that ``open(path, "w")`` is going to —
    now, before the pipeline has run and its result would be lost."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code, where = errno.EISDIR, path
    elif not os.path.isdir(parent):
        code, where = errno.ENOENT, parent
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code, where = errno.EACCES, path
    else:
        return
    raise OSError(code, os.strerror(code), where)


def _check_distinct(paths: dict[str, str | None]) -> None:
    """Raise :class:`ConfigError` if two of the named paths are one file
    (``samefile`` when both exist, else ``realpath`` equality): writing an
    output would destroy the input or the other output."""
    named = [(flag, path) for flag, path in paths.items() if path]
    for (flag_a, a), (flag_b, b) in itertools.combinations(named, 2):
        if os.path.exists(a) and os.path.exists(b):
            same = os.path.samefile(a, b)
        else:
            same = os.path.realpath(a) == os.path.realpath(b)
        if same:
            raise ConfigError(f"{flag_a} and {flag_b} name the same file: {b}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code: 2, with ``error:
    <message>`` on stderr and nothing else printed, for a bad configuration
    (:class:`ConfigError`), an unusable input (:class:`FastaError`, or the
    :class:`OSError` of a missing file or a directory), an output path
    that cannot be written, or two of input / ``-o`` / ``--cluster`` that
    name one file — all before any rank does any work, and every check
    but the input's own before the input is read."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        config = config_from_args(args)
        check_ranks(args.ranks)
        check_inflation(args.inflation)
        _check_distinct({"input": args.fasta, "-o": args.output,
                         "--cluster": args.cluster})
        for path in (args.output, args.cluster):
            if path:
                _check_writable(path)
        records = read_fasta(args.fasta)
        if not records:
            raise FastaError("no sequences in input")
        store = SequenceStore.from_records(records)
    except (ConfigError, FastaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"read {len(store)} sequences "
              f"({store.total_residues} residues) "
              f"in {time.perf_counter() - t0:.2f}s")
        print(f"running {config.variant_name} (p={args.ranks})")

    t0 = time.perf_counter()
    graph = run_pastis_distributed(store, config, nranks=args.ranks)
    elapsed = time.perf_counter() - t0

    n = write_edges_tsv(args.output, graph)
    if not args.quiet:
        print(f"pipeline: {elapsed:.2f}s; "
              f"{graph.meta.get('aligned_pairs', '?')} alignments; "
              f"{n} edges -> {args.output}")

    if args.cluster:
        from .cluster.mcl import markov_clustering

        mcl = markov_clustering(graph, inflation=args.inflation)
        ids = graph.ids or [str(i) for i in range(graph.n)]
        with open(args.cluster, "w", encoding="utf-8") as fh:
            fh.write("#id\tcluster\n")
            for i, c in enumerate(mcl.labels):
                fh.write(f"{ids[i]}\t{int(c)}\n")
        if not args.quiet:
            print(f"clustering: {mcl.n_clusters} clusters "
                  f"({mcl.iterations} MCL iterations) -> {args.cluster}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
