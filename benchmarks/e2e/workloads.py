"""The four seeded workloads: input structure, CLI flags, and why.

Structure is fixed, content is seeded
-------------------------------------
``repro.bio.generate.scope_like`` / ``metaclust_like`` draw family sizes
and sequence lengths from the same generator as the residues, so the
number of same-family pairs — and with it the run time — moves by several
percent from one seed to the next.  The benchmark is judged by its spread
*across* seeds, so :func:`generate` fixes the structure per workload
(family sizes, sequence lengths, singleton count) and lets ``--seed``
decide only the residues, the mutations and the sequence order.  It builds
on the same public pieces those generators use (``make_family``,
``random_protein``, ``FamilyDataset``), so the inputs have the same
family/singleton shape with ground-truth labels.

Sizes are for a 2-core box and a child run of 2-3 s: a benchmark
invocation (three set-ups, one cross-check run, ``run_seconds`` of timed
runs) has to fit the driver's per-invocation budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.bio.generate import FamilyDataset, make_family, random_protein
from repro.bio.sequences import SequenceStore

__all__ = ["Workload", "WORKLOADS", "generate"]

_MP4 = ("--ranks", "4", "--comm-backend", "mp")


@dataclass(frozen=True)
class Workload:
    """One benchmark input and the program flags it is run with."""

    name: str
    why: str
    family_sizes: tuple[int, ...]
    n_singletons: int
    length_range: tuple[int, int]
    divergence: float
    seed_offset: int
    #: algorithm flags, shared by both formulations of the run
    algo_flags: tuple[str, ...]
    #: rank flags of a distributed workload; empty = single process
    dist_flags: tuple[str, ...]
    #: (family sizes, singletons) of the ``--smoke`` input
    smoke: tuple[tuple[int, ...], int]

    @property
    def ranks(self) -> int:
        return 4 if self.dist_flags else 1

    @property
    def flags(self) -> tuple[str, ...]:
        return self.algo_flags + self.dist_flags

    @property
    def xcheck_flags(self) -> tuple[str, ...]:
        """The *other* formulation of the same run: 4-rank ``mp`` for a
        single-process workload, single process for a distributed one."""
        return self.algo_flags + (() if self.dist_flags else _MP4)

    def smoke_sized(self) -> "Workload":
        sizes, singles = self.smoke
        return replace(self, family_sizes=sizes, n_singletons=singles)


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="align-exact",
        why="single process, s=0, x-drop + traceback, no CK: align is ~all of "
            "the run, form S idle; an x-drop change must show here and a "
            "form-S change must not",
        family_sizes=(8,) * 16,
        n_singletons=0,
        length_range=(100, 400),
        divergence=0.25,
        seed_offset=1,
        algo_flags=("--k", "6"),
        dist_flags=(),
        smoke=((4,) * 3, 0),
    ),
    Workload(
        name="subs-sparse",
        why="single process, the paper's s=25 + CK=3 on a mostly-singleton "
            "sample: thousands of substitute searches, a handful of "
            "alignments; form S is ~all of the run, the mirror of align-exact",
        family_sizes=(4, 3, 2),
        n_singletons=21,
        length_range=(100, 400),
        divergence=0.2,
        seed_offset=2,
        algo_flags=("--k", "6", "-s", "25", "--ck", "3"),
        dist_flags=(),
        smoke=((2,), 1),
    ),
    Workload(
        name="dist-ck",
        why="4-rank SUMMA at chance-collision density (k=4): ~200k candidate "
            "records, <1% survive CK; form A, SUMMA, comm and pair extraction "
            "weigh as much as align, so record volume can move a number",
        family_sizes=(2, 3, 4, 5, 6) * 7,
        n_singletons=1360,
        length_range=(80, 200),
        divergence=0.2,
        seed_offset=3,
        algo_flags=("--k", "4", "--ck", "3"),
        dist_flags=_MP4,
        smoke=((2, 3, 4), 16),
    ),
    Workload(
        name="dist-subs",
        why="4 ranks with substitutes: form S paid once per rank, the AS / "
            "(AS)AT / sym. stages, greedy balance planning, and the other half "
            "of the align engine (Smith-Waterman, score only, no filter)",
        family_sizes=(8,) * 22,
        n_singletons=0,
        length_range=(80, 250),
        divergence=0.25,
        seed_offset=4,
        algo_flags=("--k", "5", "-s", "10", "--ck", "3", "--align", "sw",
                    "--weight", "ns"),
        dist_flags=_MP4 + ("--align-balance", "greedy"),
        smoke=((4,) * 4, 0),
    ),
)


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """``n`` lengths evenly spread over ``[lo, hi]`` at bin centres, so no
    family sits at the short extreme where it shares too few k-mers."""
    return [int(lo + (hi - lo) * (i + 0.5) / n) for i in range(n)]


def generate(workload: Workload, seed: int) -> FamilyDataset:
    """The workload's input: a pure function of ``(workload, seed)``."""
    gen = np.random.default_rng([seed, workload.seed_offset])
    lo, hi = workload.length_range
    seqs: list[str] = []
    labels: list[int] = []
    lengths = _spread(lo, hi, len(workload.family_sizes))
    for fam, (size, length) in enumerate(zip(workload.family_sizes, lengths)):
        seqs.extend(make_family(size, length, workload.divergence, gen))
        labels.extend([fam] * size)
    for length in _spread(lo, hi, workload.n_singletons):
        seqs.append(random_protein(length, gen))
        labels.append(-1 - len(seqs))  # unique negative label: pairs with nothing
    order = gen.permutation(len(seqs))
    store = SequenceStore(
        [seqs[i] for i in order], [f"s{i}" for i in range(len(order))]
    )
    return FamilyDataset(
        store=store,
        labels=np.asarray([labels[i] for i in order], dtype=np.int64),
        n_families=len(workload.family_sizes),
    )
