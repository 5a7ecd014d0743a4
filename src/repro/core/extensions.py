"""K-mer pre-filtering, from the paper's future-work list (Section VII):
"Another future avenue is to perform an analysis of k-mers in a
pre-processing stage to see whether some of them can be eliminated without
sacrificing recall too much."

:func:`kmer_frequency_analysis` computes the document frequency of every
k-mer; :func:`high_frequency_kmer_filter` drops the most promiscuous ones
(they generate quadratically many candidate pairs while carrying little
evolutionary signal — the same reasoning behind seed masking in
BLAST-family tools).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bio.sequences import SequenceStore
from .config import PastisConfig
from .overlap import (
    CandidatePairs,
    build_a_triples,
    candidate_pairs_from_triples,
)

__all__ = [
    "kmer_frequency_analysis",
    "high_frequency_kmer_filter",
    "KmerFrequencyReport",
]


@dataclass(frozen=True)
class KmerFrequencyReport:
    """Document frequencies of the k-mers of a store.

    ``kmer_ids``/``frequencies`` are aligned arrays sorted by descending
    frequency; ``pair_work[i]`` is ``f*(f-1)/2`` — the candidate pairs the
    k-mer alone would generate.
    """

    kmer_ids: np.ndarray
    frequencies: np.ndarray

    @property
    def pair_work(self) -> np.ndarray:
        f = self.frequencies
        return f * (f - 1) // 2

    def top(self, n: int) -> list[tuple[int, int]]:
        return [
            (int(k), int(f))
            for k, f in zip(self.kmer_ids[:n], self.frequencies[:n])
        ]

    def cutoff_for_fraction(self, work_fraction: float) -> int:
        """Smallest frequency threshold removing at least ``work_fraction``
        of the total candidate-pair work."""
        if not 0 < work_fraction <= 1:
            raise ValueError("work_fraction must be in (0, 1]")
        work = self.pair_work
        total = work.sum()
        if total == 0:
            return int(self.frequencies[0]) + 1 if len(work) else 1
        cum = np.cumsum(work)
        idx = int(np.searchsorted(cum, work_fraction * total))
        idx = min(idx, len(work) - 1)
        return int(self.frequencies[idx])


def kmer_frequency_analysis(
    store: SequenceStore, k: int
) -> KmerFrequencyReport:
    """Per-k-mer document frequency (number of sequences containing it)."""
    _, cols, _ = build_a_triples(store, k)
    if len(cols) == 0:
        z = np.empty(0, dtype=np.int64)
        return KmerFrequencyReport(z, z.copy())
    ids, freqs = np.unique(cols, return_counts=True)
    order = np.argsort(freqs)[::-1]
    return KmerFrequencyReport(ids[order], freqs[order].astype(np.int64))


def high_frequency_kmer_filter(
    store: SequenceStore,
    config: PastisConfig,
    max_frequency: int,
) -> CandidatePairs:
    """Overlap detection with promiscuous k-mers removed.

    K-mers occurring in more than ``max_frequency`` sequences are dropped
    from ``A`` (and from the substitute expansion) before the pair search.
    Returns the filtered candidate pairs; the recall cost can be evaluated
    against :func:`~repro.core.overlap.find_candidate_pairs`.
    """
    if max_frequency < 1:
        raise ValueError("max_frequency must be at least 1")
    report = kmer_frequency_analysis(store, config.k)
    banned = report.kmer_ids[report.frequencies > max_frequency]
    banned = np.sort(banned)

    rows, cols, pos = build_a_triples(store, config.k)
    if len(banned):
        idx = np.searchsorted(banned, cols)
        idx = np.clip(idx, 0, len(banned) - 1)
        keep = banned[idx] != cols
        rows, cols, pos = rows[keep], cols[keep], pos[keep]

    # S is rebuilt from the surviving k-mers, so banned ones drop out of
    # the substitute expansion on both sides
    return candidate_pairs_from_triples(len(store), rows, cols, pos, config)
