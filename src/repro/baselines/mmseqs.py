"""MMseqs2-like baseline (Steinegger & Söding 2017; paper Section III).

The algorithmic skeleton of the published prefilter and alignment stages:

1. index every target k-mer;
2. for each query k-mer, generate *similar k-mers* — all k-mers whose
   substitution score against it stays within a budget controlled by the
   sensitivity parameter ``s`` (the paper sweeps 1 / 5.7 / 7.5);
3. a target becomes a candidate only when **two** similar-k-mer hits fall on
   the **same diagonal** (the double-hit heuristic that keeps chance matches
   out);
4. an ungapped alignment runs on the best diagonal; only if its score
   passes a threshold is the gapped (Smith-Waterman) alignment performed;
5. the PASTIS-compatible similarity filter yields the graph.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..align.smith_waterman import smith_waterman
from ..align.stats import passes_filter
from ..align.ungapped import ungapped_align
from ..bio.scoring import BLOSUM62, ScoringMatrix
from ..bio.sequences import SequenceStore
from ..core.graph import SimilarityGraph
from ..kmers.extraction import sequence_kmers
from ..kmers.substitutes import substitute_kmer_ids
from ..kmers.encoding import decode_kmer, encode_kmer

__all__ = ["MMseqsConfig", "mmseqs_search", "similar_kmers"]


@dataclass(frozen=True)
class MMseqsConfig:
    """MMseqs2-like parameters.

    ``sensitivity`` maps to the similar-k-mer distance budget (how far a
    k-mer may score below an exact self-match and still be generated):
    higher sensitivity -> larger budget -> more candidate pairs -> slower
    but more sensitive, the trade-off of the paper's s parameter.
    """

    k: int = 6
    sensitivity: float = 5.7
    max_similar: int = 60
    ungapped_xdrop: int = 20
    ungapped_min_score: int = 15
    scoring: ScoringMatrix = BLOSUM62
    gap_open: int = 11
    gap_extend: int = 1
    min_identity: float = 0.30
    min_coverage: float = 0.70
    weight: str = "ani"

    @property
    def distance_budget(self) -> int:
        """Similar-k-mer expense budget derived from sensitivity."""
        return int(round(2.0 * self.sensitivity))


def similar_kmers(
    kmer: np.ndarray, config: MMseqsConfig
) -> list[tuple[int, int]]:
    """``(kmer id, distance)`` of the k-mer itself plus every similar k-mer
    within the sensitivity budget (capped at ``max_similar``)."""
    kid = encode_kmer(np.asarray(kmer, dtype=np.int64))
    out = [(kid, 0)]
    if config.distance_budget <= 0:
        return out
    for sid, distance in substitute_kmer_ids(
        kid, len(kmer), config.max_similar, scoring=config.scoring
    ):
        if distance > config.distance_budget:
            break
        out.append((sid, distance))
    return out


def mmseqs_search(
    store: SequenceStore,
    config: MMseqsConfig | None = None,
) -> SimilarityGraph:
    """Many-against-many search over a store; returns the similarity graph.

    ``meta`` records stage times (index/prefilter/align) and the candidate
    counts after the double-hit and ungapped gates — the quantities that
    explain the sensitivity/runtime trade-off.
    """
    config = config or MMseqsConfig()
    k = config.k

    t0 = time.perf_counter()
    index: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for i in range(len(store)):
        ids, pos = sequence_kmers(store.encoded(i), k)
        for kid, p in zip(ids.tolist(), pos.tolist()):
            index[kid].append((i, p))
    t_index = time.perf_counter() - t0

    t0 = time.perf_counter()
    # (query, target) -> {diagonal: hit count}; track one seed per diagonal
    diag_hits: dict[tuple[int, int], dict[int, list[tuple[int, int]]]] = (
        defaultdict(lambda: defaultdict(list))
    )
    similar_cache: dict[int, list[tuple[int, int]]] = {}
    for q in range(len(store)):
        enc = store.encoded(q)
        ids, pos = sequence_kmers(enc, k)
        for kid, p in zip(ids.tolist(), pos.tolist()):
            sims = similar_cache.get(kid)
            if sims is None:
                sims = similar_kmers(decode_kmer(kid, k), config)
                similar_cache[kid] = sims
            for skid, _dist in sims:
                for tgt, tpos in index.get(skid, ()):
                    if tgt <= q:
                        continue  # each unordered pair handled once
                    diag = p - tpos
                    hits = diag_hits[(q, tgt)][diag]
                    if len(hits) < 2:
                        hits.append((p, tpos))
    # double-hit gate: some diagonal with at least two hits
    candidates: list[tuple[int, int, tuple[int, int]]] = []
    for (q, tgt), diags in diag_hits.items():
        best_seed = None
        for diag, hits in diags.items():
            if len(hits) >= 2:
                seed = hits[0]
                if best_seed is None or seed < best_seed:
                    best_seed = seed
        if best_seed is not None:
            candidates.append((q, tgt, best_seed))
    double_hit_pairs = len(candidates)
    t_prefilter = time.perf_counter() - t0

    t0 = time.perf_counter()
    edges = []
    gapped = 0
    for q, tgt, (qp, tp) in sorted(candidates):
        a, b = store.encoded(q), store.encoded(tgt)
        qp = min(qp, len(a) - k)
        tp = min(tp, len(b) - k)
        ung = ungapped_align(
            a, b, qp, tp, k, config.ungapped_xdrop, config.scoring
        )
        if ung.score < config.ungapped_min_score:
            continue
        gapped += 1
        res = smith_waterman(
            a, b, config.scoring, config.gap_open, config.gap_extend
        )
        if config.weight == "ani":
            if not passes_filter(res, config.min_identity,
                                 config.min_coverage):
                continue
            w = res.identity
        else:
            w = res.normalized_score
        if w > 0:
            edges.append((q, tgt, w))
    t_align = time.perf_counter() - t0

    graph = SimilarityGraph.from_edges(len(store), edges,
                                       ids=list(store.ids))
    graph.meta.update(
        tool="MMseqs2-like",
        sensitivity=config.sensitivity,
        index_seconds=t_index,
        prefilter_seconds=t_prefilter,
        align_seconds=t_align,
        double_hit_pairs=double_hit_pairs,
        gapped_alignments=gapped,
    )
    return graph
