"""The overlap stage against an oracle that shares no code with it.

:func:`inverted_index_join` is a set-similarity join in the shape of
py_stringsimjoin's ``InvertedIndex`` + ``OverlapFilter(overlap_size=t)``:
a sequence's distinct k-mers are its tokens, the CK threshold is the
overlap bound, and the ``MAX_SEEDS`` seeds of a pair are read off the
posting lists.  It is plain Python over dicts and strings; the only thing
it takes from the package is ``S`` (``build_s_triples``, checked against
brute force in ``test_substitutes.py``) and the alphabet order.

The hypothesis generator feeds it, the paper's object formulation
(``semiring_oracle``), the pipeline's overlap stage on one rank
(``find_candidate_pairs``) and the same stage on 4- and 9-rank grids, and
all four must agree byte for byte: ids, counts and every seed.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bio.alphabet import PROTEIN_ALPHABET
from repro.bio.sequences import SequenceStore
from repro.core.config import PastisConfig
from repro.core.distributed import STAGES, block_pairs
from repro.core.overlap import (
    CandidatePairs,
    build_s_triples,
    find_candidate_pairs,
)
from repro.core.semirings import MAX_SEEDS
from repro.mpisim import run_spmd
from repro.mpisim.grid import ProcessGrid
from semiring_oracle import find_candidate_pairs_semiring


def _token(kmer: str) -> int:
    """The base-24 id of a k-mer, the first letter most significant."""
    kid = 0
    for ch in kmer:
        kid = kid * len(PROTEIN_ALPHABET) + PROTEIN_ALPHABET.index(ch)
    return kid


def inverted_index_join(seqs, k, t, s_triples=None):
    """``[(lo, hi, count, seeds)]`` for every pair sharing more than ``t``
    (substitute) k-mers, all sharing pairs when ``t`` is ``None``, sorted;
    ``seeds`` are up to ``MAX_SEEDS`` ``(pos_lo, pos_hi, distance)``."""
    tokens = []  # per sequence: distinct k-mer -> its first position
    for seq in seqs:
        first = {}
        for p in range(len(seq) - k + 1):
            first.setdefault(_token(seq[p:p + k]), p)
        tokens.append(first)
    reach = defaultdict(list)  # k-mer -> [(substitute, distance)]
    for kmer, sub, dist in zip(*(s_triples or ((), (), ()))):
        reach[int(kmer)].append((int(sub), int(dist)))
    index = defaultdict(list)  # the inverted index: k-mer -> postings
    for j, first in enumerate(tokens):
        for kmer, q in first.items():
            index[kmer].append((j, q))
    directed = defaultdict(list)  # (probe seq, indexed seq) -> seeds
    for i, first in enumerate(tokens):
        probe = {}  # substitute -> the closest (distance, position)
        for kmer, p in first.items():
            for sub, dist in reach[kmer] if s_triples else [(kmer, 0)]:
                probe[sub] = min(probe.get(sub, (dist, p)), (dist, p))
        for sub, (dist, p) in probe.items():
            for j, q in index[sub]:
                if j != i:
                    directed[i, j].append((dist, p, q))
    out = []
    for (i, j), hits in directed.items():
        # the larger count wins, then the smaller probe-side id
        if i > j and len(directed.get((j, i), ())) >= len(hits):
            continue
        if i < j and len(directed.get((j, i), ())) > len(hits):
            continue
        if t is not None and len(hits) <= t:
            continue
        cut = sorted(hits)[:MAX_SEEDS]
        seeds = sorted((d, p, q) if i < j else (d, q, p) for d, p, q in cut)
        out.append((min(i, j), max(i, j), len(hits),
                    tuple((p, q, d) for d, p, q in seeds)))
    return sorted(out)


def _as_pairs(n, rows) -> CandidatePairs:
    """The oracle's rows in the pipeline's array layout."""
    seeds = np.full((3, len(rows), MAX_SEEDS), -1, dtype=np.int64)
    for r, (_, _, _, row_seeds) in enumerate(rows):
        for s, seed in enumerate(row_seeds):
            seeds[:, r, s] = seed
    ids = np.array([r[:3] for r in rows], dtype=np.int64).reshape(-1, 3)
    return CandidatePairs(n, ids[:, 0], ids[:, 1], ids[:, 2], *seeds)


def _rank_pairs(comm, seqs, cuts, config):
    """One rank's overlap stage: the rank owns ``seqs[cuts[r]:cuts[r+1]]``
    — possibly none — and returns its block's CK survivors."""
    lo, hi = cuts[comm.rank], cuts[comm.rank + 1]
    pairs, _ = block_pairs(
        ProcessGrid.create(comm), SequenceStore(seqs[lo:hi]), len(seqs), lo,
        config, None, dict.fromkeys(STAGES, 0.0),
    )
    return pairs


def _grid_pairs(seqs, config, nranks, cuts) -> CandidatePairs:
    parts = run_spmd(nranks, _rank_pairs, seqs, cuts, config)
    return CandidatePairs(len(seqs), *(
        np.concatenate([getattr(p, f) for p in parts])
        for f in ("ri", "rj", "counts", "seed_pos_i", "seed_pos_j",
                  "seed_dist")
    )).sort()


def _bytes(pairs: CandidatePairs) -> list[bytes]:
    return [np.ascontiguousarray(getattr(pairs, f), dtype=np.int64).tobytes()
            for f in ("ri", "rj", "counts", "seed_pos_i", "seed_pos_j",
                      "seed_dist")]


_residue = st.sampled_from(PROTEIN_ALPHABET)
#: a four-letter alphabet: at k <= 3 most k-mers collide by chance
_narrow = st.sampled_from("AVGW")


@st.composite
def _inputs(draw):
    """A store mixing every shape the overlap stage must survive, with a
    k, an s, a CK threshold and two partitions of the store over 4 and 9
    ranks (a rank may own no sequence)."""
    k = draw(st.integers(1, 4))
    alphabet = draw(st.sampled_from([_residue, _narrow]))
    seqs = draw(st.lists(st.text(alphabet, min_size=1, max_size=40),
                         min_size=1, max_size=5))
    # family members: mutated copies share more than MAX_SEEDS k-mers;
    # unmutated ones are identical sequences (ambiguity codes included)
    for _ in range(draw(st.integers(0, 4))):
        base = list(draw(st.sampled_from(seqs)))
        for _ in range(draw(st.integers(0, 3))):
            base[draw(st.integers(0, len(base) - 1))] = draw(
                st.sampled_from("AXBZ*")
            )
        seqs.append("".join(base))
    if draw(st.booleans()):  # one giant sequence among many tiny ones
        seqs.append(draw(st.text(alphabet, min_size=150, max_size=300)))
        seqs += draw(st.lists(st.text(alphabet, min_size=1, max_size=k),
                              min_size=3, max_size=8))
    seqs = draw(st.permutations(seqs))
    n = len(seqs)

    def cuts(p):
        inner = sorted(draw(st.lists(st.integers(0, n), min_size=p - 1,
                                     max_size=p - 1)))
        return [0, *inner, n]

    return (seqs, k, draw(st.sampled_from([0, 2, 5])),
            draw(st.sampled_from([None, 0, 1, 3])), {4: cuts(4), 9: cuts(9)})


#: A pair sharing three k-mers that a below-diagonal block holds as
#: ``(hi, lo)`` at 4 and 9 ranks: pair (1, 2) of four sequences.  Its two
#: lowest seeds in ``(hi, lo)`` orientation are not the two lowest in
#: ``(lo, hi)``, which is what made ``dist-ck`` differ across rank counts.
_BELOW_DIAGONAL = (
    ["DDDDDD", "WCMAAKEHAAPYF", "PYFGGKEHGGWCM", "RRRRRR"], 3, 0, None,
    {4: [0, 1, 2, 3, 4], 9: [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]},
)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@example(case=_BELOW_DIAGONAL)
@given(case=_inputs())
def test_overlap_equals_inverted_index_oracle(case):
    """Byte for byte: the inverted-index join, the object-semiring
    oracle, the pipeline on one rank and on 4- and 9-rank grids."""
    seqs, k, s, t, cuts = case
    config = PastisConfig(k=k, substitutes=s, common_kmer_threshold=t)
    store = SequenceStore(seqs)
    s_triples = None
    if s:
        present = sorted({_token(seq[p:p + k]) for seq in seqs
                          for p in range(len(seq) - k + 1)})
        s_triples = build_s_triples(np.array(present, dtype=np.int64), k, s,
                                    config.scoring, restrict_to=present)
    want = _bytes(_as_pairs(len(seqs), inverted_index_join(
        [store.sequence(i) for i in range(len(store))], k, t, s_triples
    )))
    assert _bytes(find_candidate_pairs_semiring(
        store, config, s_triples
    ).apply_ck_threshold(t)) == want, "object oracle"
    assert _bytes(find_candidate_pairs(store, config)) == want, "p = 1"
    for nranks, rank_cuts in cuts.items():
        got = _grid_pairs(seqs, config, nranks, rank_cuts)
        assert _bytes(got) == want, f"p = {nranks}"

