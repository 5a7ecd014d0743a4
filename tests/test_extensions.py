"""Tests for the future-work extension: k-mer pre-filtering."""

from dataclasses import fields

import numpy as np
import pytest

from repro.bio.generate import scope_like
from repro.bio.sequences import SequenceStore
from repro.core.config import PastisConfig
from repro.core.extensions import (
    high_frequency_kmer_filter,
    kmer_frequency_analysis,
)
from repro.core.overlap import find_candidate_pairs


@pytest.fixture(scope="module")
def data():
    return scope_like(
        n_families=4, members_per_family=(3, 4), length_range=(50, 90),
        divergence=0.2, seed=55,
    )


class TestKmerFrequency:
    def test_frequencies_descending(self, data):
        rep = kmer_frequency_analysis(data.store, 4)
        assert (np.diff(rep.frequencies) <= 0).all()

    def test_known_frequencies(self):
        store = SequenceStore(["AVGW", "AVGP", "AVGY", "WWWW"])
        rep = kmer_frequency_analysis(store, 3)
        from repro.kmers.encoding import kmer_id_from_string

        top_id, top_f = rep.top(1)[0]
        assert top_id == kmer_id_from_string("AVG")
        assert top_f == 3

    def test_pair_work(self):
        store = SequenceStore(["AVGW", "AVGP", "AVGY", "WWWW"])
        rep = kmer_frequency_analysis(store, 3)
        # AVG appears in 3 sequences -> 3 candidate pairs from it alone
        assert rep.pair_work[0] == 3

    def test_cutoff_for_fraction(self, data):
        rep = kmer_frequency_analysis(data.store, 4)
        cut = rep.cutoff_for_fraction(0.5)
        assert cut >= 1
        with pytest.raises(ValueError):
            rep.cutoff_for_fraction(0.0)

    def test_empty_store(self):
        rep = kmer_frequency_analysis(SequenceStore(["AV"]), 4)
        assert len(rep.kmer_ids) == 0


class TestHighFrequencyFilter:
    def test_huge_threshold_is_identity(self, data):
        """Nothing banned: the filter runs the same triples through the
        same entry as find_candidate_pairs, so all arrays are equal —
        with substitutes too (the inlined join it replaced summed both
        directions' counts there)."""
        for subs in (0, 3):
            cfg = PastisConfig(k=4, substitutes=subs)
            base = find_candidate_pairs(data.store, cfg)
            filt = high_frequency_kmer_filter(data.store, cfg, 10**6)
            for f in fields(base):
                assert np.array_equal(
                    getattr(filt, f.name), getattr(base, f.name)
                ), f"{f.name} differs at substitutes={subs}"

    def test_filter_reduces_candidates(self, data):
        cfg = PastisConfig(k=4, substitutes=0)
        base = find_candidate_pairs(data.store, cfg)
        filt = high_frequency_kmer_filter(data.store, cfg, 2)
        assert filt.npairs <= base.npairs
        assert filt.pair_set() <= base.pair_set()

    def test_counts_never_increase(self, data):
        cfg = PastisConfig(k=4, substitutes=0)
        base = find_candidate_pairs(data.store, cfg).sort()
        filt = high_frequency_kmer_filter(data.store, cfg, 3).sort()
        bd = {(int(i), int(j)): int(c)
              for i, j, c in zip(base.ri, base.rj, base.counts)}
        for i, j, c in zip(filt.ri, filt.rj, filt.counts):
            assert int(c) <= bd[(int(i), int(j))]

    def test_substitute_mode_runs(self, data):
        cfg = PastisConfig(k=4, substitutes=3)
        filt = high_frequency_kmer_filter(data.store, cfg, 3)
        base = find_candidate_pairs(data.store, cfg)
        assert filt.pair_set() <= base.pair_set()

    def test_moderate_threshold_keeps_most_recall(self, data):
        # dropping only the most promiscuous k-mers must preserve the bulk
        # of the true-pair candidates (the future-work hypothesis)
        cfg = PastisConfig(k=4, substitutes=0)
        base = find_candidate_pairs(data.store, cfg)
        rep = kmer_frequency_analysis(data.store, cfg.k)
        thr = max(int(rep.frequencies[0]) - 1, 2)
        filt = high_frequency_kmer_filter(data.store, cfg, thr)
        true = data.true_pairs()
        base_hits = len(base.pair_set() & true)
        filt_hits = len(filt.pair_set() & true)
        assert filt_hits >= 0.8 * base_hits

    def test_invalid_threshold(self, data):
        with pytest.raises(ValueError):
            high_frequency_kmer_filter(
                data.store, PastisConfig(k=4), 0
            )
