"""Tests for PASTIS's custom semirings and their value types."""

import numpy as np
import pytest

from repro.bio.scoring import BLOSUM62, ScoringMatrix
from repro.core.config import ConfigError, PastisConfig
from repro.core.semirings import (
    CK_DIST_LIMIT,
    MAX_SEEDS,
    CommonKmers,
    SeedHit,
    ck_flip_records,
    common_kmers_to_records,
    exact_overlap_semiring,
    merge_common_kmers,
    records_to_common_kmers,
    substitute_as_semiring,
    substitute_overlap_semiring,
)


class TestCommonKmers:
    def test_merge_counts_add(self):
        a = CommonKmers(2, ((0, 1, 0), (5, 6, 0)))
        b = CommonKmers(3, ((2, 3, 0),))
        assert a.merge(b).count == 5

    def test_merge_keeps_max_seeds(self):
        a = CommonKmers(1, ((0, 0, 5),))
        b = CommonKmers(1, ((1, 1, 2),))
        c = CommonKmers(1, ((2, 2, 8),))
        m = a.merge(b).merge(c)
        assert len(m.seeds) == MAX_SEEDS
        assert [s[2] for s in m.seeds] == [2, 5]  # lowest distances win

    def test_merge_canonical_order_associative(self):
        # incremental merging must equal global top-2 under the total order
        seeds = [CommonKmers(1, ((i, 10 - i, i % 3),)) for i in range(6)]
        left = seeds[0]
        for s in seeds[1:]:
            left = left.merge(s)
        right = seeds[-1]
        for s in reversed(seeds[:-1]):
            right = s.merge(right)
        assert left.seeds == right.seeds
        assert left.count == right.count

    def test_flip(self):
        ck = CommonKmers(2, ((1, 9, 0), (3, 7, 2)))
        f = ck.flip()
        assert f.count == 2
        assert set(f.seeds) == {(9, 1, 0), (7, 3, 2)}

    def test_flip_resorts_canonically(self):
        ck = CommonKmers(2, ((1, 9, 0), (2, 0, 0)))
        f = ck.flip()
        assert f.seeds == ((0, 2, 0), (9, 1, 0))

    def test_flip_reorders_on_distance_ties(self):
        # the PR 1 divergence: equal-distance seeds must be re-sorted by
        # the *new* (pos_row, pos_col) after the swap — a flip is not a
        # per-seed map, it changes which seed comes first
        ck = CommonKmers(2, ((2, 9, 1), (5, 1, 1)))
        f = ck.flip()
        assert f.seeds == ((1, 5, 1), (9, 2, 1))
        # flipping twice restores the original (the order is canonical
        # on both sides)
        assert f.flip() == ck

    def test_flip_struct_records_match_scalar(self):
        cks = [
            CommonKmers(2, ((2, 9, 1), (5, 1, 1))),  # distance-tie reorder
            CommonKmers(2, ((1, 9, 0), (2, 0, 0))),
            CommonKmers(1, ((7, 3, 2),)),            # single seed
            CommonKmers(3, ()),                       # no seeds
        ]
        flipped = records_to_common_kmers(
            ck_flip_records(common_kmers_to_records(cks))
        )
        assert list(flipped) == [ck.flip() for ck in cks]


class TestSemirings:
    def test_exact_multiply(self):
        sr = exact_overlap_semiring()
        v = sr.multiply(4, 7)
        assert isinstance(v, CommonKmers)
        assert v.count == 1
        assert v.seeds == ((4, 7, 0),)

    def test_exact_add_is_merge(self):
        sr = exact_overlap_semiring()
        a = sr.multiply(4, 7)
        b = sr.multiply(1, 2)
        assert sr.add(a, b).count == 2

    def test_as_multiply(self):
        sr = substitute_as_semiring()
        hit = sr.multiply(5, 3)
        assert hit == SeedHit(5, 3)

    def test_as_add_prefers_closer(self):
        sr = substitute_as_semiring()
        near = SeedHit(10, 1)
        far = SeedHit(2, 8)
        assert sr.add(near, far) == near
        assert sr.add(far, near) == near

    def test_as_add_tie_breaks_on_position(self):
        sr = substitute_as_semiring()
        a = SeedHit(10, 3)
        b = SeedHit(4, 3)
        assert sr.add(a, b) == b

    def test_substitute_overlap_multiply(self):
        sr = substitute_overlap_semiring()
        v = sr.multiply(SeedHit(5, 3), 9)
        assert v.count == 1
        assert v.seeds == ((5, 9, 3),)

    def test_merge_function_matches_method(self):
        a = CommonKmers(1, ((0, 0, 1),))
        b = CommonKmers(1, ((1, 1, 0),))
        assert merge_common_kmers(a, b) == a.merge(b)


class TestConfig:
    def test_defaults_follow_paper(self):
        cfg = PastisConfig()
        assert cfg.k == 6
        assert cfg.gap_open == 11
        assert cfg.gap_extend == 1
        assert cfg.xdrop == 49
        assert cfg.min_identity == 0.30
        assert cfg.min_coverage == 0.70

    def test_variant_names(self):
        assert PastisConfig(align_mode="sw").variant_name == "PASTIS-SW-s0"
        assert (
            PastisConfig(align_mode="xd", substitutes=25,
                         common_kmer_threshold=3).variant_name
            == "PASTIS-XD-s25-CK"
        )

    def test_default_ck(self):
        assert PastisConfig().default_ck().common_kmer_threshold == 1
        assert (
            PastisConfig(substitutes=25).default_ck().common_kmer_threshold
            == 3
        )

    def test_uses_filter(self):
        assert PastisConfig(weight="ani").uses_filter
        assert not PastisConfig(weight="ns").uses_filter

    def test_validation(self):
        with pytest.raises(ValueError):
            PastisConfig(align_mode="blast")
        with pytest.raises(ValueError):
            PastisConfig(weight="bitscore")
        with pytest.raises(ValueError):
            PastisConfig(k=0)
        with pytest.raises(ValueError):
            PastisConfig(substitutes=-1)
        with pytest.raises(ValueError):
            PastisConfig(common_kmer_threshold=-2)
        for knob in ("gap_open", "gap_extend", "xdrop"):
            with pytest.raises(ValueError, match=f"{knob} must be non-neg"):
                PastisConfig(**{knob: -1})
            assert getattr(PastisConfig(**{knob: 0}), knob) == 0
        for knob in ("min_identity", "min_coverage"):
            for bad in (-0.01, 1.01, 7):
                with pytest.raises(ValueError, match=f"{knob} must be a"):
                    PastisConfig(**{knob: bad})
            assert getattr(PastisConfig(**{knob: 1.0}), knob) == 1.0


class TestSeedPackIsTotal:
    """Every distance the pipeline accepts fits the CommonKmers seed pack:
    the config bounds a k-mer's expense, and an injected ``S`` is checked
    by the driver — each a named error before any rank is spawned."""

    @staticmethod
    def _costly(diag: int) -> ScoringMatrix:
        m = BLOSUM62.matrix.copy()
        m[0, 0] = diag  # substituting A now costs about ``diag``
        return ScoringMatrix("costly", m)

    def test_config_bounds_the_kmer_expense(self):
        lim = int(CK_DIST_LIMIT)
        # k = 6: 6 x (200 000 + 4) stays below the bound; k = 13 does not
        PastisConfig(k=6, scoring=self._costly(200_000))
        with pytest.raises(ConfigError, match=f"below {lim}"):
            PastisConfig(k=13, scoring=self._costly(200_000))
        with pytest.raises(ConfigError, match="'costly'"):
            PastisConfig(k=1, scoring=self._costly(lim))

    @pytest.mark.parametrize("dist", [int(CK_DIST_LIMIT),
                                      -int(CK_DIST_LIMIT)])
    def test_injected_s_out_of_the_pack_raises_before_spawning(
            self, monkeypatch, dist):
        from repro.bio.sequences import SequenceStore
        from repro.core import distributed
        from repro.core.overlap import find_candidate_pairs
        from repro.mpisim import backend

        def never(*_args, **_kwargs):
            raise AssertionError("a rank was spawned")

        monkeypatch.setattr(distributed, "run_spmd", never)
        monkeypatch.setattr(backend, "run_spmd", never)
        store = SequenceStore(["AVGDMKAVG", "AVGDMRAVG"])
        s_triples = (np.array([0, 1]), np.array([1, 0]),
                     np.array([0, dist]))
        cfg = PastisConfig(k=3, substitutes=1)
        for nranks in (1, 4):
            with pytest.raises(ValueError, match="seed distance"):
                distributed.run_pastis_distributed(
                    store, cfg, nranks=nranks, s_triples=s_triples
                )
        with pytest.raises(ValueError, match="seed distance"):
            find_candidate_pairs(store, cfg, s_triples)
