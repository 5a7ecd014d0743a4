"""Tests for PASTIS's semirings, their value types and the seed pack:
the paper's object values (the tests' oracle) and the packed int64 seeds
the pipeline carries."""

import numpy as np
import pytest

from repro.bio.scoring import BLOSUM62, ScoringMatrix
from repro.core.config import ConfigError, PastisConfig
from repro.core.overlap import orient_seeds
from repro.core.semirings import (
    CK_DIST_LIMIT,
    CK_SEED_NONE,
    MAX_SEEDS,
    pack_seeds,
    unpack_seeds,
)
from semiring_oracle import (
    CommonKmers,
    SeedHit,
    exact_overlap_semiring,
    merge_common_kmers,
    substitute_as_semiring,
    substitute_overlap_semiring,
)


def _packed_rows(cks) -> np.ndarray:
    """The seeds of each :class:`CommonKmers` as one packed row, padded
    with the sentinel — the pipeline's representation."""
    out = np.full((len(cks), MAX_SEEDS), CK_SEED_NONE, dtype=np.int64)
    for p, ck in enumerate(cks):
        for s, seed in enumerate(ck.seeds):
            out[p, s] = pack_seeds(*seed)
    return out


def _seed_tuples(row) -> tuple:
    return tuple(
        tuple(int(x) for x in unpack_seeds(v)) for v in row
        if v != CK_SEED_NONE
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

    def test_orient_seeds_matches_scalar_flip(self):
        """The pipeline's vectorized flip of packed seed rows (a
        mirror-won pair, or a pair held as ``(hi, lo)``) equals
        :meth:`CommonKmers.flip`, and leaves unselected rows alone."""
        cks = [
            CommonKmers(2, ((2, 9, 1), (5, 1, 1))),  # distance-tie reorder
            CommonKmers(2, ((1, 9, 0), (2, 0, 0))),
            CommonKmers(1, ((7, 3, 2),)),            # single seed
            CommonKmers(3, ()),                       # no seeds
        ]
        rows = _packed_rows(cks)
        flipped = orient_seeds(rows, np.ones(len(cks), dtype=bool))
        assert [_seed_tuples(r) for r in flipped] == [
            ck.flip().seeds for ck in cks
        ]
        kept = orient_seeds(rows, np.zeros(len(cks), dtype=bool))
        assert kept.tobytes() == rows.tobytes()


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


#: The packable distance range, ``(-CK_DIST_LIMIT, CK_DIST_LIMIT)``.
_DIST = (2 - (1 << 21), (1 << 21) - 1)


class TestSeedPacking:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        pi = rng.integers(0, 1 << 21, 100)
        pj = rng.integers(0, 1 << 21, 100)
        d = rng.integers(*_DIST, 100)
        # the four corners of the pack, both distance signs
        pi = np.append(pi, [0, (1 << 21) - 1, 0, (1 << 21) - 1])
        pj = np.append(pj, [0, (1 << 21) - 1, 0, (1 << 21) - 1])
        d = np.append(d, [_DIST[0], _DIST[0], _DIST[1] - 1, _DIST[1] - 1])
        packed = pack_seeds(pi, pj, d)
        assert (packed < CK_SEED_NONE).all()
        ri, rj, rd = unpack_seeds(packed)
        assert (ri == pi).all() and (rj == pj).all() and (rd == d).all()

    def test_integer_order_is_canonical_seed_order(self):
        rng = np.random.default_rng(1)
        pi = rng.integers(0, 50, 200)
        pj = rng.integers(0, 50, 200)
        d = rng.integers(-3, 4, 200)
        packed = pack_seeds(pi, pj, d)
        order = np.argsort(packed, kind="stable")
        ref = np.lexsort((pj, pi, d))
        assert (order == ref).all()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_seeds(np.array([1 << 21]), np.array([0]), np.array([0]))
        with pytest.raises(ValueError):
            pack_seeds(np.array([0]), np.array([-1]), np.array([0]))
        for d in (_DIST[0] - 1, _DIST[1]):
            with pytest.raises(ValueError, match="distance"):
                pack_seeds(np.array([0]), np.array([0]), np.array([d]))

    def test_sentinel_value_is_unreachable(self):
        """Regression: the all-max triple used to pack to exactly int64
        max == CK_SEED_NONE, silently vanishing a boundary seed.  The
        distance bound now reserves the sentinel."""
        lim = (1 << 21) - 1
        with pytest.raises(ValueError, match="distance"):
            pack_seeds(np.array([lim]), np.array([lim]), np.array([lim]))
        # the true maximal packable seed survives a full roundtrip
        ck = CommonKmers(1, ((lim, lim, lim - 1),))
        assert _seed_tuples(_packed_rows([ck])[0]) == ck.seeds
        assert int(pack_seeds(lim, lim, lim - 1)) < int(CK_SEED_NONE)


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


def _s_triples(rows=(0, 1), cols=(1, 0), dists=(0, 2)):
    return tuple(np.array(x) for x in (rows, cols, dists))


class TestInjectedSIsChecked:
    """An injected ``S`` is validated whole before any rank starts: three
    equal-length 1-D integer arrays, both ids in ``[0, 24^k)``, distances
    inside the seed pack.  Before, only the distances were checked — a
    substitute id past the k-mer space failed inside a rank, a root id of
    -1 was silently ignored and arrays of unequal length raised an
    IndexError from a rank."""

    K = 3

    @pytest.mark.parametrize("s_triples,message", [
        (_s_triples(cols=(1, 24 ** 3 + 5)),
         r"substitute id outside \[0, 24\^3\)"),
        (_s_triples(rows=(-1, 1)), r"k-mer id outside \[0, 24\^3\)"),
        (_s_triples(dists=(0, 2, 3)), "unequal length"),
        (_s_triples(dists=(0.0, 2.5)), "1-D of integers"),
        (_s_triples(rows=((0, 1), (1, 0))), "1-D of integers"),
        (_s_triples()[:2], "expected 3 arrays"),
        (_s_triples(dists=(0, int(CK_DIST_LIMIT))), "seed distance"),
    ], ids=["substitute-id", "root-id", "lengths", "float", "2-d", "arity",
            "distance"])
    def test_bad_triples_raise_before_spawning(self, monkeypatch, s_triples,
                                               message):
        from repro.bio.sequences import SequenceStore
        from repro.core import distributed
        from repro.core.overlap import find_candidate_pairs
        from repro.mpisim import backend

        def never(*_args, **_kwargs):
            raise AssertionError("a rank was spawned")

        monkeypatch.setattr(distributed, "run_spmd", never)
        monkeypatch.setattr(backend, "run_spmd", never)
        store = SequenceStore(["AVGDMKAVG", "AVGDMRAVG"])
        cfg = PastisConfig(k=self.K, substitutes=1)
        seen = set()
        for nranks in (1, 4):
            with pytest.raises(ValueError, match=message) as err:
                distributed.run_pastis_distributed(
                    store, cfg, nranks=nranks, s_triples=s_triples
                )
            seen.add(str(err.value))
        with pytest.raises(ValueError, match=message) as err:
            find_candidate_pairs(store, cfg, s_triples)
        seen.add(str(err.value))
        assert len(seen) == 1, seen  # one message at every rank count

    def test_well_formed_triples_pass(self):
        from repro.core.overlap import check_s_triples

        check_s_triples(_s_triples(), self.K)
        check_s_triples(_s_triples(rows=(0, 24 ** 3 - 1)), self.K)
        check_s_triples(([], [], []), self.K)
