"""Cross-validation of the batched wavefront engine against the per-pair
reference, plus the alignment-stage bugfix regressions.

The ``align_engine`` knob's contract: the batched engine must produce
*byte-identical* ``AlignmentResult``s to mapping ``align_pair`` over the
batch — across modes, weights (traceback on/off), ragged lengths, seed
counts, scoring/gap parameters, chunk compositions and lane dtypes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import engine
from repro.align.batch import AlignmentTask, align_batch
from repro.align.engine import GAP_LIMIT, sw_batch, xdrop_extend_batch
from repro.align.smith_waterman import (
    smith_waterman,
    sw_reference,
    sw_score_only,
)
from repro.align.stats import AlignmentResult, passes_filter
from repro.align.xdrop import xdrop_extend
from repro.bio.alphabet import PROTEIN_ALPHABET, encode_sequence
from repro.bio.generate import mutate, random_protein, scope_like
from repro.bio.scoring import BLOSUM45, BLOSUM62, PAM250, ScoringMatrix
from repro.core.config import ConfigError, PastisConfig
from repro.core.distributed import run_pastis_distributed
from repro.core.pipeline import pastis_pipeline

prot = st.text(alphabet=PROTEIN_ALPHABET[:20], min_size=0, max_size=40)


def _random_tasks(seed, n_tasks=40, max_len=90, min_seeds=1, max_seeds=2):
    """Ragged related/unrelated pairs with random (even out-of-range) seed
    positions; includes empty and sub-k sequences."""
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n_tasks):
        n = int(rng.integers(0, max_len))
        a = encode_sequence(random_protein(n, rng)) if n else np.empty(
            0, dtype=np.int8
        )
        if rng.random() < 0.6 and n:
            b = encode_sequence(mutate(random_protein(n, rng), 0.2, 0.05,
                                       rng))
        else:
            m = int(rng.integers(0, max_len))
            b = encode_sequence(random_protein(m, rng)) if m else np.empty(
                0, dtype=np.int8
            )
        nseeds = int(rng.integers(min_seeds, max_seeds + 1))
        seeds = tuple(
            (int(rng.integers(-5, max(len(a), 1) + 5)),
             int(rng.integers(-5, max(len(b), 1) + 5)))
            for _ in range(nseeds)
        )
        tasks.append(AlignmentTask(a=a, b=b, seeds=seeds, pair=(i, i + 1)))
    return tasks


PARAMS = [
    pytest.param(BLOSUM62, 11, 1, 49, id="paper-defaults"),
    pytest.param(BLOSUM62, 5, 2, 10, id="tight-xdrop"),
    pytest.param(BLOSUM45, 2, 1, 3, id="blosum45-tiny-xdrop"),
    pytest.param(PAM250, 13, 3, 120, id="pam250-wide"),
    pytest.param(BLOSUM62, 60, 1, 49, id="open-exceeds-xdrop"),
    pytest.param(BLOSUM62, 3, 4, 0, id="zero-xdrop"),
]


class TestCrossValidation:
    @pytest.mark.parametrize("scoring,go,ge,xd", PARAMS)
    @pytest.mark.parametrize("k", [3, 6])
    def test_xd_mode(self, scoring, go, ge, xd, k):
        tasks = _random_tasks(seed=go * 100 + ge * 10 + k)
        # with traceback (ANI) and score-only (NS)
        for traceback in (True, False):
            ref = align_batch(tasks, "xd", k, scoring, go, ge, xd,
                              traceback=traceback, engine="python")
            got = align_batch(tasks, "xd", k, scoring, go, ge, xd,
                              traceback=traceback, engine="batched")
            assert got == ref, traceback

    @pytest.mark.parametrize("scoring,go,ge,xd", PARAMS)
    @pytest.mark.parametrize("traceback", [True, False],
                             ids=["ani-traceback", "ns-score-only"])
    def test_sw_mode(self, scoring, go, ge, xd, traceback):
        tasks = _random_tasks(seed=go * 7 + ge)
        ref = align_batch(tasks, "sw", 6, scoring, go, ge, xd,
                          traceback=traceback, engine="python")
        got = align_batch(tasks, "sw", 6, scoring, go, ge, xd,
                          traceback=traceback, engine="batched")
        assert got == ref

    def test_xdrop_extend_lanes_match_reference(self):
        rng = np.random.default_rng(5)
        pairs = []
        for _ in range(60):
            n, m = int(rng.integers(0, 70)), int(rng.integers(0, 70))
            pairs.append((
                encode_sequence(random_protein(n, rng)) if n else
                np.empty(0, dtype=np.int8),
                encode_sequence(random_protein(m, rng)) if m else
                np.empty(0, dtype=np.int8),
            ))
        got = xdrop_extend_batch(pairs, 25)
        for (a, b), res in zip(pairs, got):
            assert res == xdrop_extend(a, b, 25)

    def test_sw_lanes_match_reference(self):
        rng = np.random.default_rng(6)
        pairs = []
        for _ in range(40):
            s = random_protein(int(rng.integers(1, 120)), rng)
            pairs.append((
                encode_sequence(s),
                encode_sequence(mutate(s, 0.3, 0.1, rng)),
            ))
        for tb in (True, False):
            got = sw_batch(pairs, traceback=tb)
            for (a, b), res in zip(pairs, got):
                assert res == smith_waterman(a, b, traceback=tb)

    def test_gap_open_zero_falls_back_consistently(self):
        # the wavefront's prefix-scan derivation needs open >= 1; the
        # dispatcher must still produce reference results for open == 0
        tasks = _random_tasks(seed=3, n_tasks=10, max_len=30)
        ref = align_batch(tasks, "xd", 4, gap_open=0, engine="python")
        got = align_batch(tasks, "xd", 4, gap_open=0, engine="batched")
        assert got == ref

    def test_zero_seeds_raises_in_both_engines(self):
        t = AlignmentTask(a=encode_sequence("AVGDMI"),
                          b=encode_sequence("AVGDMI"), seeds=())
        for engine in ("python", "batched"):
            with pytest.raises(ValueError, match="at least one seed"):
                align_batch([t], "xd", k=3, engine=engine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            align_batch([], "sw", k=3, engine="simd")

    def test_empty_batch(self):
        assert align_batch([], "xd", k=6, engine="batched") == []

    @settings(max_examples=40, deadline=None)
    @given(prot, prot, st.integers(1, 15), st.integers(0, 4))
    def test_property_sw_score_only_matches_oracle(self, sa, sb, go, ge):
        """sw_score_only (the NS lane's scorer) against the textbook
        cell-by-cell Gotoh oracle, across gap parameters."""
        a, b = encode_sequence(sa), encode_sequence(sb)
        assert (
            sw_score_only(a, b, gap_open=go, gap_extend=ge)
            == sw_reference(a, b, gap_open=go, gap_extend=ge)
        )

    @settings(max_examples=25, deadline=None)
    @given(prot, prot, st.integers(1, 12), st.integers(0, 3),
           st.integers(0, 60))
    def test_property_batched_xdrop_matches_reference(self, sa, sb, go, ge,
                                                      xd):
        a, b = encode_sequence(sa), encode_sequence(sb)
        assert xdrop_extend_batch([(a, b)], xd, BLOSUM62, go, ge)[0] == (
            xdrop_extend(a, b, xd, BLOSUM62, go, ge)
        )


@st.composite
def _indel_pair(draw):
    """``(a, b)`` with ``b`` built from ``a`` by inserting or deleting runs
    of up to 60 residues; sometimes swapped, so the gap runs down rows."""
    residues = PROTEIN_ALPHABET[:20]
    a = draw(st.text(alphabet=residues, min_size=1, max_size=60))
    b = a
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(b)))
        run = draw(st.integers(1, 60))
        if draw(st.booleans()):
            ins = draw(st.text(alphabet=residues, min_size=run, max_size=run))
            b = b[:pos] + ins + b[pos:]
        else:
            b = b[:pos] + b[pos + run:]
    if draw(st.booleans()):
        a, b = b, a
    return encode_sequence(a), encode_sequence(b)


class TestXdropCorridor:
    """Lanes whose corridors drift differently share one chunk's window;
    gap chains that run right of the previous row's window are resolved in
    closed form and must still match the per-pair reference."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_indel_pair(), min_size=1, max_size=8),
           st.integers(1, 12), st.integers(0, 3), st.integers(0, 120))
    def test_property_indel_batches_match_reference(self, pairs, go, ge, xd):
        got = xdrop_extend_batch(pairs, xd, BLOSUM62, go, ge)
        assert got == [
            xdrop_extend(a, b, xd, BLOSUM62, go, ge) for a, b in pairs
        ]

    @pytest.mark.parametrize("mid_a,mid_b,xd,go,ge", [
        # after 8 W-W matches the score sinks through 14 A/C columns and
        # climbs back on W-W while still below the best, so on rows 10-16
        # the live horizontal chain reaches past the previous row's last
        # column + 1 on every row
        ("A" * 14, "C" * 14, 50, 1, 1),
        # extend = 0: the chain died on the C/L rows (2 * open > xdrop) and
        # revives on row 15, where it runs undecayed to the end of b
        ("C" * 6, "L" * 6, 12, 7, 0),
    ])
    def test_gap_chain_runs_past_previous_window(self, mid_a, mid_b, xd, go,
                                                 ge):
        a = encode_sequence("W" * 8 + mid_a + "W" * 10)
        b = encode_sequence("W" * 8 + mid_b + "W" * 10 + "S" * 40)
        pairs = [(a, b), (b, a), (a, a), (a[::-1], b[::-1])]
        want = [xdrop_extend(x, y, xd, BLOSUM62, go, ge) for x, y in pairs]
        # alone, (a, b) takes the closed-form tail on those rows; in the
        # batch the other lanes' windows cover the same columns
        assert xdrop_extend_batch(pairs[:1], xd, BLOSUM62, go, ge) == want[:1]
        assert xdrop_extend_batch(pairs, xd, BLOSUM62, go, ge) == want

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_indel_pair(), min_size=1, max_size=8),
           st.integers(1, 12), st.integers(0, 3), st.integers(0, 120))
    def test_results_do_not_depend_on_chunk_composition(self, pairs, go, ge,
                                                         xd):
        # a lane's result is its own: alone, in twos, in threes or with
        # every other lane of the batch in one chunk
        want = [xdrop_extend(a, b, xd, BLOSUM62, go, ge) for a, b in pairs]
        for cap in (1, 2, 3, 10**9):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "_XDROP_LANES", cap)
                got = xdrop_extend_batch(pairs, xd, BLOSUM62, go, ge)
            assert got == want, cap

    @pytest.mark.parametrize("go,ge,xd", [(11, 1, 49), (3, 0, 30), (1, 2, 7)])
    def test_int64_lanes_and_statistics_match_reference(self, monkeypatch,
                                                        go, ge, xd):
        # with the int32 bound at 0 every chunk runs int64 lane state and
        # int64 packed statistics, the path of very long sequences
        monkeypatch.setattr(engine, "_I32", 0)
        seen = _lane_dtypes(monkeypatch)
        pairs = [(t.a, t.b) for t in _random_tasks(17, n_tasks=30)]
        assert xdrop_extend_batch(pairs, xd, BLOSUM62, go, ge) == [
            xdrop_extend(a, b, xd, BLOSUM62, go, ge) for a, b in pairs
        ]
        for tb in (True, False):
            assert sw_batch(pairs, BLOSUM62, go, ge, traceback=tb) == [
                smith_waterman(a, b, BLOSUM62, go, ge, traceback=tb)
                for a, b in pairs
            ]
        assert set(seen) == {np.int64}


class TestScoreOnlyExtension:
    """``stats=False`` lanes skip the path statistics but keep the
    reference's score and extents; ``align_batch_batched`` extends the
    second seeds that way and cuts on coverage before extending a winner
    again with statistics."""

    @staticmethod
    def _extents(results):
        return [(r.score, r.ext_a, r.ext_b) for r in results]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_indel_pair(), min_size=1, max_size=8),
           st.integers(1, 12), st.integers(0, 3), st.integers(0, 120))
    def test_property_score_only_matches_reference(self, pairs, go, ge, xd):
        want = [xdrop_extend(a, b, xd, BLOSUM62, go, ge) for a, b in pairs]
        got = xdrop_extend_batch(pairs, xd, BLOSUM62, go, ge, stats=False)
        assert self._extents(got) == self._extents(want)
        assert {(r.matches, r.length) for r in got} == {(0, 0)}
        # int64 lanes, the path of very long sequences
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_I32", 0)
            got = xdrop_extend_batch(pairs, xd, BLOSUM62, go, ge,
                                     stats=False)
        assert self._extents(got) == self._extents(want)

    @pytest.mark.parametrize("cap", [1, 2, 3, engine._XDROP_LANES])
    @pytest.mark.parametrize("min_coverage", [None, 0.0, 0.7, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_coverage_cut_matches_python(self, monkeypatch, cap,
                                         min_coverage, seed):
        monkeypatch.setattr(engine, "_XDROP_LANES", cap)
        tasks = _random_tasks(seed=seed, n_tasks=60)
        ref = align_batch(tasks, "xd", 3, min_coverage=min_coverage,
                          engine="python")
        got = align_batch(tasks, "xd", 3, min_coverage=min_coverage,
                          engine="batched")
        assert got == ref
        if min_coverage is not None:
            full = align_batch(tasks, "xd", 3, engine="python")
            assert ref == [r if r.coverage_short >= min_coverage else None
                           for r in full]

    def test_split_rerun_and_reject_each_run(self, monkeypatch):
        calls = []
        extend = engine.xdrop_extend_batch

        def spy(pairs, *args):
            calls.append((len(pairs), args[-1]))
            return extend(pairs, *args)

        monkeypatch.setattr(engine, "xdrop_extend_batch", spy)
        monkeypatch.setattr(engine, "_XDROP_LANES", 8)
        tasks = [t for t in _random_tasks(seed=4, n_tasks=120)
                 if len(t.seeds) == 2 and min(len(t.a), len(t.b)) >= 3]
        # per-seed reference results: which second seeds win outright, and
        # which of those winners pass coverage
        passing = failing = 0
        for t in tasks:
            one, two = (align_batch([AlignmentTask(t.a, t.b, (s,))], "xd",
                                    3, engine="python")[0]
                        for s in t.seeds)
            if two.score > one.score:
                passing += two.coverage_short >= 0.7
                failing += two.coverage_short < 0.7
        assert passing and failing
        got = align_batch(tasks, "xd", 3, min_coverage=0.7)
        assert got == align_batch(tasks, "xd", 3, min_coverage=0.7,
                                  engine="python")
        # seed 1 with statistics, seed 2 score-only, then the winners that
        # pass coverage again with statistics -- and only those
        assert calls == [(2 * len(tasks), True), (2 * len(tasks), False),
                         (2 * passing, True)]
        # a batch under the lane cap keeps the single statistics batch
        calls.clear()
        monkeypatch.setattr(engine, "_XDROP_LANES", 2 * len(tasks) + 1)
        assert align_batch(tasks, "xd", 3, min_coverage=0.7) == got
        assert calls == [(4 * len(tasks), True)]

    def test_coverage_cut_needs_traceback(self):
        tasks = _random_tasks(seed=2, n_tasks=3)
        for eng in ("python", "batched"):
            with pytest.raises(ValueError, match="min_coverage"):
                align_batch(tasks, "xd", 3, traceback=False,
                            min_coverage=0.7, engine=eng)


def _lane_dtypes(monkeypatch):
    """Every lane dtype the kernels pick from now on, for their chunks and
    while planning them."""
    seen = []
    pick = engine._lane_dtype

    def spy(*args, **kwargs):
        seen.append(pick(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(engine, "_lane_dtype", spy)
    return seen


class TestSwLanes:
    """Smith-Waterman lanes of mixed lengths share one chunk's query
    profile, and ``b`` is padded with a code scoring 0 instead of masked:
    each lane's result is its own, in every chunk composition and at every
    lane dtype."""

    W30 = encode_sequence("W" * 30)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_indel_pair(), min_size=1, max_size=8),
           st.integers(1, 12), st.integers(0, 3))
    def test_results_do_not_depend_on_chunk_composition(self, pairs, go, ge):
        # in one chunk the last lane's W-W diagonal runs on past the end of
        # the (W^12, W^8) lane's b: a pad column scoring above 0 would
        # carry that lane's score-only maximum past its own b
        w = self.W30
        pairs = pairs + [(w[:12], w[:8]), (w, w)]
        for tb in (True, False):
            want = [smith_waterman(a, b, BLOSUM62, go, ge, traceback=tb)
                    for a, b in pairs]
            for budget in (1, 10**9):  # every lane alone; one chunk
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(engine, "_ROW_BUDGET", budget)
                    mp.setattr(engine, "_SW_KEEP_BUDGET", budget)
                    got = sw_batch(pairs, BLOSUM62, go, ge, traceback=tb)
                assert got == want, (tb, budget)

    @pytest.mark.parametrize("n,dtype", [(32, np.int16), (40, np.int32)])
    def test_score_across_the_int16_bound_is_exact(self, monkeypatch, n,
                                                   dtype):
        # diagonal 1000: n identical residues score 1000 n, 32 000 just
        # under 2**15 with the row's gap offsets, 40 000 past it
        mat = BLOSUM62.matrix.copy()
        np.fill_diagonal(mat, 1000)
        scoring = ScoringMatrix("blosum62-diag1000", mat)
        a = encode_sequence(random_protein(n, np.random.default_rng(n)))
        seen = _lane_dtypes(monkeypatch)
        for tb in (True, False):
            want = smith_waterman(a, a, scoring, 11, 1, traceback=tb)
            assert want.score == 1000 * n
            assert sw_batch([(a, a)], scoring, 11, 1, traceback=tb) == [want]
        assert set(seen) == {dtype}

    @pytest.mark.parametrize("bound,dtype", [(2**15, np.int16),
                                             (0, np.int32)])
    def test_int16_tier_bound(self, monkeypatch, bound, dtype):
        # at its real bound the int16 tier carries every chunk of these
        # short pairs; at 0 they all run the int32 path
        monkeypatch.setattr(engine, "_I16", bound)
        seen = _lane_dtypes(monkeypatch)
        pairs = [(t.a, t.b) for t in _random_tasks(23, n_tasks=30)]
        for tb in (True, False):
            assert sw_batch(pairs, BLOSUM62, 11, 1, traceback=tb) == [
                smith_waterman(a, b, BLOSUM62, 11, 1, traceback=tb)
                for a, b in pairs
            ]
        assert set(seen) == {dtype}


class TestGapLimit:
    """Regression: gap penalties the config accepted wrapped the int32
    kernels around (an x-drop score of 1 879 048 195, a score-only SW of
    2**31 - 1, an AssertionError in the SW traceback, a bare
    OverflowError); they are now one named error at each entry point."""

    A = encode_sequence("MKVLAAGIVGLLLAWQ")
    B = encode_sequence("MKVLAAGWWIVGLLLAWQ")

    @pytest.mark.parametrize("name", ["gap_open", "gap_extend"])
    def test_config_rejects_penalty_above_limit(self, name):
        with pytest.raises(ConfigError, match=name):
            PastisConfig(**{name: GAP_LIMIT + 1})
        with pytest.raises(ConfigError, match=name):
            PastisConfig(**{name: 2**31})
        assert getattr(PastisConfig(**{name: GAP_LIMIT}), name) == GAP_LIMIT

    @pytest.mark.parametrize("go,ge", [(11, 2**30), (11, 2**31), (2**30, 1)])
    def test_kernels_reject_penalty_above_limit(self, go, ge):
        pair = [(self.A, self.B)]
        with pytest.raises(ValueError, match="at most"):
            xdrop_extend_batch(pair, 49, BLOSUM62, go, ge)
        for tb in (True, False):
            with pytest.raises(ValueError, match="at most"):
                sw_batch(pair, BLOSUM62, go, ge, traceback=tb)

    @pytest.mark.parametrize("go,ge", [(GAP_LIMIT, 1), (11, GAP_LIMIT),
                                       (GAP_LIMIT, GAP_LIMIT)])
    def test_kernels_exact_at_the_limit(self, go, ge):
        a, b = self.A, self.B
        for xd in (0, 49, 2**40):
            assert xdrop_extend_batch([(a, b)], xd, BLOSUM62, go, ge) == [
                xdrop_extend(a, b, xd, BLOSUM62, go, ge)
            ]
        for tb in (True, False):
            assert sw_batch([(a, b)], BLOSUM62, go, ge, traceback=tb) == [
                smith_waterman(a, b, BLOSUM62, go, ge, traceback=tb)
            ]

    def test_sw_row_past_int32_is_exact(self):
        # (m + 1) * gap_extend passes 2**31 on a 2**19 + 40 column row: the
        # int32 column offsets wrapped and sw_batch scored 10 000 where the
        # reference scores 15 893, with and without traceback
        rng = np.random.default_rng(0)
        mat = BLOSUM62.matrix.copy()
        np.fill_diagonal(mat, 1000)
        scoring = ScoringMatrix("blosum62-diag1000", mat)
        b = encode_sequence(random_protein(2**19 + 40, rng))
        a = np.concatenate([b[-21:-11], b[-10:]])  # b's tail, one skipped
        for tb in (True, False):
            want = smith_waterman(a, b, scoring, 11, GAP_LIMIT, traceback=tb)
            assert want.score == 15893
            assert sw_batch([(a, b)], scoring, 11, GAP_LIMIT,
                            traceback=tb) == [want]

    def test_negative_xdrop_rejected(self):
        with pytest.raises(ValueError, match="xdrop >= 0"):
            xdrop_extend_batch([(self.A, self.B)], -1)


class TestSubKSeedClamp:
    """Regression: a pair too short to hold a k-mer used to clamp its seed
    offset negative and fault the whole batch with a ValueError."""

    def _short_task(self):
        return AlignmentTask(
            a=encode_sequence("AVG"),          # len 3 < k = 6
            b=encode_sequence("AVGDMIKRWLE"),
            seeds=((0, 0),),
            pair=(0, 1),
        )

    @pytest.mark.parametrize("engine", ["python", "batched"])
    def test_sub_k_pair_yields_empty_result(self, engine):
        res = align_batch([self._short_task()], "xd", k=6, engine=engine)[0]
        assert res.score == 0
        assert (res.a_start, res.a_end, res.b_start, res.b_end) == (
            0, 0, 0, 0
        )
        assert res.alignment_length == 0
        assert (res.len_a, res.len_b) == (3, 11)

    @pytest.mark.parametrize("engine", ["python", "batched"])
    def test_sub_k_pair_does_not_kill_the_batch(self, engine):
        rng = np.random.default_rng(9)
        s = random_protein(50, rng)
        good = AlignmentTask(
            a=encode_sequence(s),
            b=encode_sequence(mutate(s, 0.1, 0.0, rng)),
            seeds=((10, 10),),
            pair=(2, 3),
        )
        out = align_batch([good, self._short_task(), good], "xd", k=6,
                          engine=engine)
        assert out[1].score == 0
        assert out[0] == out[2]
        assert out[0].score > 0

    def _store_with_straggler(self):
        data = scope_like(n_families=2, members_per_family=(3, 3),
                          length_range=(40, 60), divergence=0.1, seed=4)
        seqs = [data.store.sequence(i) for i in range(len(data.store))]
        from repro.bio.sequences import SequenceStore

        return SequenceStore(seqs + ["AVG"])  # sub-k straggler

    def test_pipeline_with_sub_k_sequence_completes(self):
        g = pastis_pipeline(self._store_with_straggler(), PastisConfig(k=6))
        assert g.nedges > 0

    def test_distributed_with_sub_k_sequence_completes(self):
        g = run_pastis_distributed(
            self._store_with_straggler(), PastisConfig(k=6), nranks=4
        )
        assert g.nedges > 0


class TestScoreOnlySentinel:
    """Regression: score-only SW used to report fake spans (a_end/b_end set
    with zero starts), inflating coverage_short on results that carry no
    coverage information at all."""

    def test_score_only_span_is_empty(self):
        s = random_protein(60, 11)
        a = encode_sequence(s)
        b = encode_sequence(mutate(s, 0.1, 0.0, 12))
        res = smith_waterman(a, b, traceback=False)
        assert res.score > 0
        assert res.score_only
        assert (res.a_start, res.a_end, res.b_start, res.b_end) == (
            0, 0, 0, 0
        )
        assert res.coverage_short == 0.0

    def test_passes_filter_refuses_score_only(self):
        a = encode_sequence("AVGDMIKRW")
        res = smith_waterman(a, a, traceback=False)
        with pytest.raises(AssertionError, match="score-only"):
            passes_filter(res)

    def test_traceback_results_unaffected(self):
        a = encode_sequence("AVGDMIKRW")
        res = smith_waterman(a, a, traceback=True)
        assert not res.score_only
        assert passes_filter(res)

    @pytest.mark.parametrize("eng", ["python", "batched"])
    def test_xd_score_only_is_the_sentinel(self, eng):
        s = random_protein(60, 11)
        a = encode_sequence(s)
        b = encode_sequence(mutate(s, 0.1, 0.0, 12))
        task = AlignmentTask(a=a, b=b, seeds=((10, 10), (30, 30)))
        full, = align_batch([task], "xd", 6, engine=eng)
        res, = align_batch([task], "xd", 6, traceback=False, engine=eng)
        assert res == AlignmentResult(full.score, 0, 0, 0, 0, 0, 0, 60,
                                      len(b), "xd")
        assert res.score_only
        with pytest.raises(AssertionError, match="score-only"):
            passes_filter(res)


class TestPipelineObliviousness:
    """The engine knob never changes pipeline output — byte-identical
    edges, single-process and distributed, both weights."""

    @pytest.fixture(scope="class")
    def data(self):
        return scope_like(n_families=3, members_per_family=(3, 3),
                          length_range=(40, 70), divergence=0.15, seed=55)

    def _edges(self, graph):
        return sorted(
            zip(graph.ri.tolist(), graph.rj.tolist(),
                graph.weights.tolist())
        )

    @pytest.mark.parametrize("mode", ["xd", "sw"])
    @pytest.mark.parametrize("weight", ["ani", "ns"])
    def test_single_process(self, data, mode, weight):
        ref = pastis_pipeline(
            data.store,
            PastisConfig(k=4, align_mode=mode, weight=weight,
                         align_engine="python"),
        )
        got = pastis_pipeline(
            data.store,
            PastisConfig(k=4, align_mode=mode, weight=weight,
                         align_engine="batched"),
        )
        assert self._edges(got) == self._edges(ref)

    @pytest.mark.parametrize("weight", ["ani", "ns"])
    def test_distributed(self, data, weight):
        ref = run_pastis_distributed(
            data.store,
            PastisConfig(k=4, weight=weight, align_engine="python"),
            nranks=4,
        )
        got = run_pastis_distributed(
            data.store,
            PastisConfig(k=4, weight=weight, align_engine="batched"),
            nranks=4,
        )
        assert self._edges(got) == self._edges(ref)
