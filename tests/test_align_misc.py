"""Tests for ungapped extension, alignment stats, and the batch driver."""

import numpy as np
import pytest

from repro.bio.alphabet import encode_sequence
from repro.bio.generate import mutate, random_protein
from repro.bio.scoring import BLOSUM62
from repro.align.batch import AlignmentTask, align_batch, align_pair
from repro.align.stats import AlignmentResult, normalized_score, passes_filter
from repro.align.ungapped import ungapped_align, ungapped_extend


class TestUngapped:
    def test_identical(self):
        a = encode_sequence("AVGDMI")
        score, length, matches = ungapped_extend(a, a, 20)
        assert score == BLOSUM62.self_score(a)
        assert length == len(a)
        assert matches == len(a)

    def test_empty(self):
        assert ungapped_extend(np.empty(0, dtype=np.int8),
                               encode_sequence("A"), 20) == (0, 0, 0)

    def test_xdrop_cuts_extension(self):
        a = encode_sequence("AVGDMI" + "W" * 20)
        b = encode_sequence("AVGDMI" + "P" * 20)
        score, length, _ = ungapped_extend(a, b, xdrop=8)
        assert length <= 8
        assert score == BLOSUM62.self_score(encode_sequence("AVGDMI"))

    def test_negative_start_returns_zero(self):
        a = encode_sequence("W")
        b = encode_sequence("P")
        assert ungapped_extend(a, b, 5) == (0, 0, 0)

    def test_align_spans_same_diagonal(self):
        s = random_protein(50, 0)
        a = encode_sequence(s)
        res = ungapped_align(a, a, 10, 10, 4)
        assert res.a_start == res.b_start
        assert res.a_end == res.b_end
        assert res.identity == 1.0

    def test_align_seed_bounds(self):
        a = encode_sequence("AVGDMI")
        with pytest.raises(ValueError):
            ungapped_align(a, a, 4, 0, 4)


class TestStats:
    def _result(self, **kw):
        base = dict(score=100, a_start=0, a_end=50, b_start=0, b_end=50,
                    matches=40, alignment_length=50, len_a=60, len_b=50,
                    mode="sw")
        base.update(kw)
        return AlignmentResult(**base)

    def test_identity(self):
        assert self._result().identity == 0.8
        assert self._result(alignment_length=0, matches=0).identity == 0.0

    def test_coverage_short(self):
        r = self._result()
        assert r.coverage_short == 1.0  # 50 aligned of shorter length 50
        r2 = self._result(a_end=25, b_end=25, alignment_length=25)
        assert r2.coverage_short == 0.5

    def test_normalized_score(self):
        assert self._result().normalized_score == 2.0
        assert normalized_score(10, 0, 5) == 0.0

    def test_swap(self):
        r = self._result(a_start=1, a_end=2, b_start=3, b_end=4)
        s = r.swap()
        assert (s.a_start, s.a_end) == (3, 4)
        assert (s.b_start, s.b_end) == (1, 2)
        assert s.len_a == r.len_b

    def test_passes_filter_thresholds(self):
        good = self._result()  # identity .8, coverage 1.0
        assert passes_filter(good)
        low_id = self._result(matches=10)  # identity .2
        assert not passes_filter(low_id)
        low_cov = self._result(a_end=20, b_end=20)
        assert not passes_filter(low_cov)

    def test_passes_filter_custom_thresholds(self):
        r = self._result(matches=20)  # identity .4
        assert passes_filter(r, min_identity=0.35)
        assert not passes_filter(r, min_identity=0.5)


class TestBatch:
    def _tasks(self, n=6, seed=0):
        rng = np.random.default_rng(seed)
        tasks = []
        for i in range(n):
            s = random_protein(40, rng)
            a = encode_sequence(s)
            b = encode_sequence(mutate(s, 0.1, 0.0, rng))
            tasks.append(AlignmentTask(a=a, b=b, seeds=((0, 0),),
                                       pair=(i, i + 100)))
        return tasks

    def test_sw_mode_ignores_seeds(self):
        t = AlignmentTask(
            a=encode_sequence("AVGDMI"), b=encode_sequence("AVGDMI"),
            seeds=(),
        )
        res = align_pair(t, "sw", k=3)
        assert res.score == BLOSUM62.self_score(t.a)

    def test_xd_requires_seed(self):
        t = AlignmentTask(
            a=encode_sequence("AVGDMI"), b=encode_sequence("AVGDMI"),
            seeds=(),
        )
        with pytest.raises(ValueError):
            align_pair(t, "xd", k=3)

    def test_xd_takes_best_of_two_seeds(self):
        s = random_protein(60, 3)
        a = encode_sequence(s)
        t2 = AlignmentTask(a=a, b=a, seeds=((50, 2), (10, 10)))
        res = align_pair(t2, "xd", k=4)
        t1 = AlignmentTask(a=a, b=a, seeds=((10, 10),))
        best = align_pair(t1, "xd", k=4)
        assert res.score >= best.score

    def test_unknown_mode(self):
        t = AlignmentTask(a=encode_sequence("AV"), b=encode_sequence("AV"),
                          seeds=((0, 0),))
        with pytest.raises(ValueError):
            align_pair(t, "banded", k=1)

    def test_batch_preserves_order(self):
        tasks = self._tasks()
        out = align_batch(tasks, "sw", k=3)
        assert len(out) == len(tasks)
        for t, r in zip(tasks, out):
            assert r.len_a == len(t.a)

    def test_batch_xd_mode(self):
        tasks = self._tasks(4, seed=5)
        out = align_batch(tasks, "xd", k=3)
        assert all(r.mode == "xd" for r in out)
