"""Tests for the cross-rank alignment rebalancing subsystem
(:mod:`repro.core.balance`): the DP-cell cost model, the deterministic
greedy bin-pack plan (identical on every rank), and the task codec."""

import numpy as np
import pytest

from repro.align.batch import AlignmentTask
from repro.core.balance import (
    RebalancePlan,
    decode_tasks,
    encode_tasks,
    estimate_batch_cells,
    estimate_task_cells,
    greedy_plan,
    xdrop_corridor_width,
)
from repro.mpisim import run_spmd


def _task(la, lb, nseeds=1, pair=(0, 1)):
    rng = np.random.default_rng(la * 1000 + lb)
    return AlignmentTask(
        a=rng.integers(0, 20, la).astype(np.int8),
        b=rng.integers(0, 20, lb).astype(np.int8),
        seeds=tuple((s, s) for s in range(nseeds)),
        pair=pair,
    )


class TestCostModel:
    def test_sw_is_full_matrix(self):
        assert estimate_task_cells(_task(10, 20), "sw", 6, 49) == 11 * 21

    def test_xd_corridor_caps_width(self):
        t = _task(100, 200)
        w = xdrop_corridor_width(49, 1)
        assert estimate_task_cells(t, "xd", 6, 49, 1) == 101 * min(w, 201)
        # a short second operand caps the corridor at its full width
        t2 = _task(100, 8)
        assert estimate_task_cells(t2, "xd", 6, 49, 1) == 101 * 9

    def test_xd_two_seeds_double(self):
        one = estimate_task_cells(_task(50, 50, nseeds=1), "xd", 6, 49)
        two = estimate_task_cells(_task(50, 50, nseeds=2), "xd", 6, 49)
        assert two == 2 * one
        # align_pair only ever extends from the first two seeds
        many = estimate_task_cells(_task(50, 50, nseeds=5), "xd", 6, 49)
        assert many == two

    def test_sub_k_pair_is_nominal(self):
        # the engine skips pairs too short for a k-mer with an empty result
        assert estimate_task_cells(_task(3, 50), "xd", 6, 49) == 1

    def test_gap_extend_narrows_corridor(self):
        assert xdrop_corridor_width(49, 1) > xdrop_corridor_width(49, 7)
        assert xdrop_corridor_width(49, 0) == xdrop_corridor_width(49, 1)

    def test_batch_vector(self):
        tasks = [_task(10, 10), _task(20, 20)]
        assert estimate_batch_cells(tasks, "sw", 6, 49) == [
            11 * 11, 21 * 21
        ]


class TestGreedyPlan:
    def test_every_task_assigned_once_and_loads_conserved(self):
        vectors = [[5, 3], [9], [], [2, 2, 2]]
        plan = greedy_plan(vectors)
        assert [len(d) for d in plan.dest] == [2, 1, 0, 3]
        for d in plan.dest:
            assert ((d >= 0) & (d < 4)).all()
        assert plan.pre_cells.sum() == plan.post_cells.sum() == 23
        # post loads recomputed from the assignment must match the plan
        loads = np.zeros(4, dtype=np.int64)
        for v, d in zip(vectors, plan.dest):
            for c, dst in zip(v, d):
                loads[dst] += c
        assert (loads == plan.post_cells).all()

    def test_deterministic_and_balanced(self):
        rng = np.random.default_rng(7)
        vectors = [rng.integers(1, 500, rng.integers(0, 30)).tolist()
                   for _ in range(9)]
        p1, p2 = greedy_plan(vectors), greedy_plan(vectors)
        assert all((a == b).all() for a, b in zip(p1.dest, p2.dest))
        # LPT is a 4/3-approximation; a generous bound locks in sanity
        total = p1.pre_cells.sum()
        assert p1.post_cells.max() <= max(
            2 * total // 9, max(max(v) for v in vectors if v)
        )

    def test_balanced_input_ships_nothing(self):
        plan = greedy_plan([[10], [10], [10], [10]])
        assert plan.moved_tasks() == 0
        assert plan.flows() == []
        assert (plan.pre_cells == plan.post_cells).all()

    def test_balanced_multi_task_grid_ships_nothing(self):
        """Regression: the single-pass LPT used to bounce most tasks off
        their home rank even when every rank was already at the achievable
        budget — paying shipping for zero load improvement."""
        plan = greedy_plan([[10] * 4] * 4)
        assert plan.moved_tasks() == 0
        assert plan.post_cells.tolist() == [40, 40, 40, 40]
        plan = greedy_plan([[10, 10], [10, 10]])
        assert plan.moved_tasks() == 0
        # near-balanced: only the genuine surplus moves
        plan = greedy_plan([[10, 10, 10], [10], [10, 10], [10, 10]])
        assert plan.post_cells.max() == 20
        assert plan.moved_tasks() == 1

    def test_skew_levelled(self):
        # one rank holds the whole triangle: 12 equal tasks over 4 ranks
        plan = greedy_plan([[100] * 12, [], [], []])
        assert plan.pre_cells.tolist() == [1200, 0, 0, 0]
        assert plan.post_cells.tolist() == [300, 300, 300, 300]
        assert max(plan.post_cells) * 2 <= max(plan.pre_cells)
        assert plan.moved_tasks() == 9

    def test_empty_everything(self):
        plan = greedy_plan([[], [], [], []])
        assert plan.moved_tasks() == 0
        assert plan.post_cells.tolist() == [0, 0, 0, 0]

    def test_single_task_single_rank(self):
        plan = greedy_plan([[42]])
        assert plan.dest[0].tolist() == [0]
        assert plan.flows() == []

    def test_single_task_stays_home(self):
        # all loads tie at zero, so the keep-at-home tie-break wins
        plan = greedy_plan([[], [7], [], []])
        assert plan.dest[1].tolist() == [1]
        assert plan.moved_tasks() == 0

    def test_flows_match_dest(self):
        plan = greedy_plan([[9, 9, 9, 9], [1], [1], [1]])
        flows = plan.flows()
        assert flows == sorted(flows)
        shipped = {(s, d): c for s, d, c in flows}
        for src, dests in enumerate(plan.dest):
            for dst, cnt in zip(*np.unique(dests[dests != src],
                                           return_counts=True)):
                assert shipped[(src, int(dst))] == int(cnt)

    def test_identical_plan_on_every_rank(self):
        """The SPMD contract: allgathered cost vectors produce the same
        plan object on all ranks, with no negotiation round."""
        def body(comm):
            local = [(comm.rank + 1) * 10] * (comm.rank * 2)
            plan = greedy_plan(comm.allgather(local))
            return (
                [d.tolist() for d in plan.dest],
                plan.post_cells.tolist(),
            )

        out = run_spmd(4, body)
        assert all(o == out[0] for o in out[1:])


class TestTaskCodec:
    def test_roundtrip(self):
        tasks = [
            _task(12, 30, nseeds=2, pair=(3, 9)),
            _task(7, 7, nseeds=1, pair=(0, 4)),
            _task(5, 40, nseeds=0, pair=(8, 11)),
        ]
        out = decode_tasks(encode_tasks(tasks))
        assert len(out) == len(tasks)
        for orig, got in zip(tasks, out):
            assert got.pair == orig.pair
            assert got.seeds == orig.seeds
            assert got.a.dtype == np.int8 and got.b.dtype == np.int8
            np.testing.assert_array_equal(got.a, orig.a)
            np.testing.assert_array_equal(got.b, orig.b)

    def test_empty_batch(self):
        payload = encode_tasks([])
        assert decode_tasks(payload) == []

    def test_payload_is_flat_arrays(self):
        """The payload must be a tuple of plain ndarrays so the tracer
        sizes it by buffer (honest shipped-byte accounting)."""
        payload = encode_tasks([_task(10, 10)])
        assert isinstance(payload, tuple)
        assert all(isinstance(p, np.ndarray) for p in payload)

    def test_alignment_invariant_under_codec(self):
        """A shipped task must align byte-identically to the original."""
        from repro.align.batch import align_batch

        tasks = [_task(40, 44, nseeds=2, pair=(1, 2))]
        shipped = decode_tasks(encode_tasks(tasks))
        for mode in ("xd", "sw"):
            ref = align_batch(tasks, mode=mode, k=6)
            got = align_batch(shipped, mode=mode, k=6)
            assert got == ref


class TestPlanShape:
    def test_frozen(self):
        plan = greedy_plan([[1], [2]])
        assert isinstance(plan, RebalancePlan)
        with pytest.raises(AttributeError):
            plan.dest = ()
