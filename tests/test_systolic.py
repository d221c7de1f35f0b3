"""Cycle-accurate array tests: timing contract, propagation rules, and
equivalence against the sorted reference model."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from timerq.core import BehavioralQueue, Element, QueueConfig, is_expired, make_expiration
from timerq.systolic import (
    CYCLES_PER_OP,
    Dequeue,
    Enqueue,
    PushFirst,
    Remove,
    SimulationHazard,
    SystolicQueue,
    pop_op,
    propagate,
    push_op,
    remove_op,
    unit_compare,
)
from conftest import make_config


def fill(queue, pairs):
    for ident, data in pairs:
        assert queue.issue(push_op(ident, data))
        queue.drain()


class TestGeometry:
    def test_rejects_single_block_units(self):
        cfg = make_config(capacity=4)
        with pytest.raises(ValueError):
            SystolicQueue(cfg, 4, 1)

    def test_rejects_capacity_mismatch(self):
        cfg = make_config(capacity=16)
        with pytest.raises(ValueError):
            SystolicQueue(cfg, 2, 4)

    def test_empty_slot_encoding(self):
        cfg = make_config(capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        for unit in q.units:
            for blk in unit.blocks:
                assert blk.ident == 0
                assert blk.data == cfg.data_mask


class TestIssueTiming:
    def test_exactly_three_cycles_between_accepts(self):
        cfg = make_config(capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        accept_cycles = []
        cycle = 0
        ident = 0
        while len(accept_cycles) < 8:
            ident = ident % 3 + 1
            if q.issue(push_op(ident, 40 + ident)):
                accept_cycles.append(cycle)
            q.step()
            cycle += 1
        gaps = [b - a for a, b in zip(accept_cycles, accept_cycles[1:])]
        assert gaps == [CYCLES_PER_OP] * 7

    def test_issue_rejected_while_gate_closed(self):
        cfg = make_config(capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        assert q.issue(push_op(1, 10))
        assert not q.issue(push_op(2, 20))
        q.step()
        assert not q.issue(push_op(2, 20))

    def test_pop_on_empty_rejected_without_cost(self):
        cfg = make_config(capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        assert not q.issue(pop_op())
        # the rejection must not consume the issue slot
        assert q.issue(push_op(1, 10))

    def test_push_visible_and_quiescent_after_one_op_window(self):
        cfg = make_config(capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        assert q.issue(push_op(1, 10))
        for _ in range(CYCLES_PER_OP):
            q.step()
        assert q.is_quiescent()
        assert [e.ident for e in q.snapshot()] == [1]

    def test_snapshot_requires_quiescence(self):
        cfg = make_config(capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        q.issue(push_op(1, 10))
        q.step()
        with pytest.raises(RuntimeError):
            q.snapshot()


class TestUnitCompare:
    def test_plain_group_compare(self):
        cfg = make_config(data_width=8, capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        fill(q, [(1, 10), (2, 20)])
        unit = q.units[0]
        assert unit_compare(unit, 5, 0, 8) == [1, 1]
        assert unit_compare(unit, 15, 0, 8) == [0, 1]
        assert unit_compare(unit, 30, 0, 8) == [0, 0]

    def test_wrapped_head_group_rules(self):
        cfg = make_config(data_width=8, capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        fill(q, [(1, 200), (2, 240)])
        unit = q.units[0]
        # low incoming under a high head reads as wrapped: belongs after
        assert unit_compare(unit, 60, 1, 8) == [0, 0]
        # high incoming compares plainly within the high group
        assert unit_compare(unit, 220, 1, 8) == [0, 1]
        # resident low values sort behind any high incoming
        fill(q, [(3, 5)])
        assert unit_compare(q.units[1], 250, 1, 8) == [1, 1]

    def test_empty_slots_always_accept(self):
        cfg = make_config(data_width=8, capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        fill(q, [(1, 99)])
        assert unit_compare(q.units[0], 99, 0, 8) == [0, 1]  # tie keeps order
        assert unit_compare(q.units[1], 99, 0, 8) == [1, 1]

    def test_flags_monotone_over_sorted_unit(self):
        cfg = make_config(data_width=8, capacity=8)
        q = SystolicQueue(cfg, 2, 4)
        fill(q, [(1, 10), (2, 60), (3, 130), (4, 220)])
        for push in (0, 55, 61, 129, 131, 255):
            flags = unit_compare(q.units[0], push, 0, 8)
            assert flags == sorted(flags), (push, flags)


class TestPropagate:
    def test_combined_pair_rows(self):
        pair = (Enqueue, Remove)
        assert propagate(True, True, pair) == frozenset()
        assert propagate(True, False, pair) == frozenset((Enqueue, Dequeue))
        assert propagate(False, True, pair) == frozenset((Remove, PushFirst))
        assert propagate(False, False, pair) == frozenset((Enqueue, Remove))

    def test_single_op_reductions(self):
        assert propagate(False, True, (Enqueue,)) == frozenset((PushFirst,))
        assert propagate(False, False, (Enqueue,)) == frozenset((Enqueue,))
        assert propagate(True, False, (Remove,)) == frozenset((Dequeue,))
        assert propagate(False, False, (Remove,)) == frozenset((Remove,))
        assert propagate(False, False, (Dequeue,)) == frozenset((Dequeue,))
        assert propagate(False, False, (PushFirst,)) == frozenset((PushFirst,))

    def test_derived_pairs(self):
        assert propagate(False, True, (Dequeue, Enqueue)) == frozenset()
        assert propagate(False, False, (Dequeue, Enqueue)) == frozenset((Dequeue, Enqueue))
        assert propagate(True, False, (PushFirst, Remove)) == frozenset()
        assert propagate(False, False, (PushFirst, Remove)) == frozenset((PushFirst, Remove))

    def test_illegal_combo_rejected(self):
        with pytest.raises(ValueError):
            propagate(False, False, (Enqueue, Dequeue, Remove))
        with pytest.raises(ValueError):
            propagate(False, False, ())


class TestInterfaceRegister:
    """Observe what one full unit hands to the next for each update case."""

    def _loaded_queue(self):
        cfg = make_config(data_width=8, capacity=4, id_width=4)
        q = SystolicQueue(cfg, 2, 2)
        fill(q, [(1, 10), (2, 20), (3, 30)])    # unit0 full, unit1 holds (3,30)
        return q, dict(q.row_counts)

    def _issue_and_observe(self, q, op):
        assert q.issue(op)
        for _ in range(CYCLES_PER_OP):
            q.step()
        ops = q.registers[0]
        q.drain()
        return frozenset(type(o) for o in ops), ops

    @staticmethod
    def _delta(q, before):
        return {row: n - before[row] for row, n in q.row_counts.items()
                if n != before[row]}

    def test_absorbed_update_hands_nothing_on(self):
        q, before = self._loaded_queue()
        kinds, _ = self._issue_and_observe(q, push_op(1, 15))
        assert kinds == frozenset()
        assert self._delta(q, before) == {(True, True): 1}

    def test_update_moving_tailward_hands_enqueue_dequeue(self):
        q, before = self._loaded_queue()
        kinds, ops = self._issue_and_observe(q, push_op(1, 90))
        assert kinds == frozenset((Enqueue, Dequeue))
        # the handed-on pair is no longer an id search, so only unit 0
        # resolves a table row for this op
        assert self._delta(q, before) == {(True, False): 1}
        enq = next(o for o in ops if isinstance(o, Enqueue))
        assert enq.element == Element(1, 90)

    def test_hosted_insert_hands_spill_and_search_on(self):
        q, before = self._loaded_queue()
        kinds, ops = self._issue_and_observe(q, push_op(4, 15))
        assert kinds == frozenset((PushFirst, Remove))
        assert self._delta(q, before) == {(False, True): 1}
        spilled = next(o for o in ops if isinstance(o, PushFirst))
        assert spilled.element == Element(2, 20)

    def test_miss_hands_both_halves_on(self):
        q, before = self._loaded_queue()
        kinds, _ = self._issue_and_observe(q, push_op(4, 90))
        assert kinds == frozenset((Enqueue, Remove))
        # the untouched pair runs the table again at unit 1, where the
        # tail slot hosts it
        assert self._delta(q, before) == {(False, False): 1, (False, True): 1}


class TestHazardDetector:
    def test_double_write_same_slot_same_cycle_raises(self):
        cfg = make_config(capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        q._writes = {}
        q._record_write(0, 0)
        with pytest.raises(SimulationHazard):
            q._record_write(0, 0)


def run_drained_comparison(seed, n_units, m_blocks, data_width, n_ops=80):
    rng = random.Random(seed)
    cap = n_units * m_blocks
    cfg = make_config(data_width=data_width, capacity=cap, id_width=8)
    ref = BehavioralQueue(cfg)
    arr = SystolicQueue(cfg, n_units, m_blocks)
    pool = range(1, cap + 1)
    for i in range(n_ops):
        r = rng.random()
        if r < 0.55:
            ident = rng.choice(pool)
            value = rng.randrange(0, cfg.data_mask + 1)
            if len(ref) >= cap and all(e.ident != ident for e in ref.items):
                continue
            ref.push(ident, value)
            assert arr.issue(push_op(ident, value))
        elif r < 0.8:
            if not len(ref):
                continue
            expect = ref.pop()
            head = arr.peek()
            assert (head.ident, head.data) == (expect.ident, expect.data)
            assert arr.issue(pop_op())
        else:
            ident = rng.choice(pool)
            ref.remove(ident)
            assert arr.issue(remove_op(ident))
        arr.drain()
        assert arr.occupancy() == len(ref)
        got = [(e.ident, e.data) for e in arr.snapshot()]
        want = [(e.ident, e.data) for e in ref.items]
        assert got == want, (i, got, want)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_drained_equivalence_random(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    n_units = data.draw(st.sampled_from([2, 3, 4]))
    m_blocks = data.draw(st.sampled_from([2, 3, 4]))
    width = data.draw(st.sampled_from([6, 9]))
    run_drained_comparison(seed, n_units, m_blocks, width)


def run_pipelined_comparison(seed, n_units, m_blocks, data_width, to_width,
                             n_ticks=300):
    """No draining between ops: the array runs with several operations
    in flight while the reference applies them at issue order."""
    rng = random.Random(seed)
    cap = n_units * m_blocks
    cfg = QueueConfig(id_width=8, data_width=data_width,
                      timeout_width=to_width, capacity=cap)
    ref = BehavioralQueue(cfg)
    arr = SystolicQueue(cfg, n_units, m_blocks)
    pool = range(1, min(cap, 20) + 1)
    for cycle in range(n_ticks * 2):
        tick = cycle // 2
        now = tick & cfg.data_mask
        if arr.issue_gate == 0:
            head = ref.peek()
            can_pop = head is not None and is_expired(head.data, now, data_width)
            r = rng.random()
            if can_pop and r < 0.5:
                expect = ref.pop()
                got = arr.peek()
                assert (got.ident, got.data) == (expect.ident, expect.data)
                assert arr.issue(pop_op())
            elif r < 0.75:
                ident = rng.choice(pool)
                if len(ref) >= cap and all(e.ident != ident for e in ref.items):
                    pass
                else:
                    value = make_expiration(now, rng.randint(1, cfg.max_timeout),
                                            data_width, to_width)
                    ref.push(ident, value)
                    assert arr.issue(push_op(ident, value))
            elif r < 0.85:
                ident = rng.choice(pool)
                ref.remove(ident)
                assert arr.issue(remove_op(ident))
        arr.step()
    arr.drain()
    got = [(e.ident, e.data) for e in arr.snapshot()]
    want = [(e.ident, e.data) for e in ref.items]
    assert got == want


@pytest.mark.parametrize("geometry", [(2, 2), (2, 3), (4, 2), (3, 4), (8, 3)])
@pytest.mark.parametrize("widths", [(8, 5), (9, 7)])
def test_pipelined_equivalence_seeded(geometry, widths):
    for seed in range(6):
        run_pipelined_comparison(seed, *geometry, *widths)


def test_update_of_head_crossing_group_boundary():
    """Updating the head entry must re-rank the incoming value against
    the head that remains after the removal half, not the stale one."""
    cfg = make_config(data_width=6, capacity=4, id_width=4)
    ref = BehavioralQueue(cfg)
    arr = SystolicQueue(cfg, 2, 2)
    for ident, value in ((4, 20), (2, 57)):
        ref.push(ident, value)
        assert arr.issue(push_op(ident, value))
        arr.drain()
    ref.push(4, 4)
    assert arr.issue(push_op(4, 4))
    arr.drain()
    got = [(e.ident, e.data) for e in arr.snapshot()]
    assert got == [(e.ident, e.data) for e in ref.items] == [(2, 57), (4, 4)]
