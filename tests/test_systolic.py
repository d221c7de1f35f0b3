"""Cycle-accurate array tests: timing contract, propagation rules, and
equivalence against the sorted reference model."""

import hashlib
import importlib.util
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from timerq.core import BehavioralQueue, Element, QueueConfig, is_expired, make_expiration
from timerq.harness import (SystolicAdapter, bundled_params, drive,
                            gen_trace, load_params)
from timerq.oracle import OpScript, replay
from timerq.systolic import (
    CYCLES_PER_OP,
    DEQ,
    ENQ,
    PF,
    REM,
    SimulationHazard,
    SystolicQueue,
    pop_op,
    propagate,
    push_op,
    remove_op,
    unit_compare,
)
from conftest import CORPORA, REPO, make_config


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
            assert unit.ids == [0, 0]
            assert unit.data == [cfg.data_mask] * 2


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

    def test_ident_outside_range_rejected(self):
        cfg = make_config(capacity=4, id_width=4)
        q = SystolicQueue(cfg, 2, 2)
        for op in (push_op, remove_op):
            for ident in (0, cfg.max_ident + 1):
                args = (ident, 10) if op is push_op else (ident,)
                with pytest.raises(ValueError,
                                   match=f"ident {ident} outside"):
                    q.issue(op(*args))
        assert q.issue(remove_op(cfg.max_ident))

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
        pair = ENQ | REM
        assert propagate(True, True, pair) == 0
        assert propagate(True, False, pair) == ENQ | DEQ
        assert propagate(False, True, pair) == REM | PF
        assert propagate(False, False, pair) == ENQ | REM

    def test_single_op_reductions(self):
        assert propagate(False, True, ENQ) == PF
        assert propagate(False, False, ENQ) == ENQ
        assert propagate(True, False, REM) == DEQ
        assert propagate(False, False, REM) == REM
        assert propagate(False, False, DEQ) == DEQ
        assert propagate(False, False, PF) == PF

    def test_derived_pairs(self):
        assert propagate(False, True, DEQ | ENQ) == 0
        assert propagate(False, False, DEQ | ENQ) == DEQ | ENQ
        assert propagate(True, False, PF | REM) == 0
        assert propagate(False, False, PF | REM) == PF | REM

    def test_illegal_combo_rejected(self):
        with pytest.raises(ValueError):
            propagate(False, False, ENQ | DEQ | REM)
        with pytest.raises(ValueError):
            propagate(False, False, 0)


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
        record = q.registers[0]
        q.drain()
        return self._kinds(record), record

    @staticmethod
    def _kinds(record):
        """Op kind bits present in an op record (ids are 0 when absent)."""
        if not record:
            return 0
        enq_id, _, rem_id, deq, pf_id, _ = record
        return sum(kind for kind, present in (
            (ENQ, enq_id), (REM, rem_id), (DEQ, deq), (PF, pf_id)) if present)

    @staticmethod
    def _delta(q, before):
        return {row: n - before[row] for row, n in q.row_counts.items()
                if n != before[row]}

    def test_absorbed_update_hands_nothing_on(self):
        q, before = self._loaded_queue()
        kinds, _ = self._issue_and_observe(q, push_op(1, 15))
        assert kinds == 0
        assert self._delta(q, before) == {(True, True): 1}

    def test_update_moving_tailward_hands_enqueue_dequeue(self):
        q, before = self._loaded_queue()
        kinds, record = self._issue_and_observe(q, push_op(1, 90))
        assert kinds == ENQ | DEQ
        # the handed-on pair is no longer an id search, so only unit 0
        # resolves a table row for this op
        assert self._delta(q, before) == {(True, False): 1}
        enq_id, enq_data = record[:2]
        assert Element(enq_id, enq_data) == Element(1, 90)

    def test_hosted_insert_hands_spill_and_search_on(self):
        q, before = self._loaded_queue()
        kinds, record = self._issue_and_observe(q, push_op(4, 15))
        assert kinds == PF | REM
        assert self._delta(q, before) == {(False, True): 1}
        pf_id, pf_data = record[4:]
        assert Element(pf_id, pf_data) == Element(2, 20)

    def test_miss_hands_both_halves_on(self):
        q, before = self._loaded_queue()
        kinds, _ = self._issue_and_observe(q, push_op(4, 90))
        assert kinds == ENQ | REM
        # the untouched pair runs the table again at unit 1, where the
        # tail slot hosts it
        assert self._delta(q, before) == {(False, False): 1, (False, True): 1}


class TestHazardDetector:
    def test_double_write_same_slot_same_cycle_raises(self):
        cfg = make_config(capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        q._writes = {}
        q._record_writes(0, {0})
        with pytest.raises(SimulationHazard,
                           match="double write to unit 0 slot 0"):
            q._record_writes(0, {1, 0})

    @staticmethod
    def _two_unit_queue():
        """Unit 0 full with ids 1, 2; unit 1 holds id 3 in slot 0.  One
        step of the quiescent array opens a fresh cycle."""
        q = SystolicQueue(make_config(capacity=4), 2, 2)
        fill(q, [(1, 10), (2, 20), (3, 30)])
        q.step()
        return q

    def test_pull_of_slot_written_same_cycle_raises(self):
        q = self._two_unit_queue()
        q._write(1, [4], [25])          # changes unit 1 slot 0
        with pytest.raises(SimulationHazard,
                           match="double write to unit 1 slot 0"):
            q._take_next_first(0)

    def test_pull_of_slot_left_unchanged_same_cycle_passes(self):
        q = self._two_unit_queue()
        q._write(1, [3, 5], [30, 40])   # changes unit 1 slot 1 only
        q._take_next_first(0)
        assert q.units[1].ids == [0, 5]

    def test_op_fed_to_busy_unit_raises(self):
        cfg = make_config(capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        assert q.issue(push_op(1, 10))
        q.step()                        # unit 0 searched, now in shift-set
        q.issue_gate = 0                # force a second accept too early
        assert q.issue(push_op(2, 20))
        with pytest.raises(SimulationHazard,
                           match="op fed to unit 0 while it is in shift_set"):
            q.step()

    def test_pop_clearing_busy_unit_raises(self):
        cfg = make_config(capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        fill(q, [(1, 10)])
        assert q.issue(push_op(2, 20))
        q.step()                        # unit 0 searched, now in shift-set
        q.issue_gate = 0                # force a pop in one cycle later
        with pytest.raises(SimulationHazard,
                           match="slot cleared in a unit in shift_set"):
            q.issue(pop_op())

    def test_pull_from_busy_unit_raises(self):
        q = SystolicQueue(make_config(capacity=4), 2, 2)
        fill(q, [(1, 10), (2, 20), (3, 30)])
        assert q.issue(push_op(4, 40))  # sorts last: unit 0 hands it on
        for _ in range(CYCLES_PER_OP + 1):
            q.step()                    # unit 1 fed it and searched
        assert q.units[1].phase == "shift_set"
        with pytest.raises(SimulationHazard,
                           match="slot cleared in a unit in shift_set"):
            q._take_next_first(0)

    def test_register_overwritten_in_finish_raises(self):
        cfg = make_config(capacity=4)
        q = SystolicQueue(cfg, 2, 2)
        assert q.issue(push_op(1, 10))
        q.step()
        q.step()                        # unit 0 now due to finish
        # a stale dequeue latch nobody consumed
        q.registers[0] = (0, 0, 0, 1, 0, 0)
        with pytest.raises(SimulationHazard, match="register 0 overwritten"):
            q._do_finish(0)

    def test_scattered_occupants_raise(self):
        cfg = make_config(capacity=4)
        unit = SystolicQueue(cfg, 1, 4).units[0]
        unit.ids[2], unit.data[2], unit.count = 5, 10, 1   # two head holes
        with pytest.raises(SimulationHazard, match="not contiguous"):
            unit.occupants()


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
    m_blocks = data.draw(st.sampled_from([2, 3, 4, 16]))
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


# Observable output of the array on the frozen corpora, recorded from the
# model before its slot storage was reworked: event-stream line count and
# sha256 (one line per unit-phase, newline-terminated), sha256 of the
# dequeue log as "expiry,id" lines, and the propagation-row counts in the
# order ff, ft, tf, tt (found_id, found_rank).
STREAM_DIGESTS = {
    ("short_to", (8, 2)): (
        1944,
        "a7022ba66b832ad02d160c06df03371da48fa9cd81c66e92bded0c347c93870f",
        "3a15a3f970ed743c1e2c23bfe64dfbb04043b8014610af43a929e883bf89b836",
        (89, 106, 11, 59)),
    ("short_to", (4, 4)): (
        1386,
        "ca1e6279f7afe72074fd7a24a3ac12c319ee3a5ac2522195c316a5b40a8b9dfe",
        "3a15a3f970ed743c1e2c23bfe64dfbb04043b8014610af43a929e883bf89b836",
        (0, 180, 0, 70)),
    ("mid_to", (8, 2)): (
        2547,
        "b37f2208aeba96d050bd47c23559985ecb11bb227678b15588a001843bba2754",
        "2ba50d6da84885239b4152abc738abacdc0149fce6e7dc3627cd1a2bd5f33e10",
        (237, 27, 158, 57)),
    ("mid_to", (4, 4)): (
        1632,
        "3ca9d07c2f2847062238e71ecf4f8fef3de8c44a1a1453ddd7483c50bb026913",
        "2ba50d6da84885239b4152abc738abacdc0149fce6e7dc3627cd1a2bd5f33e10",
        (64, 30, 132, 83)),
    ("long_to", (8, 2)): (
        2589,
        "25a481c211ad3c314b182ce2f3dc3a832584fdca68d38586fb8696fe9ccd59ca",
        "ea2acdc262456808719e1fb162f955dd488d9693eecba26299daef7b2c069eab",
        (276, 23, 150, 81)),
    ("long_to", (4, 4)): (
        1680,
        "5181e064edc63a2cdba79d1830af11dd88726612e89472e15c95e75715882e17",
        "ea2acdc262456808719e1fb162f955dd488d9693eecba26299daef7b2c069eab",
        (92, 24, 130, 101)),
}


@pytest.mark.parametrize("case", sorted(STREAM_DIGESTS))
def test_corpus_event_stream_pinned(case):
    name, (n_units, m_blocks) = case
    lines, events_sha, pops_sha, rows = STREAM_DIGESTS[case]
    script = OpScript.load(CORPORA / f"{name}.script")
    events: list[str] = []
    made = []

    def factory(params):
        adapter = SystolicAdapter(params.queue_config(), n_units, m_blocks,
                                  event_sink=events.append)
        made.append(adapter)
        return adapter

    result = replay(script, factory)
    assert result.aborted is None
    assert len(events) == lines
    digest = hashlib.sha256(
        "".join(line + "\n" for line in events).encode()).hexdigest()
    assert digest == events_sha
    log = "".join(f"{expiry},{ident}\n" for expiry, ident in result.pops)
    assert hashlib.sha256(log.encode()).hexdigest() == pops_sha
    counts = made[0].queue.row_counts
    assert tuple(counts[(found_id, found_rank)]
                 for found_id in (False, True)
                 for found_rank in (False, True)) == rows


# The 20 us prefix of the bundled univ_scale trace (3,330 packets, all
# four propagation rows hit) on the 64x64 array, pinned: SimStats,
# row counts (ff, ft, tf, tt), sha256 of the dequeue log as "expiry,id"
# lines, and the event-stream line count and sha256.
UNIV_PREFIX_NS = 20_000
UNIV_PREFIX_STATS = (
    "packets=3330\npushes=3330\ninserts=2049\nupdates=1281\npops=2049\n"
    "max_occupancy=256\nfinal_occupancy=0\ncycles=16837\nticks=2806\n"
    "ops_accepted=5379\nidle_cycles=702\nduration_ns=33674.000000\n"
    "modeled_mpps=159.737483\n")
UNIV_PREFIX_ROWS = (5932, 2042, 550, 731)
UNIV_PREFIX_LOG_SHA = (
    "cb007957f5c371cf2ab064bc9d553727189d825571704e214b427cc53c77389f")
UNIV_PREFIX_EVENTS = (
    48210, "2aca3a2fb6c8fa789521dc8343416f1d32651b06b4e2271eca6ba832bd2e20d3")


def test_univ_prefix_stream_pinned():
    params, extra = load_params(bundled_params())
    params = replace(params, backend="systolic", n_units=64, m_blocks=64)
    packets = [p for p in gen_trace(extra["flows"], extra["packets"],
                                    extra["seed"], extra["duration_ns"])
               if p.arrival_ns < UNIV_PREFIX_NS]
    events: list[str] = []
    adapter = SystolicAdapter(params.queue_config(), 64, 64,
                              event_sink=events.append)
    log: list = []
    stats = drive(packets, adapter, params, dequeue_log=log)
    assert stats.to_text() == UNIV_PREFIX_STATS
    counts = adapter.queue.row_counts
    assert tuple(counts[(found_id, found_rank)]
                 for found_id in (False, True)
                 for found_rank in (False, True)) == UNIV_PREFIX_ROWS
    text = "".join(f"{expiry},{ident}\n" for expiry, ident in log)
    assert hashlib.sha256(text.encode()).hexdigest() == UNIV_PREFIX_LOG_SHA
    digest = hashlib.sha256(
        "".join(line + "\n" for line in events).encode()).hexdigest()
    assert (len(events), digest) == UNIV_PREFIX_EVENTS


def test_geometry_sweep_smoke(capsys):
    """scripts/geometry_sweep.py on a 2 us prefix: every 4096-slot
    geometry matches behavioral, and a 256-slot unit holds the whole
    prefix, so that array runs one unit for three phases per op."""
    path = REPO / "scripts" / "geometry_sweep.py"
    spec = importlib.util.spec_from_file_location("geometry_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.main(["--prefix-ns", "2000"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows[2:]] == [
        "16x256", "64x64", "256x16", "1024x4"]
    assert all(row[-1] == "ok" for row in rows[2:])
    assert rows[2][2:4] == ["3.000", "1"]
