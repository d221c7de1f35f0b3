"""Oracle queue, op scripts, replay, and the equivalence checker,
pinned against the committed corpus and its golden dequeue log."""

import bisect
from dataclasses import replace

import pytest

from timerq.core import QueueConfig, expiry_tick, is_expired, make_expiration
from timerq.harness import BehavioralAdapter, SimParams, make_adapter
from timerq.oracle import (
    Coverage,
    OpScript,
    ScriptOp,
    WideOracleQueue,
    check_equivalence,
    make_script,
    replay,
)
from conftest import CORPORA

CORPUS_NAMES = ("short_to.script", "mid_to.script", "long_to.script")


def behavioral(params):
    return make_adapter(replace(params, backend="behavioral"))


def systolic(params):
    return make_adapter(replace(params, backend="systolic"))


def wide(params):
    return make_adapter(replace(params, backend="wide"))


def load_corpus():
    return {name: OpScript.load(CORPORA / name) for name in CORPUS_NAMES}


def load_golden():
    golden = {}
    current = None
    for line in (CORPORA / "golden_pops.txt").read_text().splitlines():
        if line.startswith("#"):
            current = line[1:].strip()
            golden[current] = []
        elif line:
            expiry, ident = line.split(",")
            golden[current].append((int(expiry), int(ident)))
    return golden


class TestWideOracleQueue:
    def test_orders_by_expiry(self):
        q = WideOracleQueue()
        q.push(1, 0, 10)
        q.push(2, 0, 5)
        assert q.peek_expired(5) is None      # strict: not expired at 5
        assert q.pop_expired(6) == (5, 2)
        assert q.pop_expired(10) is None
        assert q.pop_expired(11) == (10, 1)
        assert len(q) == 0

    def test_ties_pop_in_arrival_order(self):
        q = WideOracleQueue()
        q.push(3, 0, 10)
        q.push(1, 0, 10)
        q.push(2, 0, 10)
        assert [q.pop_expired(11)[1] for _ in range(3)] == [3, 1, 2]

    def test_update_replaces_deadline(self):
        q = WideOracleQueue()
        q.push(1, 0, 5)
        q.push(1, 3, 10)
        assert q.peek_expired(6) is None      # stale entry must not fire
        assert q.pop_expired(14) == (13, 1)
        assert len(q) == 0

    def test_remove(self):
        q = WideOracleQueue()
        q.push(1, 0, 5)
        assert q.remove(1)
        assert not q.remove(1)
        assert q.pop_expired(100) is None

    def test_max_expiry_tracks_high_water(self):
        q = WideOracleQueue()
        q.push(1, 0, 5)
        q.push(2, 10, 20)
        q.push(1, 2, 3)
        assert q.max_expiry == 30


class TestMakeScript:
    def test_deterministic(self):
        assert make_script(5) == make_script(5)
        assert make_script(5) != make_script(6)

    def test_single_timeout_class(self):
        script = make_script(9, n_ops=200)
        timeouts = {op.timeout for op in script.ops if op.kind == "push"}
        assert len(timeouts) == 1

    def test_explicit_timeout_honored(self):
        script = make_script(9, timeout=31)
        assert {op.timeout for op in script.ops if op.kind == "push"} == {31}

    def test_timeout_range_checked(self):
        with pytest.raises(ValueError):
            make_script(9, timeout_width=7, timeout=200)

    def test_pool_must_fit(self):
        with pytest.raises(ValueError):
            make_script(9, capacity=8, pool=9)

    def test_text_round_trip(self):
        script = make_script(13, n_ops=50)
        assert OpScript.from_text(script.to_text()) == script

    def test_file_round_trip(self, tmp_path):
        script = make_script(14, n_ops=20)
        path = tmp_path / "s.script"
        script.save(path)
        assert OpScript.load(path) == script

    def test_load_skips_byte_order_mark(self, tmp_path):
        script = make_script(14, n_ops=20)
        path = tmp_path / "s.script"
        path.write_bytes(b"\xef\xbb\xbf" + script.to_text().encode())
        assert OpScript.load(path) == script

    def test_from_text_rejects_missing_params(self):
        with pytest.raises(ValueError):
            OpScript.from_text("3 push 5 9\n")

    def test_from_text_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            OpScript.from_text(
                "params data_width=9 timeout_width=7 id_width=6 "
                "capacity=16 precision=1\n3 shuffle 5\n")

    def test_from_text_rejects_unknown_param(self):
        with pytest.raises(ValueError):
            OpScript.from_text("params data_width=9 flavor=3\n")


class TestCorpusRegression:
    """The committed scripts must replay to the committed dequeue log,
    bit for bit, on both modular backends."""

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_behavioral_matches_golden(self, name):
        script = OpScript.load(CORPORA / name)
        result = replay(script, behavioral)
        assert result.aborted is None
        assert result.pops == load_golden()[name]

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_systolic_matches_golden(self, name):
        script = OpScript.load(CORPORA / name)
        result = replay(script, systolic)
        assert result.aborted is None
        assert result.pops == load_golden()[name]

    def test_corpus_covers_every_op_class(self):
        cov = Coverage()
        for script in load_corpus().values():
            cov.merge(replay(script, behavioral).coverage)
        assert cov.all_classes_hit()
        assert (cov.inserts, cov.updates) == (259, 516)
        assert (cov.removes_found, cov.removes_missing) == (80, 45)
        assert (cov.wrap_pushes, cov.pops) == (93, 179)

    def test_corpus_outlives_the_register_width(self):
        script = OpScript.load(CORPORA / "long_to.script")
        result = replay(script, behavioral)
        assert result.wide_bits_needed > script.params.data_width

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_three_way_equivalence(self, name):
        script = OpScript.load(CORPORA / name)
        assert check_equivalence(script, behavioral, wide) is None
        assert check_equivalence(script, behavioral, systolic) is None


class RawSortAdapter:
    """Deliberately broken reference: sorts by the raw modular value
    with no wrap grouping, so a wrapped entry cuts the whole line."""

    def __init__(self, config: QueueConfig):
        self.config = config
        self.items = []     # (data, seq) ascending
        self.idents = {}    # (data, seq) -> ident
        self._seq = 0

    def ready(self):
        return True

    def step(self, cycles):
        pass

    def has_expired_head(self, wide_tick):
        if not self.items:
            return False
        return is_expired(self.items[0][0], wide_tick & self.config.data_mask,
                          self.config.data_width)

    def pop_head(self, wide_tick):
        key = self.items.pop(0)
        ident = self.idents.pop(key)
        return expiry_tick(key[0], wide_tick, self.config.data_width), ident

    def push(self, ident, wide_tick, timeout):
        self.remove(ident)
        data = make_expiration(wide_tick & self.config.data_mask, timeout,
                               self.config.data_width,
                               self.config.timeout_width)
        key = (data, self._seq)
        self._seq += 1
        bisect.insort(self.items, key)
        self.idents[key] = ident
        return True

    def remove(self, ident):
        for key, owner in self.idents.items():
            if owner == ident:
                self.items.remove(key)
                del self.idents[key]
                return True
        return False

    def settle(self):
        pass

    def occupancy(self):
        return len(self.items)


def straddle_script():
    """Two pushes whose expirations straddle the wrap point: the later
    one wraps to a small value, which a raw sort promotes to the head."""
    params = SimParams(timeout=1, data_width=9, timeout_width=7, id_width=6,
                       capacity=16, precision=1)
    return OpScript(params, [
        ScriptOp(400, "push", 1, 100),   # expires 500, stays below the wrap
        ScriptOp(420, "push", 2, 100),   # expires 520, wraps to 8
        ScriptOp(430, "push", 3, 100),   # padding after the interesting pair
        ScriptOp(440, "push", 3, 100),
    ])


class TestEquivalenceChecker:
    def test_raw_sort_foil_is_caught_and_shrunk(self):
        d = check_equivalence(straddle_script(), behavioral,
                              lambda p: RawSortAdapter(p.queue_config()))
        assert d is not None
        assert d.index == 0
        assert {d.left, d.right} == {(500, 1), (520, 2)}
        # the two trailing pushes are not needed to reproduce
        assert d.prefix_len == 2
        assert "diverges at index 0" in str(d)

    def test_grouped_backends_pass_where_the_foil_fails(self):
        script = straddle_script()
        assert check_equivalence(script, behavioral, wide) is None
        assert check_equivalence(script, behavioral, systolic) is None

    def test_wedged_backend_reads_as_aborted(self):
        class StuckAdapter(BehavioralAdapter):
            def has_expired_head(self, wide_tick):
                return False

        script = make_script(3, n_ops=5)
        result = replay(script, lambda p: StuckAdapter(p.queue_config()))
        assert result.aborted is not None
        assert "no convergence" in result.aborted

    def test_leaky_backend_reads_as_aborted(self):
        class DeafRemoveAdapter(BehavioralAdapter):
            def remove(self, ident):
                return False    # claims the search missed, keeps the entry

        params = SimParams(timeout=1, data_width=9, timeout_width=7,
                           id_width=6, capacity=16, precision=1)
        script = OpScript(params, [
            ScriptOp(0, "push", 1, 100),
            ScriptOp(1, "remove", 1),
        ])
        result = replay(script, lambda p: DeafRemoveAdapter(p.queue_config()))
        assert result.aborted is not None
        assert "left after final pop" in result.aborted

    def test_divergence_surfaces_the_abort_note(self):
        class StuckAdapter(BehavioralAdapter):
            def has_expired_head(self, wide_tick):
                return False

        d = check_equivalence(make_script(3, n_ops=5), behavioral,
                              lambda p: StuckAdapter(p.queue_config()),
                              shrink=False)
        assert d is not None
        assert d.note


class TestCoverage:
    def test_merge_and_all_classes(self):
        a = Coverage(inserts=1)
        b = Coverage(updates=2, pops=3)
        a.merge(b)
        assert (a.inserts, a.updates, a.pops) == (1, 2, 3)
        assert not a.all_classes_hit()
        a.merge(Coverage(removes_found=1, removes_missing=1, wrap_pushes=1))
        assert a.all_classes_hit()

    def test_replay_counts_update_vs_insert(self):
        params = SimParams(timeout=1, data_width=9, timeout_width=7,
                           id_width=6, capacity=16, precision=1)
        script = OpScript(params, [
            ScriptOp(0, "push", 1, 20),
            ScriptOp(2, "push", 1, 20),     # same id still queued: update
            ScriptOp(4, "remove", 1),
            ScriptOp(6, "remove", 1),       # second remove misses
            ScriptOp(8, "push", 2, 20),
        ])
        result = replay(script, behavioral)
        cov = result.coverage
        assert (cov.inserts, cov.updates) == (2, 1)
        assert (cov.removes_found, cov.removes_missing) == (1, 1)
        assert cov.pops == 1
        # the issue gate spaces script ops three cycles apart, so the
        # last push lands at tick 12 and expires at 32
        assert result.pops == [(32, 2)]
