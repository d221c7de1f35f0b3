"""Trace handling, parameter files, and the driving engine, including
cross-backend agreement on a miniature run."""

import hashlib
import logging
import math
from dataclasses import replace

import pytest

from timerq.harness import (
    CapacityAbort,
    FlowTable,
    Packet,
    ParamsFileError,
    SimParams,
    BehavioralAdapter,
    SystolicAdapter,
    bundled_params,
    drive,
    gen_trace,
    load_params,
    load_trace,
    make_adapter,
    run,
    write_trace,
)
from timerq.oracle import OpScript, ScriptOp, replay
from conftest import CORPORA


def mini_params(**kw):
    base = dict(timeout=25, precision=1, data_width=9, timeout_width=7,
                id_width=6, capacity=32, cycle_time_ns=2.0)
    base.update(kw)
    return SimParams(**base)


class TestTraceFiles:
    def test_write_load_round_trip(self, tmp_path):
        pkts = gen_trace(5, 20, seed=3, duration_ns=1000)
        path = tmp_path / "t.csv"
        write_trace(path, pkts)
        back, skipped = load_trace(path)
        assert skipped == 0
        assert back == pkts

    def test_loads_sorted_even_if_file_is_not(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "900,10.0.0.1,10.0.0.2,5,6,6\n"
            "100,10.0.0.3,10.0.0.4,7,8,17\n")
        pkts, skipped = load_trace(path)
        assert skipped == 0
        assert [p.arrival_ns for p in pkts] == [100, 900]

    def test_malformed_rows_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "t.csv"
        path.write_text(
            "arrival_ns,src,dst,sport,dport,proto\n"
            "100,10.0.0.1,10.0.0.2,5,6,6\n"
            "200,10.0.0.1,10.0.0.2,5,6\n"          # short row
            "oops,10.0.0.1,10.0.0.2,5,6,6\n"       # non-numeric arrival
            "-3,10.0.0.1,10.0.0.2,5,6,6\n"         # negative arrival
            "300,10.0.0.9,10.0.0.2,5,6,17\n")
        with caplog.at_level(logging.WARNING, logger="timerq.harness"):
            pkts, skipped = load_trace(path)
        assert skipped == 3
        assert len(pkts) == 2
        assert len(caplog.records) == 3

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfarrival_ns,src,dst,sport,dport,proto\n"
                         b"100,10.0.0.1,10.0.0.2,5,6,6\n")
        pkts, skipped = load_trace(path)
        assert skipped == 0
        assert [p.arrival_ns for p in pkts] == [100]


class TestGenTrace:
    def test_deterministic_for_seed(self):
        a = gen_trace(10, 50, seed=11, duration_ns=5000)
        b = gen_trace(10, 50, seed=11, duration_ns=5000)
        c = gen_trace(10, 50, seed=12, duration_ns=5000)
        assert a == b
        assert a != c

    def test_flow_population(self):
        pkts = gen_trace(10, 50, seed=11, duration_ns=5000)
        assert len(pkts) == 50
        per_flow = {}
        for p in pkts:
            per_flow[p.flow] = per_flow.get(p.flow, 0) + 1
        assert len(per_flow) == 10
        assert min(per_flow.values()) >= 1
        assert all(0 <= p.arrival_ns <= 5000 for p in pkts)

    def test_rejects_fewer_packets_than_flows(self):
        with pytest.raises(ValueError):
            gen_trace(10, 9, seed=1, duration_ns=100)

    def test_rejects_negative_duration(self):
        # its negative arrivals would all be skipped by load_trace
        with pytest.raises(ValueError, match="^duration_ns -1000 is negative"):
            gen_trace(5, 20, seed=1, duration_ns=-1000)


class TestSimParams:
    def test_queue_config_mapping(self):
        cfg = mini_params().queue_config()
        assert (cfg.data_width, cfg.timeout_width, cfg.id_width) == (9, 7, 6)
        assert cfg.capacity == 32

    def test_rejects_zero_precision(self):
        with pytest.raises(ValueError, match="^precision "):
            mini_params(precision=0).check()

    @pytest.mark.parametrize("cycle_ns", [0.0, -2.0, math.nan, math.inf])
    def test_rejects_bad_cycle_time(self, cycle_ns):
        with pytest.raises(ValueError, match="^cycle_time_ns "):
            mini_params(cycle_time_ns=cycle_ns).check()

    @pytest.mark.parametrize("capacity,expect", [
        (4096, (64, 64)),
        (16, (4, 4)),
        (12, (4, 3)),
        (6, (3, 2)),
    ])
    def test_geometry_auto_factorization(self, capacity, expect):
        p = mini_params(capacity=capacity)
        n, m = p.geometry()
        assert (n, m) == expect
        assert n * m == capacity

    def test_geometry_explicit(self):
        p = mini_params(capacity=32, n_units=16, m_blocks=2)
        assert p.geometry() == (16, 2)

    def test_params_file_round_trip(self, tmp_path):
        path = tmp_path / "x.params"
        path.write_text(
            "# run shape\n"
            "timeout = 40\n"
            "precision = 3   # cycles per tick\n"
            "data_width = 10\n"
            "timeout_width = 8\n"
            "backend = systolic\n"
            "flows = 12\n"
            "label = smoke\n")
        params, extra = load_params(path)
        assert params.timeout == 40
        assert params.precision == 3
        assert params.data_width == 10
        assert params.backend == "systolic"
        assert extra == {"flows": 12, "label": "smoke"}

    def test_params_file_byte_order_mark(self, tmp_path):
        path = tmp_path / "x.params"
        path.write_bytes(b"\xef\xbb\xbftimeout = 10\nflows = 12\n")
        params, extra = load_params(path)
        assert params.timeout == 10
        assert extra == {"flows": 12}

    def test_params_overrides(self, tmp_path):
        path = tmp_path / "x.params"
        path.write_text("timeout = 40\n")
        params, _ = load_params(path, timeout=9, backend="wide")
        assert params.timeout == 9
        assert params.backend == "wide"

    def test_params_fault_blames_file_line_or_override(self, tmp_path):
        path = tmp_path / "x.params"
        path.write_text("timeout = 40\ncapacity = 1\n")
        with pytest.raises(ParamsFileError, match=r"x.params:2: capacity"):
            load_params(path)
        path.write_text("timeout = 40\n")
        with pytest.raises(ValueError, match=r"^timeout 0 outside") as exc:
            load_params(path, timeout=0)
        assert not isinstance(exc.value, ParamsFileError)

    def test_params_bad_line(self, tmp_path):
        path = tmp_path / "x.params"
        path.write_text("timeout 40\n")
        with pytest.raises(ValueError):
            load_params(path)

    def test_bundled_params_load(self):
        params, extra = load_params(bundled_params())
        assert params.capacity == 4096
        assert params.timeout == 191
        assert extra["flows"] == 2047
        assert extra["packets"] == 119870
        # suffix already present resolves to the same file
        assert load_params(bundled_params("univ_scale.params")) == (params, extra)


class TestFlowTable:
    def test_allocate_lookup_release_cycle(self):
        t = FlowTable(max_ident=3)
        a = t.allocate("fa")
        b = t.allocate("fb")
        assert (a, b) == (1, 2)
        assert t.lookup("fa") == 1
        assert len(t) == 2
        assert t.release(1) == "fa"
        assert t.lookup("fa") is None
        # freed id is recycled before untouched ones
        assert t.allocate("fc") == 1

    def test_exhaustion_returns_none(self):
        t = FlowTable(max_ident=2)
        assert t.allocate("fa") is not None
        assert t.allocate("fb") is not None
        assert t.allocate("fc") is None


class TestEngine:
    def test_single_flow_pops_at_exact_expiry(self):
        params = mini_params(timeout=10)
        pkts = [Packet(0, ("10.0.0.1", "10.0.0.2", 1, 2, 6))]
        log = []
        stats = run(params, pkts, dequeue_log=log)
        assert log == [(10, 1)]
        assert (stats.pushes, stats.inserts, stats.updates) == (1, 1, 0)
        assert stats.pops == 1
        assert stats.final_occupancy == 0
        # push issues at cycle 0; expiry is strict, so the pop lands on
        # the tick after the deadline and the run closes one cycle later
        assert stats.cycles == 12

    def test_refresh_moves_the_deadline(self):
        params = mini_params(timeout=10)
        flow = ("10.0.0.1", "10.0.0.2", 1, 2, 6)
        pkts = [Packet(0, flow), Packet(8, flow)]
        log = []
        stats = run(params, pkts, dequeue_log=log)
        # second packet lands at cycle 4 = tick 4, so expiry moves to 14
        assert log == [(14, 1)]
        assert (stats.inserts, stats.updates, stats.pops) == (1, 1, 1)

    def test_capacity_abort_on_fifth_flow(self):
        params = mini_params(timeout=100, capacity=4, id_width=3)
        pkts = [Packet(0, ("h", str(i), 1, 2, 6)) for i in range(5)]
        with pytest.raises(CapacityAbort):
            run(params, pkts)

    def test_max_cycles_guard(self):
        params = mini_params(timeout=100)
        pkts = [Packet(0, ("10.0.0.1", "10.0.0.2", 1, 2, 6))]
        with pytest.raises(RuntimeError):
            run(params, pkts, max_cycles=20)

    def test_occupancy_series_sampling(self):
        params = mini_params(timeout=60, precision=2)
        pkts = gen_trace(8, 40, seed=5, duration_ns=600)
        series = []
        stats = run(params, pkts, occupancy_series=series, sample_ticks=8)
        assert series
        ticks = [t for t, _ in series]
        assert ticks == sorted(ticks)
        assert all(t % 8 == 0 for t in ticks)
        assert all(0 <= occ <= stats.max_occupancy for _, occ in series)

    def test_refused_op_is_a_model_fault(self):
        # the engine issues only at open gates, so a closed gate at an
        # issue means the model is broken, not back-pressured
        params = mini_params(timeout=10, capacity=4, id_width=3)
        adapter = SystolicAdapter(params.queue_config(), 2, 2)
        with pytest.raises(RuntimeError, match="empty"):
            adapter.pop_head(0)
        adapter.push(1, 0, 10)
        adapter.settle()
        adapter.queue.issue_gate = 1
        for kind, issue in (("push", lambda: adapter.push(2, 0, 10)),
                            ("remove", lambda: adapter.remove(1)),
                            ("pop", lambda: adapter.pop_head(20))):
            with pytest.raises(RuntimeError, match=f"refused a {kind}"):
                issue()
        assert adapter.occupancy() == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_adapter(mini_params(backend="quantum"))


class TestBackendAgreement:
    def _mini_run(self, backend, **kw):
        params = mini_params(backend=backend, capacity=64, id_width=7, **kw)
        pkts = gen_trace(30, 150, seed=7, duration_ns=4000)
        log = []
        stats = run(params, pkts, dequeue_log=log)
        return log, stats.to_text()

    def test_three_backends_byte_identical(self):
        logs = {}
        texts = {}
        for backend in ("behavioral", "systolic", "wide"):
            logs[backend], texts[backend] = self._mini_run(backend)
        assert logs["behavioral"] == logs["systolic"] == logs["wide"]
        assert texts["behavioral"] == texts["systolic"] == texts["wide"]

    def test_wide_shallow_array_spans_units(self):
        """A 4x64 array with more live flows than one unit holds, so the
        systolic run pulls elements across unit boundaries and compacts
        the head holes those pulls leave."""
        pkts = gen_trace(150, 300, seed=7, duration_ns=1200)
        results = {}
        for backend in ("behavioral", "systolic", "wide"):
            params = mini_params(backend=backend, timeout=127, precision=4,
                                 capacity=256, id_width=9, n_units=4,
                                 m_blocks=64)
            log = []
            results[backend] = (log, run(params, pkts, dequeue_log=log))
        assert (results["behavioral"] == results["systolic"]
                == results["wide"])
        assert results["systolic"][1].max_occupancy > 64

    def test_register_width_does_not_change_behavior(self):
        narrow = self._mini_run("behavioral", data_width=10)
        wide = self._mini_run("behavioral", data_width=12)
        assert narrow == wide


def _digest(rows) -> str:
    text = "\n".join(",".join(map(str, row)) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


UNIV_STATS = (
    "packets=119870\npushes=119870\ninserts=73014\nupdates=46856\n"
    "pops=73014\nmax_occupancy=256\nfinal_occupancy=0\ncycles=579286\n"
    "ticks=96547\nops_accepted=192884\nidle_cycles=636\n"
    "duration_ns=1158572.000000\nmodeled_mpps=166.484258\n")
UNIV_LOG_SHA = "fcdc836c322c6b7716b4044b2ff1c47cf80f951283a3d9e84c9dcf0e5581ef2d"
UNIV_SERIES_SHA = (
    "ec4225166c2bae798164e0f224c5b0f61a052750bbd091b615997f7d90799966")
UNIV_PUSH_SHA = (
    "67a18569b18f92c1577c0029687d2b48965fd15369e373193e61f147de9d8756")


@pytest.mark.parametrize("backend", ["behavioral", "wide"])
def test_univ_scale_reference_pinned(backend):
    """The bundled univ_scale run on the reference backends, pinned:
    stats, dequeue log, occupancy series and, on behavioral, the
    insertion layouts and every push's (was_update, position)."""
    params, extra = load_params(bundled_params())
    params = replace(params, backend=backend)
    packets = gen_trace(extra["flows"], extra["packets"], extra["seed"],
                        extra["duration_ns"])
    adapter = make_adapter(params)
    reports = []
    if backend == "behavioral":
        push = adapter.queue.push

        def recording_push(ident, data):
            report = push(ident, data)
            reports.append((int(report.was_update), report.position))
            return report

        adapter.queue.push = recording_push
    log, series = [], []
    stats = drive(packets, adapter, params, dequeue_log=log,
                  occupancy_series=series, sample_ticks=16)
    assert stats.to_text() == UNIV_STATS
    assert (len(log), _digest(log)) == (73014, UNIV_LOG_SHA)
    assert (len(series), _digest(series)) == (6034, UNIV_SERIES_SHA)
    if backend == "behavioral":
        assert adapter.queue.insert_case_counts == {
            (0, 0): 55484, (0, 1): 5716, (1, 0): 5449, (1, 1): 53220}
        assert (len(reports), _digest(reports)) == (119870, UNIV_PUSH_SHA)


class CountingAdapter(BehavioralAdapter):
    """The reference adapter, counting the cycles it is stepped."""

    def __init__(self, config):
        super().__init__(config)
        self.stepped = 0

    def step(self, cycles):
        self.stepped += cycles


def test_adapter_stepped_through_every_cycle():
    """The arbiter steps the adapter once per issue slot, by the slot's
    length, so a trace or script run steps it through exactly the
    cycles the run lasts."""
    params = mini_params(timeout=60, precision=2)
    pkts = gen_trace(20, 120, seed=5, duration_ns=3000)
    adapter = CountingAdapter(params.queue_config())
    stats = drive(pkts, adapter, params)
    assert stats.pops
    assert adapter.stepped == stats.cycles

    for name in ("short_to.script", "mid_to.script", "long_to.script"):
        script = OpScript.load(CORPORA / name)
        adapter = CountingAdapter(script.params.queue_config())
        result = replay(script, lambda p: adapter)
        assert result.aborted is None and result.pops
        assert adapter.stepped == result.cycles
