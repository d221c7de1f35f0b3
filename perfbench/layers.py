"""Where the tracer wraps each timerq layer, and the per-layer metrics
derived from what it records.

Layers are the package modules: `harness` (trace I/O, the `drive`
engine loop, flow table, backend adapters), `core` (`BehavioralQueue`),
`systolic` (`SystolicQueue`) and `oracle` (`replay`, `WideOracleQueue`,
`WideAdapter`, `check_equivalence`).  `cli` is only argparse and
printing and gets no row.
"""

from __future__ import annotations

from timerq import core, harness, oracle, systolic

from tracer import Tracer

ADAPTERS = ((harness.BehavioralAdapter, "harness"),
            (harness.SystolicAdapter, "harness"),
            (oracle.WideAdapter, "oracle"))
ADAPTER_METHODS = ("push", "pop_head", "has_expired_head", "ready", "step",
                   "remove")
# set-up work, kept out of the engine's per-cycle self time
SETUP_SPANS = ("harness.gen_trace", "harness.load_trace",
               "harness.load_params")


def _push_kind(args, result, tracer):
    tracer.remember("core", args[0])
    return ".update" if result.was_update else ".insert"


def _ready(args, result, tracer):
    return "" if result else ".busy"


def _systolic_step(args, result, tracer):
    tracer.remember("systolic", args[0])
    return ""


def _drive(args, stats, tracer):
    tracer.counts["engine.cycles"] += stats.cycles
    tracer.counts["engine.ops"] += stats.ops_accepted
    return ""


def _replay(args, result, tracer):
    cov = result.coverage
    tracer.counts["engine.cycles"] += result.cycles
    tracer.counts["replay.cycles"] += result.cycles
    tracer.counts["engine.ops"] += (cov.inserts + cov.updates
                                    + cov.removes_found
                                    + cov.removes_missing + cov.pops)
    return ""


def _load_trace(args, result, tracer):
    tracer.counts["load_trace.packets"] += len(result[0])
    return ""


def install(tracer: Tracer):
    """Wrap every public entry point of every layer."""
    for fn, hook in (("gen_trace", None), ("load_trace", _load_trace),
                     ("load_params", None), ("drive", _drive)):
        tracer.wrap(harness, fn, f"harness.{fn}", hook)
    for cls, layer in ADAPTERS:
        for method in ADAPTER_METHODS:
            tracer.wrap(cls, method, f"{layer}.{cls.__name__}.{method}",
                        _ready if method == "ready" else None)
    for method, hook in (("push", _push_kind), ("pop", None),
                         ("peek", None), ("remove", None)):
        tracer.wrap(core.BehavioralQueue, method,
                    f"core.BehavioralQueue.{method}", hook)
    for method, hook in (("issue", None), ("step", _systolic_step),
                         ("peek", None), ("drain", None)):
        tracer.wrap(systolic.SystolicQueue, method,
                    f"systolic.SystolicQueue.{method}", hook)
    for method in ("push", "peek_expired", "pop_expired"):
        tracer.wrap(oracle.WideOracleQueue, method,
                    f"oracle.WideOracleQueue.{method}")
    for fn, hook in (("make_script", None), ("replay", _replay),
                     ("check_equivalence", None)):
        tracer.wrap(oracle, fn, f"oracle.{fn}", hook)


class EventCounter:
    """`SystolicQueue.event_sink` that counts unit-phases (one event per
    phase a unit runs) and the distinct units that ran any."""

    def __init__(self):
        self.events = 0
        self.units: set[str] = set()

    def __call__(self, line: str):
        self.events += 1
        self.units.add(line.split(",", 2)[1])


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def derive(tracer: Tracer, passes: int, phases: EventCounter | None,
           counted_ops: int, untraced_run_s: float,
           traced_run_s: float) -> dict[str, float]:
    """Per-layer metrics from a traced run of `passes` passes, plus an
    untraced event-counting pass (`phases`, `counted_ops`) over the same
    inputs.  A layer that did no work on the workload reads 0."""
    t = tracer
    cycles = t.counts["engine.cycles"]
    ops = t.counts["engine.ops"]
    ready_true = sum(t.calls(f"{layer}.{cls.__name__}.ready")
                     for cls, layer in ADAPTERS)
    steps = sum(t.calls(f"{layer}.{cls.__name__}.step")
                for cls, layer in ADAPTERS)
    m = {
        "harness.self_ns_per_cycle": _ratio(
            t.layer_self_ns("harness", exclude=SETUP_SPANS), cycles),
        "harness.step_calls_per_op": _ratio(steps, ops),
        "harness.gate_wait_ratio": _ratio(cycles - ready_true, cycles),
        "core.push_insert_ns": t.mean_ns("core.BehavioralQueue.push.insert"),
        "core.push_update_ns": t.mean_ns("core.BehavioralQueue.push.update"),
        "core.pop_ns": t.mean_ns("core.BehavioralQueue.pop"),
        "core.peek_ns": t.mean_ns("core.BehavioralQueue.peek"),
    }
    cases: dict = {}
    for queue in t.seen.get("core", {}).values():
        for (h, e), n in queue.insert_case_counts.items():
            cases[f"h{h}e{e}"] = cases.get(f"h{h}e{e}", 0) + n
    total_cases = sum(cases.values())
    for h in (0, 1):
        for e in (0, 1):
            m[f"core.insert_case.h{h}e{e}"] = _ratio(
                cases.get(f"h{h}e{e}", 0), total_cases)

    unit_phases = phases.events if phases else 0
    systolic_ns_per_pass = _ratio(t.layer_self_ns("systolic"), passes)
    m.update({
        "systolic.step_ns": t.mean_ns("systolic.SystolicQueue.step"),
        "systolic.issue_ns": t.mean_ns("systolic.SystolicQueue.issue"),
        "systolic.peek_ns": t.mean_ns("systolic.SystolicQueue.peek"),
        "systolic.unit_phases_per_op": _ratio(unit_phases, counted_ops),
        "systolic.ns_per_unit_phase": _ratio(systolic_ns_per_pass,
                                             unit_phases),
        "systolic.units_touched": len(phases.units) if phases else 0,
    })
    rows: dict = {}
    for queue in t.seen.get("systolic", {}).values():
        for key, n in queue.row_counts.items():
            rows[key] = rows.get(key, 0) + n
    total_rows = sum(rows.values())
    for found_id in (False, True):
        for found_rank in (False, True):
            m[f"systolic.row.{_row(found_id, found_rank)}"] = _ratio(
                rows.get((found_id, found_rank), 0), total_rows)
    m.update({
        "oracle.replay_self_ns_per_cycle": _ratio(
            t.self_ns("oracle.replay"),
            t.counts["replay.cycles"]),
        "oracle.wide_push_ns": t.mean_ns("oracle.WideOracleQueue.push"),
        "oracle.wide_peek_ns": t.mean_ns(
            "oracle.WideOracleQueue.peek_expired"),
        "oracle.replays_per_check": _ratio(
            t.calls("oracle.replay"), t.calls("oracle.check_equivalence")),
        "harness.gen_trace_s": t.mean_ns("harness.gen_trace") / 1e9,
        "harness.load_trace_pkts_per_s": _ratio(
            t.counts["load_trace.packets"],
            t.total_ns("harness.load_trace") / 1e9),
        "oracle.make_script_ms": t.mean_ns("oracle.make_script") / 1e6,
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_s": traced_run_s - untraced_run_s,
    })
    return m


def _row(found_id: bool, found_rank: bool) -> str:
    return ("t" if found_id else "f") + ("t" if found_rank else "f")
