"""timerq benchmark.

    python3 perfbench/run.py --workload univ_behavioral --seed 42 \
        --seconds 20 --trace 0

Runs one workload closed-loop (one process, one thread, each simulation
starting after the previous one ends) for about `--seconds` of host
time, checks every output against a second backend, and prints two
JSON lines: run metadata and sample counts, then the result
`{"correct", "attempted", "failed", "metrics"}`.  `--trace 0` reports
the end-to-end metrics, `--trace 1` the per-layer metrics of a
separate traced run.  Metric names and units are those listed in
`BENCHMARK.json`.  Exits 1 when any check fails and 2 when the timerq
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


def import_timerq() -> float:
    """Import timerq from this checkout's sources, never from an
    installed copy; returns the import time in seconds."""
    src = ROOT / "src"
    if not (src / "timerq" / "__init__.py").is_file():
        print(f"error: no timerq sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import timerq.harness
    import timerq.oracle
    elapsed = time.perf_counter() - start
    if Path(timerq.__file__).resolve().parent != src / "timerq":
        print(f"error: timerq imported from {timerq.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return elapsed


class Tally:
    """Output checks attempted and failed; feeds `failed_ratio`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def run_sim(sim, tally: Tally, what: str):
    """Time one simulation and check its result outside the timed
    region.  Returns host seconds, or None when it raised."""
    start = time.perf_counter()
    try:
        result = sim.run()
    except Exception:
        traceback.print_exc()
        tally.add(False, f"{what} raised")
        return None
    elapsed = time.perf_counter() - start
    tally.add(sim.check(result), what)
    return elapsed


def measure(workload, seconds: float, tally: Tally, tracer=None):
    """Run whole passes over the workload's inputs until the next pass
    would end past `seconds`; at least one pass.  Returns host seconds
    per pass, per simulation, and the simulated ops in one pass."""
    passes: list[float] = []
    sims: list[float] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        total = 0.0
        ops = 0
        for i, sim in enumerate(workload.sims()):
            if tracer is not None:
                tracer.run_id += 1
            elapsed = run_sim(sim, tally, f"{workload.name} pass "
                              f"{len(passes)} simulation {i}")
            if elapsed is not None:
                sims.append(elapsed)
                total += elapsed
            ops += sim.ops
        passes.append(total)
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > seconds:
            return passes, sims, ops


def p95(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def end_to_end(workload, seconds: float, tally: Tally, import_s: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    for ok in workload.prepare():
        tally.add(ok, f"{workload.name} reference check")
    passes, sims, ops = measure(workload, seconds, tally)
    run_s = statistics.median(passes)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "run_s": run_s,
        "sim_ops_per_s": ops / run_s,
        "sim_ms_p50": statistics.median(sims) * 1e3,
        "sim_ms_p95": p95(sims) * 1e3,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"setups": len(setups), "passes": len(passes),
               "simulations": len(sims)}
    return metrics, samples


def per_layer(workload, seconds: float, tally: Tally):
    import layers
    from tracer import Tracer

    tracer = Tracer()
    tracer.calibrate()
    layers.install(tracer)
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    for ok in workload.prepare():
        tally.add(ok, f"{workload.name} reference check")
    untraced, _, _ = measure(workload, seconds / 2, tally)
    layers.install(tracer)
    try:
        traced, _, _ = measure(workload, seconds / 2, tally, tracer)
    finally:
        tracer.uninstall()

    # unit-phase counts come from a separate pass, so formatting events
    # for the sink never lands inside the timed traced spans
    counter = None
    counted_ops = 0
    if workload.uses_systolic:
        counter = layers.EventCounter()
        for sim in workload.sims(event_sink=counter):
            run_sim(sim, tally, f"{workload.name} event-counting sim")
            counted_ops += sim.ops

    metrics = layers.derive(tracer, len(traced), counter, counted_ops,
                            statistics.median(untraced),
                            statistics.median(traced))
    spans_file = OUT_DIR / f"spans-{workload.name}.jsonl"
    tracer.write(spans_file)
    samples = {"untraced_passes": len(untraced),
               "traced_passes": len(traced),
               "spans_file": str(spans_file.relative_to(ROOT)),
               "spans_kept": len(tracer.spans),
               "spans_dropped": tracer.dropped}
    return metrics, samples


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((ROOT / "src" / "timerq").glob("*.py")))


def with_units(metrics: dict, declared: list[dict]) -> dict:
    names = [d["name"] for d in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json "
            f"{sorted(names)}")
    return {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
            for d in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_timerq()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make_workload(args.workload, args.seed, ROOT,
                                       OUT_DIR)
    tally = Tally()
    if args.trace:
        metrics, samples = per_layer(workload, args.seconds, tally)
        declared = spec["per_layer"]
    else:
        metrics, samples = end_to_end(workload, args.seconds, tally,
                                      import_s)
        declared = spec["end_to_end"]

    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "src_timerq_lines": src_lines(),
        "failed_ratio": tally.failed / max(tally.attempted, 1),
        **samples}))
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": with_units(metrics, declared)}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
