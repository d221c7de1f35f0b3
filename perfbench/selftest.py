"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with all checks
passing and every metric of BENCHMARK.json reported; shows that an
adapter which swaps two pops is counted as a failed check; and shows
that the benchmark exits non-zero without a result when the timerq
sources are missing.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

SEED = 7
TINY = {
    "univ_behavioral": {"traces": 2, "gen": {"flows": 200, "packets": 3000,
                                             "duration_ns": 40_000}},
    "univ_systolic": {"traces": 2, "prefix_ns": 1_500},
    "equiv_scripts": {"scripts": 4, "n_ops": 100},
}


class SwapFirstPops:
    """Adapter wrapper with an ordering bug: the first time two heads
    have expired at once, it hands them out in swapped order."""

    def __init__(self, inner):
        self.inner = inner
        self.held = None
        self.swapped = False

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def has_expired_head(self, wide_tick):
        return self.held is not None or self.inner.has_expired_head(wide_tick)

    def pop_head(self, wide_tick):
        if self.held is not None:
            held, self.held = self.held, None
            return held
        first = self.inner.pop_head(wide_tick)
        if not self.swapped and self.inner.has_expired_head(wide_tick):
            self.swapped = True
            self.held = first
            return self.inner.pop_head(wide_tick)
        return first

    def occupancy(self):
        return self.inner.occupancy() + (self.held is not None)


def swapping_factory(params):
    from timerq import harness

    # the array accepts one op per three cycles, so it cannot hand out
    # two heads in one slot; the bug goes into the other backends
    adapter = harness.make_adapter(params)
    return adapter if params.backend == "systolic" else SwapFirstPops(adapter)


def tiny(name: str, **overrides):
    import workloads

    return workloads.make_workload(name, SEED, run.ROOT, run.OUT_DIR,
                                   **{**TINY[name], **overrides})


def check_metrics(metrics: dict, declared: list[dict]):
    reported = run.with_units(metrics, declared)
    for name, entry in reported.items():
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{name} = {value!r}")


def main() -> int:
    run.import_timerq()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.OUT_DIR.mkdir(exist_ok=True)
    failures = []

    for name in workloads.WORKLOADS:
        for traced in (False, True):
            tally = run.Tally()
            if traced:
                metrics, _ = run.per_layer(tiny(name), 0, tally)
                check_metrics(metrics, spec["per_layer"])
            else:
                metrics, _ = run.end_to_end(tiny(name), 0, tally, 0.0)
                check_metrics(metrics, spec["end_to_end"])
            ok = tally.attempted > 0 and tally.failed == 0
            print(f"{name} trace={int(traced)}: {tally.failed} of "
                  f"{tally.attempted} checks failed")
            if not ok:
                failures.append(f"{name} trace={int(traced)}")

    for name in ("univ_behavioral", "equiv_scripts"):
        tally = run.Tally()
        run.end_to_end(tiny(name, adapter_factory=swapping_factory), 0,
                       tally, 0.0)
        print(f"{name} with swapped pops: {tally.failed} of "
              f"{tally.attempted} checks failed (expected > 0)")
        if tally.failed == 0:
            failures.append(f"{name} missed the swapped pops")

    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "univ_behavioral",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    print(f"without timerq sources: exit {proc.returncode}, "
          f"stdout {proc.stdout!r}")
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("ran without timerq sources")

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
