"""The benchmark's three workloads.

Each workload builds its inputs from one seed in `setup`, computes the
outputs it checks against in `prepare` (never timed), and yields its
simulations from `sims`.  A `Sim` pairs the timed call with the check
of its result, so the measuring loop can time one and not the other.

Every check compares two backends on the same input rather than a
stored digest, so the checks hold on any seed:

- univ_behavioral: behavioral dequeue stream and SimStats against the
  `wide` oracle backend; at the default seed, also the published
  univ_scale counts.
- univ_systolic: systolic stream and SimStats against `behavioral`.
- equiv_scripts: `oracle.check_equivalence` itself, plus the committed
  corpora replayed on every backend against `corpora/golden_pops.txt`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from timerq import harness, oracle

# the seed in the bundled univ_scale params: at this seed the first
# trace of each univ workload is the bundled trace
DEFAULT_SEED = 42

# univ_scale counts published for the bundled trace; every backend
# reproduces them
PUBLISHED_UNIV = {"cycles": 579_286, "ops_accepted": 192_884,
                  "pops": 73_014, "max_occupancy": 256}

CORPORA = ("short_to.script", "mid_to.script", "long_to.script")


def derived_seeds(seed: int, count: int) -> list[int]:
    """The seed itself, then independent draws from it, so that two
    neighbouring benchmark seeds share no trace."""
    rng = random.Random(seed)
    return [seed] + [rng.randrange(1 << 31) for _ in range(count - 1)]


@dataclass
class Sim:
    run: Callable[[], object]        # the timed call
    check: Callable[[object], bool]  # untimed check of its result
    ops: int                         # simulated ops the call accepts


def with_backend(backend: str, **geometry) -> Callable:
    def factory(params):
        return harness.make_adapter(replace(params, backend=backend,
                                            **geometry))
    return factory


def attach_sink(adapter, event_sink):
    if event_sink is not None:
        adapter.queue.event_sink = event_sink
    return adapter


@dataclass
class TraceCase:
    params: harness.SimParams
    packets: list
    ref_stats: harness.SimStats | None = None
    ref_log: list | None = None


class UnivWorkload:
    """Trace runs through `harness.drive`, one simulation per trace.

    A pass covers several traces drawn from the seed: with Pareto-skewed
    flow sizes the work in one trace varies from seed to seed, and the
    mean over several traces is what stays steady.
    """

    name = ""
    backend = ""
    reference = ""
    geometry: dict = {}
    uses_systolic = False
    published: dict | None = None   # counts the first trace must give

    def __init__(self, seed: int, out_dir, *, traces: int,
                 gen: dict | None = None,
                 adapter_factory: Callable = harness.make_adapter):
        self.seed = seed
        self.out_dir = out_dir
        self.traces = traces
        self.gen = gen or {}
        self.adapter_factory = adapter_factory
        self.cases: list[TraceCase] = []

    def setup(self):
        params, extra = harness.load_params(
            harness.bundled_params("univ_scale"))
        params = replace(params, backend=self.backend, **self.geometry)
        gen = {k: extra[k] for k in ("flows", "packets", "duration_ns")}
        gen.update(self.gen)
        seeds = derived_seeds(self.seed, self.traces)
        self.cases = [TraceCase(params, self.packets(k, gen, seed))
                      for k, seed in enumerate(seeds)]
        # building an adapter is part of set-up; each simulation builds
        # its own fresh one outside the timed region
        self.adapter_factory(params)

    def packets(self, k: int, gen: dict, seed: int) -> list:
        return harness.gen_trace(seed=seed, **gen)

    def prepare(self) -> list[bool]:
        checks = []
        for case in self.cases:
            case.ref_log = []
            case.ref_stats = harness.drive(
                case.packets, with_backend(self.reference)(case.params),
                case.params, dequeue_log=case.ref_log)
        if self.published and self.seed == DEFAULT_SEED and not self.gen:
            stats = self.cases[0].ref_stats
            checks.append(all(getattr(stats, k) == v
                              for k, v in self.published.items()))
        return checks

    def sims(self, event_sink=None):
        for case in self.cases:
            yield self._sim(case, event_sink)

    def _sim(self, case: TraceCase, event_sink) -> Sim:
        adapter = attach_sink(self.adapter_factory(case.params), event_sink)
        log: list = []

        def run():
            return harness.drive(case.packets, adapter, case.params,
                                 dequeue_log=log)

        def check(stats) -> bool:
            return stats == case.ref_stats and log == case.ref_log

        return Sim(run, check, case.ref_stats.ops_accepted)


class UnivBehavioral(UnivWorkload):
    """Whole univ_scale-sized traces on the sorted reference model: the
    `drive` loop and `BehavioralQueue` do the work, `systolic` none."""

    name = "univ_behavioral"
    backend = "behavioral"
    reference = "wide"
    published = PUBLISHED_UNIV


class UnivSystolic(UnivWorkload):
    """A fixed arrival-time prefix of each trace, written to CSV and read
    back through `harness.load_trace` (the `timerq run --trace` path), on
    the 64x64 cycle-accurate array.  Peak occupancy stays near 256 of
    4096, so the array is wide and shallow and most units idle."""

    name = "univ_systolic"
    backend = "systolic"
    reference = "behavioral"
    geometry = {"n_units": 64, "m_blocks": 64}
    uses_systolic = True

    def __init__(self, seed: int, out_dir, *, traces: int, prefix_ns: int,
                 **kwargs):
        super().__init__(seed, out_dir, traces=traces, **kwargs)
        self.prefix_ns = prefix_ns

    def packets(self, k: int, gen: dict, seed: int) -> list:
        path = self.out_dir / f"{self.name}-{k}.csv"
        trace = harness.gen_trace(seed=seed, **gen)
        harness.write_trace(path, [p for p in trace
                                   if p.arrival_ns < self.prefix_ns])
        packets, skipped = harness.load_trace(path)
        if skipped:
            raise RuntimeError(f"{path}: {skipped} lines skipped on reload")
        return packets


class EquivScripts:
    """Seeded op scripts, each checked twice with
    `oracle.check_equivalence`: behavioral against systolic on a deep,
    narrow 8x2 array that fills up, and behavioral against wide.

    One simulation is a pair of scripts, one per register width.  A 9/7
    script takes about twice as long as a 6/4 one, so per-script latency
    has two modes and its median falls in the gap between them, where
    it jumps from seed to seed; the latency of a pair has one mode.
    """

    name = "equiv_scripts"
    uses_systolic = True
    geometry = {"n_units": 8, "m_blocks": 2}

    def __init__(self, seed: int, corpora_dir, *, scripts: int,
                 n_ops: int = 400,
                 adapter_factory: Callable = harness.make_adapter):
        self.seed = seed
        self.corpora_dir = corpora_dir
        self.n_scripts = scripts
        self.n_ops = n_ops
        self.adapter_factory = adapter_factory
        self.scripts: list = []
        self.corpora: dict = {}
        self.golden: dict = {}
        self.ops: list[int] = []

    def setup(self):
        self.scripts = []
        for k, seed in enumerate(derived_seeds(self.seed, self.n_scripts)):
            # widths alternate as in the acceptance gate
            width, to_width = (6, 4) if k % 2 else (9, 7)
            self.scripts.append(oracle.make_script(
                seed, self.n_ops, data_width=width, timeout_width=to_width,
                id_width=6, capacity=16, pool=16, remove_rate=0.15))
        self.corpora = {name: oracle.OpScript.load(self.corpora_dir / name)
                        for name in CORPORA}
        self.golden = read_golden(self.corpora_dir / "golden_pops.txt")

    def prepare(self) -> list[bool]:
        behavioral = with_backend("behavioral")
        self.ops = []
        for script in self.scripts:
            cov = oracle.replay(script, behavioral).coverage
            ops = (cov.inserts + cov.updates + cov.removes_found
                   + cov.removes_missing + cov.pops)
            # two checks per script, each replaying the script twice
            self.ops.append(4 * ops)
        backends = (behavioral, with_backend("systolic", **self.geometry),
                    with_backend("wide"))
        checks = []
        for name, script in self.corpora.items():
            for factory in backends:
                result = oracle.replay(script, factory)
                checks.append(result.aborted is None
                              and result.pops == self.golden.get(name))
        return checks

    def sims(self, event_sink=None):
        for k in range(0, len(self.scripts), 2):
            yield self._sim(self.scripts[k:k + 2], sum(self.ops[k:k + 2]),
                            event_sink)

    def _sim(self, scripts: list, ops: int, event_sink) -> Sim:
        behavioral = with_backend("behavioral")
        make = self.adapter_factory

        def systolic(params):
            return attach_sink(make(replace(params, backend="systolic",
                                            **self.geometry)), event_sink)

        def wide(params):
            return make(replace(params, backend="wide"))

        def run():
            return [oracle.check_equivalence(script, behavioral, right)
                    for script in scripts for right in (systolic, wide)]

        def check(divergences) -> bool:
            return all(d is None for d in divergences)

        return Sim(run, check, ops)


def read_golden(path) -> dict[str, list[tuple[int, int]]]:
    golden: dict = {}
    current = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                current = golden.setdefault(line[1:].strip(), [])
            elif line:
                expiry, ident = line.split(",")
                current.append((int(expiry), int(ident)))
    return golden


WORKLOADS = ("univ_behavioral", "univ_systolic", "equiv_scripts")


def make_workload(name: str, seed: int, root, out_dir, **overrides):
    """The workload at benchmark size; `overrides` shrink it for the
    self-test or substitute its adapter factory."""
    if name == "univ_behavioral":
        return UnivBehavioral(seed, out_dir, **{"traces": 4, **overrides})
    if name == "univ_systolic":
        return UnivSystolic(seed, out_dir, **{"traces": 16,
                                              "prefix_ns": 6_000,
                                              **overrides})
    if name == "equiv_scripts":
        return EquivScripts(seed, root / "corpora",
                            **{"scripts": 200, **overrides})
    raise ValueError(f"unknown workload {name!r}")
