"""Flow-timeout simulation harness.

`arbitrate` is the one engine loop and the one end of every run.  It
models the array's one-op-per-three-cycles interface: it steps every
backend from issue slot to issue slot, and each slot goes to an op
source's next op or to an expired head, alternating when both wait;
then it checks that the backend drained, within a derived cycle bound.
`drive` is the trace source (each packet pushes or refreshes its flow's
expiration entry); `oracle.replay` is the script source.  Backends sit
behind `Adapter` subclasses, so all of them run the same loop and
compare stream-for-stream.

Time bases: one cycle is `cycle_time_ns` nanoseconds, one timer tick is
`precision` cycles.  The engine tracks an ever-growing wide tick; the
modular backends only ever see its low data-width bits.
"""

from __future__ import annotations

import csv
import io
import ipaddress
import logging
import math
import random
from dataclasses import dataclass

from .core import (BehavioralQueue, QueueConfig, expiry_tick, is_expired,
                   make_expiration)
from .systolic import (CYCLES_PER_OP, SystolicQueue, check_geometry, pop_op,
                       push_op, remove_op)

log = logging.getLogger(__name__)

TRACE_HEADER = ("arrival_ns", "src", "dst", "sport", "dport", "proto")
BACKENDS = ("behavioral", "systolic", "wide")


class CapacityAbort(RuntimeError):
    """The flow table outgrew the queue; the run cannot continue."""


class RunAborted(RuntimeError):
    """A run past its cycle bound or with entries left at its end;
    `cycle` is where it stopped."""

    def __init__(self, message: str, cycle: int):
        super().__init__(message)
        self.cycle = cycle


class ParamsFileError(ValueError):
    """A params file that does not describe a run; names the file."""


@dataclass(frozen=True)
class Packet:
    arrival_ns: int
    flow: tuple


# -- trace files -------------------------------------------------------------


def read_lines(path, error=ValueError):
    """A file's lines, decoded as UTF-8 one at a time and split as text
    mode splits them: the one rule every reader uses.  A byte-order mark
    opening the file is dropped.  A line that does not decode raises
    `error` naming file:line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8: "
                            f"{exc.reason}") from None
            yield from io.StringIO(text, newline="")


def load_trace(path) -> tuple[list[Packet], int]:
    """Read a trace CSV.  Returns (packets sorted by arrival, skipped).

    Malformed rows are skipped with a warning rather than aborting the
    run; trace captures routinely carry a few mangled lines.  A file
    that is not UTF-8 raises ValueError.
    """
    packets = []
    skipped = 0
    reader = csv.reader(read_lines(path))
    for lineno, row in enumerate(reader, start=1):
        if lineno == 1 and row and row[0].strip() == TRACE_HEADER[0]:
            continue
        if len(row) != 6:
            log.warning("%s:%d: expected 6 fields, got %d",
                        path, lineno, len(row))
            skipped += 1
            continue
        try:
            arrival = int(row[0])
            sport, dport, proto = int(row[3]), int(row[4]), int(row[5])
        except ValueError:
            log.warning("%s:%d: non-numeric field", path, lineno)
            skipped += 1
            continue
        if arrival < 0:
            log.warning("%s:%d: negative arrival", path, lineno)
            skipped += 1
            continue
        flow = (row[1].strip(), row[2].strip(), sport, dport, proto)
        packets.append(Packet(arrival, flow))
    packets.sort(key=lambda p: p.arrival_ns)
    return packets, skipped


def write_trace(path, packets: list[Packet]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for p in packets:
            writer.writerow((p.arrival_ns, *p.flow))


def gen_trace(flows: int, packets: int, seed: int, duration_ns: int,
              skew: float = 1.3) -> list[Packet]:
    """Synthesize a trace: `flows` distinct 5-tuples sharing `packets`
    arrivals over `duration_ns`, packet counts Pareto-skewed across
    flows (every flow gets at least one packet), arrival instants
    scattered uniformly.  Fully determined by `seed`.
    """
    if flows < 1 or packets < flows:
        raise ValueError("need at least one packet per flow")
    if duration_ns < 0:
        raise ValueError(f"duration_ns {duration_ns} is negative")
    rng = random.Random(seed)

    tuples: list[tuple] = []
    seen = set()
    while len(tuples) < flows:
        flow = (
            str(ipaddress.IPv4Address(rng.getrandbits(32))),
            str(ipaddress.IPv4Address(rng.getrandbits(32))),
            rng.randint(1024, 65535),
            rng.randint(1, 65535),
            rng.choice((6, 17)),
        )
        if flow not in seen:
            seen.add(flow)
            tuples.append(flow)

    weights = [rng.paretovariate(skew) for _ in range(flows)]
    counts = [1] * flows
    for idx in rng.choices(range(flows), weights=weights, k=packets - flows):
        counts[idx] += 1

    out = []
    for flow, count in zip(tuples, counts):
        for _ in range(count):
            out.append(Packet(int(rng.uniform(0, duration_ns)), flow))
    out.sort(key=lambda p: p.arrival_ns)
    return out


# -- parameters --------------------------------------------------------------


@dataclass(frozen=True)
class SimParams:
    timeout: int                 # idle timeout, in timer ticks
    precision: int = 1           # cycles per timer tick
    data_width: int = 12
    timeout_width: int = 9
    id_width: int = 13
    capacity: int = 4096
    cycle_time_ns: float = 2.0
    backend: str = "behavioral"  # one of BACKENDS
    n_units: int = 0             # systolic geometry; unless both are set,
    m_blocks: int = 0            # geometry() picks a square-ish one

    def check(self) -> "SimParams":
        """Return self, or raise ValueError if the run could not start.
        Each message opens with the field it blames.  A geometry given
        only in part is derived, so only a full one is checked."""
        limit = self.queue_config().max_timeout
        if self.precision < 1:
            raise ValueError("precision must be a positive cycle count")
        if not 0 < self.cycle_time_ns < math.inf:
            raise ValueError(f"cycle_time_ns {self.cycle_time_ns} is not "
                             "a finite positive number")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend {self.backend!r} not in {BACKENDS}")
        if not 0 < self.timeout <= limit:
            raise ValueError(f"timeout {self.timeout} outside (0, {limit}]")
        if self.n_units and self.m_blocks:
            check_geometry(self.n_units, self.m_blocks, self.capacity)
        return self

    def queue_config(self) -> QueueConfig:
        return QueueConfig(
            id_width=self.id_width,
            data_width=self.data_width,
            timeout_width=self.timeout_width,
            capacity=self.capacity,
        )

    def geometry(self) -> tuple[int, int]:
        if self.n_units and self.m_blocks:
            return self.n_units, self.m_blocks
        m = 2
        while (m + 1) * (m + 1) <= self.capacity:
            m += 1
        while self.capacity % m:
            m -= 1
        return self.capacity // m, m


_PARAM_TYPES = {f.name: {"int": int, "float": float}.get(f.type, str)
                for f in SimParams.__dataclass_fields__.values()}


def load_params(path, **overrides) -> tuple[SimParams, dict]:
    """Read a `key = value` params file.  Keys that match SimParams
    fields configure the run, checked by `SimParams.check`; the rest
    (generator knobs like flows/packets/seed/duration_ns) are returned
    as a dict.  When the file's own values pass the check, a fault
    belongs to the overrides and raises as is; otherwise it raises a
    one-line ParamsFileError naming the file and the line of the field
    the message opens with."""
    sim_kwargs, extra, lines = {}, {}, {}
    for lineno, raw in enumerate(read_lines(path, ParamsFileError),
                                 start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamsFileError(f"{path}:{lineno}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in _PARAM_TYPES:
            lines[key] = lineno
            try:
                sim_kwargs[key] = _PARAM_TYPES[key](value)
            except ValueError:
                raise ParamsFileError(f"{path}:{lineno}: {key} = "
                                      f"{value!r} is not a number") from None
        else:
            for kind in (int, float, str):
                try:
                    extra[key] = kind(value)
                    break
                except ValueError:
                    pass
    run_kwargs = {**sim_kwargs, **overrides}
    if "timeout" not in run_kwargs:
        raise ParamsFileError(f"{path}: no timeout given")
    try:
        return SimParams(**run_kwargs).check(), extra
    except ValueError as exc:
        try:    # the file's own values, its timeout if it gives one
            SimParams(**{"timeout": 1, **sim_kwargs}).check()
        except ValueError:
            field = str(exc).split()[0]
            where = f"{path}:{lines[field]}" if field in lines else path
            raise ParamsFileError(f"{where}: {exc}") from None
        raise


def bundled_params(name: str = "univ_scale"):
    from importlib.resources import files

    if not name.endswith(".params"):
        name += ".params"
    return files("timerq.data").joinpath(name)


# -- flow table --------------------------------------------------------------


class FlowTable:
    """5-tuple to queue-id binding with id recycling."""

    def __init__(self, max_ident: int):
        self._by_flow: dict = {}
        self._by_ident: dict = {}
        self._free = list(range(max_ident, 0, -1))

    def __len__(self):
        return len(self._by_flow)

    def lookup(self, flow):
        return self._by_flow.get(flow)

    def allocate(self, flow):
        if not self._free:
            return None
        ident = self._free.pop()
        self._by_flow[flow] = ident
        self._by_ident[ident] = flow
        return ident

    def release(self, ident):
        flow = self._by_ident.pop(ident)
        del self._by_flow[flow]
        self._free.append(ident)
        return flow


# -- backend adapters --------------------------------------------------------


class Adapter:
    """Defaults shared by the backend adapters behind the engine's op
    interface (`has_expired_head`, `pop_head`, `push`, `remove`, `step`,
    `settle`, `occupancy`).  The engine issues at the array's fixed
    rate, so a refused op is a model fault, not back-pressure.  The base
    suits a clockless backend with modular expirations.  Nothing here
    calls `ready`; it stays because perfbench wraps it by name."""

    def __init__(self, config: QueueConfig, queue):
        self.config = config
        self.queue = queue
        self.data_mask = config.data_mask
        self.data_width = config.data_width
        self.timeout_width = config.timeout_width

    def ready(self) -> bool:
        return True

    def step(self, cycles: int):
        pass

    def settle(self):
        pass

    def occupancy(self) -> int:
        return len(self.queue)

    def expiration(self, wide_tick: int, timeout: int) -> int:
        """Modular expiration stamp of a push issued at `wide_tick`."""
        return make_expiration(wide_tick & self.data_mask, timeout,
                               self.data_width, self.timeout_width)

    def expiry(self, data: int, wide_tick: int) -> int:
        """Unbounded tick at which a head popped at `wide_tick` expired."""
        return expiry_tick(data, wide_tick, self.data_width)


class BehavioralAdapter(Adapter):
    """Sorted reference model behind the engine's op interface."""

    def __init__(self, config: QueueConfig):
        super().__init__(config, BehavioralQueue(config))

    def has_expired_head(self, wide_tick: int) -> bool:
        data = self.queue.data
        return bool(data) and is_expired(
            data[0], wide_tick & self.data_mask, self.data_width)

    def pop_head(self, wide_tick: int):
        el = self.queue.pop()
        return self.expiry(el.data, wide_tick), el.ident

    def push(self, ident: int, wide_tick: int, timeout: int):
        self.queue.push(ident, self.expiration(wide_tick, timeout))

    def remove(self, ident: int):
        self.queue.remove(ident)


class SystolicAdapter(Adapter):
    """Cycle-accurate array behind the engine's op interface."""

    def __init__(self, config: QueueConfig, n_units: int, m_blocks: int,
                 event_sink=None):
        super().__init__(config, SystolicQueue(config, n_units, m_blocks,
                                               event_sink=event_sink))

    def step(self, cycles: int):
        step = self.queue.step
        for _ in range(cycles):
            step()

    def has_expired_head(self, wide_tick: int) -> bool:
        unit, s_idx = self.queue._head()
        return unit is not None and is_expired(
            unit.data[s_idx], wide_tick & self.data_mask, self.data_width)

    def _issue(self, op):
        """Issue at an open gate; the engine's fixed rate guarantees one."""
        if not self.queue.issue(op):
            raise RuntimeError(f"the array refused a {op.kind}")

    def pop_head(self, wide_tick: int):
        unit, s_idx = self.queue._head()
        if unit is None:
            raise RuntimeError("pop_head: the array is empty")
        ident, data = unit.ids[s_idx], unit.data[s_idx]
        self._issue(pop_op())
        return self.expiry(data, wide_tick), ident

    def push(self, ident: int, wide_tick: int, timeout: int):
        self._issue(push_op(ident, self.expiration(wide_tick, timeout)))

    def remove(self, ident: int):
        self._issue(remove_op(ident))

    def settle(self):
        self.queue.drain()

    def occupancy(self) -> int:
        return self.queue.occupancy()


def make_adapter(params: SimParams):
    config = params.check().queue_config()
    if params.backend == "behavioral":
        return BehavioralAdapter(config)
    if params.backend == "systolic":
        n, m = params.geometry()
        return SystolicAdapter(config, n, m)
    from .oracle import WideAdapter      # check() admits only BACKENDS

    return WideAdapter(config)


# -- statistics --------------------------------------------------------------


@dataclass(frozen=True)
class SimStats:
    packets: int
    pushes: int
    inserts: int
    updates: int
    pops: int
    max_occupancy: int
    final_occupancy: int
    cycles: int
    ticks: int
    ops_accepted: int
    idle_cycles: int
    duration_ns: float
    modeled_mpps: float

    def to_text(self) -> str:
        lines = []
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, float):
                lines.append(f"{name}={value:.6f}")
            else:
                lines.append(f"{name}={value}")
        return "\n".join(lines) + "\n"


# -- engine ------------------------------------------------------------------


def arbitrate(source, adapter, params: SimParams):
    """The one issue arbiter and the one end of every run.

    It visits issue slots at the array's fixed rate: an issued op holds
    the interface for CYCLES_PER_OP cycles, an idle slot for one, and
    the adapter is stepped that many cycles in one `step(cycles)` call,
    so all backends see identical op streams.  In each slot the source
    is asked whether an op is due and the adapter whether its head has
    expired; when both are, it alternates kinds, the source first, to
    starve neither side.  `source.issue(adapter, cycle, wide_tick)`
    issues the waiting op; `source.popped(expiry, ident)` records each
    pop.  Once `source.done()` holds after a slot, the adapter is
    stepped one cycle, settled outside the counted horizon and must
    hold nothing.  Returns (cycles, idle_cycles): idle slots are the
    only cycles that count against saturation.

    Past a bound of the source's last due cycle (`last_due`), two slots
    per source op (`total`: the op and at most one pop) and the longest
    timeout plus two ticks, or with entries left, it raises RunAborted.
    """
    precision = params.precision
    max_cycles = (source.last_due + 2 * CYCLES_PER_OP * source.total
                  + (params.queue_config().max_timeout + 2) * precision)
    step = adapter.step
    has_expired_head = adapter.has_expired_head
    cycle = idle = 0
    pop_next = False
    while True:
        held = CYCLES_PER_OP
        wide_tick = cycle // precision
        op_due = source.due(cycle)
        if (pop_next or not op_due) and has_expired_head(wide_tick):
            source.popped(*adapter.pop_head(wide_tick))
            pop_next = False
        elif op_due:
            source.issue(adapter, cycle, wide_tick)
            pop_next = True
        else:
            idle += 1
            held = 1
        if source.done():
            break
        step(held)
        cycle += held
        if cycle >= max_cycles:
            raise RunAborted(f"no convergence in {max_cycles} cycles", cycle)
    step(1)
    adapter.settle()
    left = adapter.occupancy()
    if left:
        raise RunAborted(f"{left} elements left after final pop", cycle + 1)
    return cycle + 1, idle


class _TraceSource:
    """Packets become pushes of their flow's id, in arrival order."""

    def __init__(self, packets: list[Packet], params: SimParams,
                 dequeue_log: list | None, occupancy_series: list | None,
                 sample_ticks: int):
        self.packets = packets
        self.total = len(packets)
        self.last_due = (math.ceil(packets[-1].arrival_ns
                                   / params.cycle_time_ns) if packets else 0)
        self.next = 0
        self.params = params
        self.cycle_ns = params.cycle_time_ns
        self.table = FlowTable(params.queue_config().max_ident)
        self.pushes = self.inserts = self.updates = self.pops = 0
        self.max_occ = 0
        self.dequeue_log = dequeue_log
        self.series = occupancy_series
        self.sample_every = sample_ticks * params.precision
        self.next_sample = (self.sample_every if occupancy_series is not None
                            else float("inf"))

    def sample(self, cycle: int):
        """Record the flow count at every sample point up to `cycle`.
        It only changes in issue slots, so sampling can lag until one."""
        while self.next_sample <= cycle:
            self.series.append((self.next_sample // self.params.precision,
                                len(self.table)))
            self.next_sample += self.sample_every

    def due(self, cycle: int) -> bool:
        if self.next_sample <= cycle:
            self.sample(cycle)
        return (self.next < self.total and
                self.packets[self.next].arrival_ns <= cycle * self.cycle_ns)

    def issue(self, adapter, cycle: int, wide_tick: int):
        table = self.table
        flow = self.packets[self.next].flow
        ident = table.lookup(flow)
        fresh = ident is None
        if fresh:
            # QueueConfig keeps max_ident >= capacity: an id is free
            capacity = self.params.capacity
            if len(table) >= capacity:
                raise CapacityAbort(f"{len(table)} live flows at capacity "
                                    f"{capacity} (cycle {cycle})")
            ident = table.allocate(flow)
        adapter.push(ident, wide_tick, self.params.timeout)
        self.next += 1
        self.pushes += 1
        if fresh:
            self.inserts += 1
            self.max_occ = max(self.max_occ, len(table))
        else:
            self.updates += 1

    def popped(self, expiry: int, ident: int):
        self.table.release(ident)
        self.pops += 1
        if self.dequeue_log is not None:
            self.dequeue_log.append((expiry, ident))

    def done(self) -> bool:
        return self.next == self.total and not self.table


def drive(packets: list[Packet], adapter, params: SimParams, *,
          dequeue_log: list | None = None,
          occupancy_series: list | None = None,
          sample_ticks: int = 1024) -> SimStats:
    """Run the trace to completion: every flow pushed, refreshed on
    each packet, and popped once expired.  Returns the aggregate stats;
    a run that does not end raises `arbitrate`'s RunAborted.
    """
    src = _TraceSource(packets, params.check(), dequeue_log,
                       occupancy_series, sample_ticks)
    cycles, idle_cycles = arbitrate(src, adapter, params)
    src.sample(cycles)

    ops = src.pushes + src.pops
    duration_ns = cycles * params.cycle_time_ns
    mpps = ops / (duration_ns * 1e-3) if duration_ns else 0.0
    return SimStats(
        packets=src.total,
        pushes=src.pushes,
        inserts=src.inserts,
        updates=src.updates,
        pops=src.pops,
        max_occupancy=src.max_occ,
        final_occupancy=len(src.table),
        cycles=cycles,
        ticks=cycles // params.precision,
        ops_accepted=ops,
        idle_cycles=idle_cycles,
        duration_ns=duration_ns,
        modeled_mpps=mpps,
    )


def run(params: SimParams, packets: list[Packet], **kwargs) -> SimStats:
    return drive(packets, make_adapter(params), params, **kwargs)
