"""Brute-force oracle and equivalence machinery.

`WideOracleQueue` keeps absolute expiration times as plain Python ints,
so it cannot wrap and needs no grouping trick.  `replay` feeds one op
script to the harness arbiter; run through this queue and through a
modular backend it must produce identical dequeue streams, so any
difference is a bug in the modular arithmetic, the sorting rule, or the
array timing.

Scripts are deliberately dumb data: a parameter line plus `tick kind
ident [timeout]` rows in tick order, so failing cases diff cleanly and
shrink to a minimal prefix.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field, replace

from .core import QueueConfig
from .harness import Adapter, SimParams, arbitrate, make_adapter, read_lines
from .systolic import CYCLES_PER_OP


class WideOracleQueue:
    """Timeout queue over unbounded integer time."""

    def __init__(self):
        self._live: dict = {}    # ident -> (expiry, seq)
        self._heap: list = []    # (expiry, seq, ident), lazily pruned
        self._seq = 0
        self.max_expiry = 0

    def __len__(self):
        return len(self._live)

    def push(self, ident: int, wide_now: int, timeout: int):
        expiry = wide_now + timeout
        entry = (expiry, self._seq)
        self._seq += 1
        self._live[ident] = entry
        heapq.heappush(self._heap, (*entry, ident))
        if expiry > self.max_expiry:
            self.max_expiry = expiry

    def remove(self, ident: int) -> bool:
        # stale heap entries are pruned on the way out
        return self._live.pop(ident, None) is not None

    def _prune(self):
        heap = self._heap
        while heap:
            expiry, seq, ident = heap[0]
            if self._live.get(ident) == (expiry, seq):
                return heap[0]
            heapq.heappop(heap)
        return None

    def peek_expired(self, wide_now: int):
        top = self._prune()
        if top is not None and top[0] < wide_now:
            return top
        return None

    def pop_expired(self, wide_now: int):
        top = self.peek_expired(wide_now)
        if top is None:
            return None
        expiry, seq, ident = heapq.heappop(self._heap)
        del self._live[ident]
        return expiry, ident


class WideAdapter(Adapter):
    """Oracle behind the engine's op interface.

    The config is only used for validating timeouts; time itself never
    touches modular arithmetic here, which is the whole point.
    """

    def __init__(self, config: QueueConfig):
        super().__init__(config, WideOracleQueue())

    def has_expired_head(self, wide_tick: int) -> bool:
        return self.queue.peek_expired(wide_tick) is not None

    def pop_head(self, wide_tick: int):
        return self.queue.pop_expired(wide_tick)

    def push(self, ident: int, wide_tick: int, timeout: int):
        if not 0 < timeout <= self.config.max_timeout:
            raise ValueError(f"timeout {timeout} out of range")
        self.queue.push(ident, wide_tick, timeout)

    def remove(self, ident: int):
        self.queue.remove(ident)


# -- op scripts ----------------------------------------------------------


@dataclass(frozen=True)
class ScriptOp:
    tick: int
    kind: str            # push | remove
    ident: int
    timeout: int = 0


@dataclass
class OpScript:
    params: SimParams
    ops: list[ScriptOp] = field(default_factory=list)

    _PARAM_KEYS = ("data_width", "timeout_width", "id_width", "capacity",
                   "precision")

    def to_text(self) -> str:
        head = " ".join(
            f"{k}={getattr(self.params, k)}" for k in self._PARAM_KEYS)
        lines = [f"params {head}"]
        for op in self.ops:
            if op.kind == "push":
                lines.append(f"{op.tick} push {op.ident} {op.timeout}")
            else:
                lines.append(f"{op.tick} {op.kind} {op.ident}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "OpScript":
        params = None
        ops = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "params":
                kwargs = {}
                for item in parts[1:]:
                    key, _, value = item.partition("=")
                    if key not in cls._PARAM_KEYS:
                        raise ValueError(f"line {lineno}: unknown param {key}")
                    kwargs[key] = value
                try:
                    params = SimParams(timeout=1, **{
                        k: int(v) for k, v in kwargs.items()}).check()
                    config = params.queue_config()
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                continue
            if params is None:
                raise ValueError("script must open with a params line")
            kind = parts[1] if len(parts) > 1 else ""
            if kind not in ("push", "remove"):
                raise ValueError(f"line {lineno}: unknown op kind {kind!r}")
            usage = ("tick push ident timeout" if kind == "push"
                     else "tick remove ident")
            try:
                nums = [int(f) for f in parts[:1] + parts[2:]]
            except ValueError:
                nums = []
            if len(nums) != len(usage.split()) - 1:
                raise ValueError(
                    f"line {lineno}: expected '{usage}' with integer fields")
            op = ScriptOp(nums[0], kind, *nums[1:])
            if not 0 < op.ident <= config.max_ident:
                raise ValueError(f"line {lineno}: ident {op.ident} outside "
                                 f"[1, {config.max_ident}]")
            if kind == "push" and not 0 < op.timeout <= config.max_timeout:
                raise ValueError(f"line {lineno}: timeout {op.timeout} "
                                 f"outside (0, {config.max_timeout}]")
            prev = ops[-1].tick if ops else 0
            if op.tick < prev:
                raise ValueError(
                    f"line {lineno}: tick {op.tick} is earlier than {prev}; "
                    "ticks must be non-negative and non-decreasing")
            ops.append(op)
        if params is None:
            raise ValueError("script has no params line")
        return cls(params, ops)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "OpScript":
        text = "".join(read_lines(path))
        try:
            return cls.from_text(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def make_script(seed: int, n_ops: int = 400, *, data_width: int = 9,
                timeout_width: int = 7, id_width: int = 6, capacity: int = 16,
                precision: int = 1, pool: int = 8, remove_rate: float = 0.15,
                timeout: int = 0, gap_max: int = 0) -> OpScript:
    """Random op script over a small id pool.

    The pool is deliberately tiny so pushes frequently hit ids that are
    still queued (exercising the in-place update path) and the tick
    span covers several timer wraps.  Pops are not scripted: replay
    dequeues automatically as entries expire.

    All pushes share one timeout value, like a flow table where each
    queue serves a single timeout class.  That discipline is what makes
    the modular grouping exact: expirations then enter in arrival
    order, so a low value under a high head can only mean a wrapped
    timestamp.  Mixing timeouts in one queue can produce an unwrapped
    low expiration behind a high head, which the grouping has no way to
    tell apart from a wrapped one, and the dequeue order deliberately
    goes stale-last there.  Cover the timeout axis with several
    scripts, not several timeouts in one script.
    """
    if pool > capacity:
        raise ValueError("id pool must fit the queue")
    rng = random.Random(seed)
    params = SimParams(
        timeout=1, data_width=data_width, timeout_width=timeout_width,
        id_width=id_width, capacity=capacity, precision=precision)
    max_to = params.queue_config().max_timeout     # checks the widths
    timeout = timeout or rng.randint(max(1, max_to // 4), max_to)
    replace(params, timeout=timeout).check()
    if not gap_max:
        gap_max = max(2, (1 << data_width) // 64)
    tick = 0
    ops = []
    for _ in range(n_ops):
        tick += rng.randint(0, gap_max)
        ident = rng.randint(1, pool)
        if rng.random() < remove_rate:
            ops.append(ScriptOp(tick, "remove", ident))
        else:
            ops.append(ScriptOp(tick, "push", ident, timeout))
    return OpScript(params, ops)


# -- replay ---------------------------------------------------------------


@dataclass
class Coverage:
    inserts: int = 0
    updates: int = 0
    removes_found: int = 0
    removes_missing: int = 0
    wrap_pushes: int = 0
    pops: int = 0

    def merge(self, other: "Coverage"):
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def all_classes_hit(self) -> bool:
        return all(getattr(self, name) > 0 for name in self.__dataclass_fields__)


@dataclass
class ReplayResult:
    pops: list          # (expiry_tick, ident) in dequeue order
    coverage: Coverage
    cycles: int
    final_wide_tick: int
    aborted: str | None = None

    @property
    def wide_bits_needed(self) -> int:
        return self.final_wide_tick.bit_length()


class _ScriptSource:
    """Script rows issue in order, each once the clock reaches its tick."""

    def __init__(self, script: OpScript):
        params = script.params
        self.pending = script.ops[::-1]    # pop() from the tail: script order
        self.precision = params.precision
        self.mask = (1 << params.data_width) - 1
        self.cov = Coverage()
        self.pops: list = []
        self.live: set = set()

    def due(self, cycle: int) -> bool:
        return bool(self.pending) and (
            self.pending[-1].tick <= cycle // self.precision)

    def issue(self, adapter, cycle: int, wide_tick: int):
        op = self.pending.pop()
        cov = self.cov
        if op.kind == "push":
            adapter.push(op.ident, wide_tick, op.timeout)
            if op.ident in self.live:
                cov.updates += 1
            else:
                cov.inserts += 1
                self.live.add(op.ident)
            if (wide_tick & self.mask) + op.timeout > self.mask:
                cov.wrap_pushes += 1
        else:
            adapter.remove(op.ident)
            if op.ident in self.live:
                cov.removes_found += 1
                self.live.discard(op.ident)
            else:
                cov.removes_missing += 1

    def popped(self, expiry: int, ident: int):
        self.pops.append((expiry, ident))
        self.cov.pops += 1
        self.live.discard(ident)

    def done(self) -> bool:
        return not self.pending and not self.live


def replay(script: OpScript, adapter_factory=None, *,
           max_cycles: int = 0) -> ReplayResult:
    """Drive a script to completion through the harness arbiter.

    `adapter_factory` maps SimParams to a backend adapter; default is
    the params' own backend via the harness.  Expired entries are
    popped automatically, alternating with script ops when both are
    due, exactly as the trace engine arbitrates.  max_cycles of zero
    means a generous bound derived from the script itself; hitting it
    marks the result aborted rather than raising, so a wedged backend
    reads as a divergence.
    """
    params = script.params.check()
    adapter = (adapter_factory or make_adapter)(params)
    if not max_cycles:
        last_tick = script.ops[-1].tick if script.ops else 0
        horizon = last_tick + (1 << params.timeout_width) + 2
        max_cycles = (horizon * params.precision
                      + (len(script.ops) + params.capacity) * CYCLES_PER_OP
                      + 1000)
    src = _ScriptSource(script)
    result = arbitrate(src, adapter, params.precision, max_cycles)
    if result is None:
        cycle = max_cycles
        aborted = f"no convergence in {max_cycles} cycles"
    else:
        cycle = result[0]
        adapter.settle()
        aborted = None
        if adapter.occupancy() != 0:
            aborted = f"{adapter.occupancy()} elements left after final pop"
    return ReplayResult(src.pops, src.cov, cycle, cycle // params.precision,
                        aborted)


# -- equivalence ----------------------------------------------------------


@dataclass
class Divergence:
    index: int           # first differing position in the dequeue stream
    left: tuple | None
    right: tuple | None
    prefix_len: int      # ops needed to reproduce it
    note: str = ""

    def __str__(self):
        return (f"dequeue stream diverges at index {self.index}: "
                f"{self.left} vs {self.right} "
                f"(reproducible with the first {self.prefix_len} ops)"
                + (f"; {self.note}" if self.note else ""))


def _first_diff(a: list, b: list):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i, x, y
    if len(a) != len(b):
        i = min(len(a), len(b))
        return (i, a[i] if i < len(a) else None, b[i] if i < len(b) else None)
    return None


def check_equivalence(script: OpScript, factory_left, factory_right,
                      shrink: bool = True) -> Divergence | None:
    """Replay one script under two backends and diff the dequeue
    streams.  Returns None on agreement; otherwise a Divergence whose
    prefix_len is (roughly) minimized by binary search.
    """

    def diverges(ops) -> Divergence | None:
        sub = OpScript(script.params, list(ops))
        left = replay(sub, factory_left)
        right = replay(sub, factory_right)
        if left.aborted or right.aborted:
            return Divergence(-1, None, None, len(ops),
                              note=left.aborted or right.aborted)
        diff = _first_diff(left.pops, right.pops)
        if diff is None:
            return None
        return Divergence(diff[0], diff[1], diff[2], len(ops))

    full = diverges(script.ops)
    if full is None or not shrink:
        return full

    lo, hi = 1, len(script.ops)    # invariant: prefix hi diverges
    best = full
    while lo < hi:
        mid = (lo + hi) // 2
        d = diverges(script.ops[:mid])
        if d is None:
            lo = mid + 1
        else:
            hi = mid
            best = d
    best.prefix_len = hi
    return best

