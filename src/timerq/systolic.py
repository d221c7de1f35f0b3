"""Cycle-accurate model of the cascaded shift-block timer queue.

The array is N units of M element slots each.  An accepted external
operation occupies unit 0 for exactly three cycles (search, shift-set,
finish) and, when it cannot be fully absorbed there, hands a reduced
operation pair to unit 1 through an interface register, advancing one
unit every three cycles.  Pushes enter as a combined enqueue+remove
search so an in-queue id is updated in place rather than duplicated.

Timing discipline: within one simulated cycle units evaluate in
descending index order, so a unit's finish-phase reads of its
downstream neighbour (head element for the boundary comparison, pulled
element for hole filling) observe a neighbour that has already finished
its own work for that cycle.  That mirrors the hardware contract that
the next level's head has stabilized by the finish phase.  Elements are
moved, never copied, so `occupancy` counts live contents exactly; the
transient hole this leaves at a neighbour's head slot is compacted by
the dequeue that is latched toward it in the same finish.

Slot layout: each unit stores its M slots as two flat int lists, `ids`
and `data`, plus a count of occupied slots.  An empty slot is id 0 with
all-ones data, so slot indices (and the (unit, slot) keys the write
hazard detector checks) address the same storage the hardware has.
Occupied slots form a prefix of the unit, except for the transient head
hole described above.

Op record: the op a unit works on, an interface register latches and
the staged external op are one plain int tuple
`(enq_id, enq_data, rem_id, deq, pf_id, pf_data)`, 0 meaning absent
(ids are at least 1, so a present op never has id 0).  The phases work
on these ints only; deferred and spilled elements travel as ints.  Op
kinds are bits (`ENQ`, `REM`, `DEQ`, `PF`), the same in `propagate`'s
rows and in the finish check.  `Element` objects are built at the API
edge alone, by `peek` and `snapshot`.

Phases: search only latches the head-group bit the op's insert compares
under.  Compares are by `core.sort_key`: under a high head the MSB is
flipped, so wrapped low values sort behind high ones.  Shift-set is the
unit's one occupant read; it scans the survivors' keys from the tail
for the insert position and writes the unit back as a compacted
prefix, which finish reuses.  That is exact because a clear of a busy
unit's slot (a pop at issue, an upstream pull) raises
`SimulationHazard`.

Write hazards: the first write to a unit in a cycle is kept as the
unit's old and new slot lists; the slots it changed are worked out only
when a second write reaches the same unit in that cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ne

from .core import Element, QueueConfig, msb

# One external operation holds a unit for this many cycles; it is also
# the issue back-pressure interval, so peak acceptance rate is 1/3 per
# cycle regardless of array depth.
CYCLES_PER_OP = 3

IDLE = "idle"
SEARCH = "search"
SHIFT_SET = "shift_set"
FINISH = "finish"


class SimulationHazard(RuntimeError):
    """Two writes hit one slot in one cycle; the model state is invalid."""


# op kind bits, as `propagate` and the finish check spell them: insert
# by rank, delete an id where found, pull the downstream head into a
# vacated tail slot, and an upstream spill that goes ahead of all
ENQ, REM, DEQ, PF = 1, 2, 4, 8

_LEGAL_COMBOS = frozenset({ENQ | REM, ENQ, REM, DEQ, PF, DEQ | ENQ, PF | REM})


def propagate(found_id: bool, found_rank: bool, kinds: int) -> int:
    """Pure propagation table: which op kinds continue downstream, as
    kind bits in and out.

    For the combined enqueue+remove pair this is the four-row rule; for
    single ops the reduced forms.  Context conditions (a PF only
    materializes on an actual tail spill, a REM or DEQ dies when nothing
    lives downstream) are applied by the unit that owns the state, so
    callers may prune the returned bits but never add any.
    """
    if kinds not in _LEGAL_COMBOS:
        raise ValueError(f"illegal op combination {kinds}")
    if kinds == ENQ | REM:
        if found_id and found_rank:
            return 0
        if found_id:
            return ENQ | DEQ
        if found_rank:
            return REM | PF
        return ENQ | REM
    if kinds == DEQ | ENQ:
        return 0 if found_rank else DEQ | ENQ
    if kinds == PF | REM:
        return 0 if found_id else PF | REM
    if kinds == ENQ:
        return PF if found_rank else ENQ
    if kinds == REM:
        return DEQ if found_id else REM
    return kinds        # a lone DEQ or PF passes on as it is


@dataclass(frozen=True)
class ExternalOp:
    kind: str       # "push" | "pop" | "remove"
    ident: int = 0
    data: int = 0


def push_op(ident: int, data: int) -> ExternalOp:
    return ExternalOp("push", ident, data)


def pop_op() -> ExternalOp:
    return ExternalOp("pop")


def remove_op(ident: int) -> ExternalOp:
    return ExternalOp("remove", ident)


# the propagation row of a combined enqueue+remove pair, by
# (found_id, found_rank)
_PAIR_TABLE = {
    (found_id, found_rank): propagate(found_id, found_rank, ENQ | REM)
    for found_id in (False, True) for found_rank in (False, True)}


class SystolicUnit:
    def __init__(self, m_blocks: int, data_mask: int):
        self.ids = [0] * m_blocks
        self.data = [data_mask] * m_blocks
        self.count = 0              # occupied slots
        self.phase = IDLE
        self.pending: tuple = ()    # op record
        # search -> shift-set: the head-group bit under which the op's
        # insert compares, latched while the search cycle sees it
        self.highest = 0
        # shift-set -> finish: (removed_found, deferred id, deferred data,
        # spill id, spill data, enq_hosted), ids 0 when absent
        self.work: tuple = ()

    def occupants(self) -> tuple[list[int], list[int]]:
        """Fresh (ids, data) lists of the occupied slots, in slot order.
        They form a prefix, or a prefix behind one head hole left when
        the upstream unit pulled; any other layout is a model fault."""
        ids, data, k = self.ids, self.data, self.count
        m = len(ids)
        if k == m:
            return ids[:], data[:]
        first_hole = ids.index(0)
        if first_hole == k:
            return ids[:k], data[:k]
        if first_hole == 0 and (k == m - 1 or ids.index(0, 1) == k + 1):
            return ids[1:k + 1], data[1:k + 1]
        raise SimulationHazard(
            f"{k} occupied slots not contiguous in unit ids {ids}")


def _changed_slots(old_ids, old_data, ids, data) -> set[int]:
    """Slots whose (id, data) differ between two layouts of a unit."""
    if ids == old_ids and data == old_data:
        return set()
    return set(compress(range(len(ids)), map(
        ne, zip(old_ids, old_data), zip(ids, data))))


def check_geometry(n_units: int, m_blocks: int, capacity: int):
    """Raise ValueError unless an array of n_units x m_blocks can hold
    exactly `capacity` elements."""
    if n_units < 1:
        raise ValueError("need at least one unit")
    if m_blocks < 2:
        raise ValueError(
            "need at least two blocks per unit: the boundary slot "
            "must be distinct from the head slot")
    if n_units * m_blocks != capacity:
        raise ValueError(
            f"geometry {n_units}x{m_blocks} != capacity {capacity}")


class SystolicQueue:
    """N units x M blocks with a per-unit three-cycle pipeline."""

    def __init__(self, config: QueueConfig, n_units: int, m_blocks: int,
                 event_sink=None):
        check_geometry(n_units, m_blocks, config.capacity)
        self.config = config
        self.n_units = n_units
        self.m_blocks = m_blocks
        self.units = [SystolicUnit(m_blocks, config.data_mask)
                      for _ in range(n_units)]
        # registers[i] latches the op record for units[i+1], () when
        # empty; ops latched at the last unit fall off the end (callers
        # size the array so that only a push into a full queue can lose
        # an element this way)
        self.registers: list[tuple] = [()] * n_units
        self.cycle = 0
        self.issue_gate = 0
        self._staged: tuple | None = None
        # (found_id, found_rank) occurrence counts for enqueue+remove
        # pairs, across all units
        self.row_counts: dict[tuple[bool, bool], int] = {
            (a, b): 0 for a in (False, True) for b in (False, True)}
        self.event_sink = event_sink
        # unit index -> this cycle's writes: the slots written, or, after
        # a single `_write`, its (old ids, old data, new ids, new data)
        self._writes: dict[int, set[int] | tuple] = {}
        self._active: set[int] = set()      # units not idle
        self._latched: list[int] = []       # registers holding ops
        self._slots = range(m_blocks)
        self._empty_ids = [0] * m_blocks
        self._empty_data = [config.data_mask] * m_blocks

    # -- external interface -------------------------------------------------

    def issue(self, op: ExternalOp) -> bool:
        """Offer one external op.  Returns False when back-pressured
        (fewer than three cycles since the last acceptance) or when a
        pop finds the queue empty.  The harness engine, issuing every
        CYCLES_PER_OP cycles, never meets the gate; `timerq bench` and
        tests that offer an op every cycle do."""
        if self.issue_gate != 0:
            return False
        cfg = self.config
        if op.kind == "pop":
            # the head value is combinationally readable at acceptance;
            # the three cycles cover the structural left shift
            unit, s_idx = self._head()
            if unit is None:
                return False
            self._clear(unit, s_idx)
            self._staged = (0, 0, 0, 1, 0, 0)
        elif op.kind not in ("push", "remove"):
            raise ValueError(f"unknown external op kind {op.kind!r}")
        elif not 0 < op.ident <= cfg.max_ident:
            raise ValueError(f"ident {op.ident} outside [1, {cfg.max_ident}]")
        elif op.kind == "remove":
            self._staged = (0, 0, op.ident, 0, 0, 0)
        elif not 0 <= op.data <= cfg.data_mask:
            raise ValueError(f"data {op.data} outside [0, {cfg.data_mask}]")
        else:
            self._staged = (op.ident, op.data, op.ident, 0, 0, 0)
        self.issue_gate = CYCLES_PER_OP
        return True

    def peek(self) -> Element | None:
        unit, s_idx = self._head()
        if unit is None:
            return None
        return Element(unit.ids[s_idx], unit.data[s_idx])

    def occupancy(self) -> int:
        return sum(unit.count for unit in self.units)

    def is_quiescent(self) -> bool:
        return (self._staged is None and not self._active
                and not self._latched)

    def snapshot(self) -> list[Element]:
        """Occupied slots head-first across units.  Quiescent state only."""
        if not self.is_quiescent():
            raise RuntimeError("snapshot requires a quiescent pipeline")
        out = []
        seen_gap = False
        for unit in self.units:
            for ident, data in zip(unit.ids, unit.data):
                if ident == 0:
                    seen_gap = True
                elif seen_gap:
                    raise RuntimeError(
                        "occupied slot behind an empty slot: contiguity "
                        "violated")
                else:
                    out.append(Element(ident, data))
        return out

    def drain(self) -> int:
        """Step until quiescent; returns cycles stepped."""
        limit = CYCLES_PER_OP * (self.n_units + 2) + 4
        for n in range(limit + 1):
            if self.is_quiescent():
                return n
            self.step()
        raise RuntimeError(f"pipeline not quiescent after {limit} cycles")

    # -- cycle evolution ----------------------------------------------------

    def step(self):
        self.cycle += 1
        self._writes = {}
        self._feed()
        units = self.units
        for idx in sorted(self._active, reverse=True):
            phase = units[idx].phase
            if phase == SEARCH:
                self._do_search(idx)
            elif phase == SHIFT_SET:
                self._do_shift_set(idx)
            else:
                self._do_finish(idx)
        if self.issue_gate:
            self.issue_gate -= 1

    def _feed(self):
        if self._staged is not None:
            self._start(0, self._staged)
            self._staged = None
        if self._latched:
            registers = self.registers
            for i in sorted(self._latched):
                ops = registers[i]
                registers[i] = ()
                if i + 1 < self.n_units:
                    self._start(i + 1, ops)
                # else: propagated past the last unit and dies there
            self._latched = []

    def _start(self, idx: int, ops: tuple):
        unit = self.units[idx]
        if unit.phase != IDLE:
            raise SimulationHazard(
                f"cycle {self.cycle}: op fed to unit {idx} while it is "
                f"in {unit.phase}")
        unit.pending = ops
        unit.phase = SEARCH
        self._active.add(idx)

    # -- helpers ------------------------------------------------------------

    def _head(self, exclude_ident: int = 0):
        """(unit, slot) of the queue head, skipping `exclude_ident`;
        (None, -1) when there is none."""
        slots = self._slots
        for unit in self.units:
            if unit.count:
                ids = unit.ids
                for s_idx in compress(slots, ids):
                    if ids[s_idx] != exclude_ident:
                        return unit, s_idx
        return None, -1

    def _highest(self, exclude_ident: int = 0) -> int:
        """MSB of the queue head, the global sort-group signal.

        An in-flight update must base its comparisons on the head that
        will remain after its own removal half lands, so the search
        phase passes the removal target here.  Delete-then-insert
        ordering falls apart otherwise when the update hits the head
        and the next element sits in the other timestamp group.
        """
        unit, s_idx = self._head(exclude_ident)
        if unit is None:
            return 0
        return msb(unit.data[s_idx], self.config.data_width)

    def _next_first(self, idx: int) -> int:
        """Slot of the downstream neighbour's first element, or -1."""
        if idx + 1 >= self.n_units:
            return -1
        unit = self.units[idx + 1]
        if not unit.count:
            return -1
        return next(compress(self._slots, unit.ids))

    def _clear(self, unit: SystolicUnit, s_idx: int) -> tuple[int, int]:
        """Empty one slot; returns the (id, data) it held.  The slots of
        a busy unit belong to its op until finish, so only an idle unit
        may lose one."""
        if unit.phase != IDLE:
            raise SimulationHazard(
                f"cycle {self.cycle}: slot cleared in a unit in {unit.phase}")
        held = unit.ids[s_idx], unit.data[s_idx]
        unit.ids[s_idx] = 0
        unit.data[s_idx] = self.config.data_mask
        unit.count -= 1
        return held

    def _take_next_first(self, idx: int) -> tuple[int, int] | None:
        """Move the downstream head's (id, data) into the caller's hands.
        The hole this leaves at the neighbour's head is compacted by the
        dequeue latched toward it in the same finish."""
        s_idx = self._next_first(idx)
        if s_idx < 0:
            return None
        # checked before the clear below rewrites the slot in place
        self._record_writes(idx + 1, {s_idx})
        return self._clear(self.units[idx + 1], s_idx)

    def _record_writes(self, u_idx: int, slots: set[int]):
        """Add `slots` (a set the caller gives up) to this cycle's
        writes to unit `u_idx`, first working out the slots a pending
        `_write` changed."""
        seen = self._writes.get(u_idx)
        if seen is None:
            self._writes[u_idx] = slots
            return
        if type(seen) is tuple:
            seen = _changed_slots(*seen)
        if not seen.isdisjoint(slots):
            raise SimulationHazard(
                f"cycle {self.cycle}: double write to unit {u_idx} "
                f"slot {min(seen & slots)}")
        self._writes[u_idx] = seen | slots

    def _write(self, idx: int, ids: list[int], data: list[int]):
        """Store a unit's occupants head-first, empties behind them.  A
        first write this cycle only keeps the old and new lists."""
        unit = self.units[idx]
        k = len(ids)
        ids += self._empty_ids[k:]
        data += self._empty_data[k:]
        layouts = (unit.ids, unit.data, ids, data)
        if self._writes.setdefault(idx, layouts) is not layouts:
            self._record_writes(idx, _changed_slots(*layouts))
        unit.ids = ids
        unit.data = data
        unit.count = k

    def _emit(self, idx: int, phase: str, ops, prefix: str = ""):
        if self.event_sink is not None:
            self.event_sink(
                f"{self.cycle},u{idx},{phase},{prefix}{self._fmt_ops(ops)}")

    @staticmethod
    def _fmt_ops(ops) -> str:
        """An op record as event text, in the order enq, deq, pf, rem."""
        enq_id, enq_data, rem_id, deq, pf_id, pf_data = ops
        parts = []
        if enq_id:
            parts.append(f"enq({enq_id},{enq_data})")
        if deq:
            parts.append("deq")
        if pf_id:
            parts.append(f"pf({pf_id},{pf_data})")
        if rem_id:
            parts.append(f"rem({rem_id})")
        return "+".join(parts) or "-"

    # -- phases --------------------------------------------------------------

    def _do_search(self, idx: int):
        unit = self.units[idx]
        # read now: unit 0 may change later in this same cycle
        unit.highest = self._highest(unit.pending[2])
        self._emit(idx, SEARCH, unit.pending)
        unit.phase = SHIFT_SET

    def _do_shift_set(self, idx: int):
        unit = self.units[idx]
        m = self.m_blocks
        enq_id, enq_data, rem_id, deq, pf_id, pf_data = unit.pending
        # the unit's one occupant read: positions index the compacted
        # view, so a transient hole left at the head by an upstream pull
        # does not skew them; the op's own shift closes that hole anyway
        ids, data = unit.occupants()
        original_count = len(ids)

        removed_found = rem_id != 0 and rem_id in ids
        if removed_found:
            i = ids.index(rem_id)
            del ids[i], data[i]

        deferred_id = deferred_data = 0
        enq_hosted = False
        if enq_id:
            # insertion index among the survivors, scanning from the tail:
            # one past the last one the incoming key does not sort before.
            # Ties stop the scan, so equal keys keep arrival order.
            half = unit.highest << (self.config.data_width - 1)
            key = enq_data ^ half
            pos = len(data)
            while pos and key < data[pos - 1] ^ half:
                pos -= 1
            # a slot vacated by an upstream pull is a hole, not a true
            # empty: the tail may still continue in the next unit
            true_empty = original_count < (m - 1 if deq else m)
            if pos < len(ids) or true_empty:
                # a genuinely short unit hosts at its tail: contiguity
                # says nothing lives downstream, so that position is final
                ids.insert(pos, enq_id)
                data.insert(pos, enq_data)
                enq_hosted = True
            else:
                deferred_id, deferred_data = enq_id, enq_data

        if pf_id:   # the pushed-first element sits ahead of everyone
            ids.insert(0, pf_id)
            data.insert(0, pf_data)

        spill_id = spill_data = 0
        if len(ids) > m:
            spill_id, spill_data = ids.pop(), data.pop()

        self._write(idx, ids, data)
        unit.work = (removed_found, deferred_id, deferred_data, spill_id,
                     spill_data, enq_hosted)
        self._emit(idx, SHIFT_SET, unit.pending)
        unit.phase = FINISH

    def _do_finish(self, idx: int):
        unit = self.units[idx]
        m = self.m_blocks
        enq_id, _, rem_id, deq, _, _ = unit.pending
        (removed_found, deferred_id, deferred_data, spill_id, spill_data,
         enq_hosted) = unit.work
        # the compacted prefix shift-set wrote; no one clears a slot of
        # a busy unit, so it still holds
        ids, data = unit.ids[:unit.count], unit.data[:unit.count]
        out_id = out_data = out_deq = out_rem = 0
        kinds = PF if spill_id else 0

        if deferred_id:
            s_idx = self._next_first(idx)
            # the neighbour's head sorts after the deferred element
            half = self._highest() << (self.config.data_width - 1)
            after = s_idx >= 0 and (deferred_data ^ half
                                    < self.units[idx + 1].data[s_idx] ^ half)
            if len(ids) < m:
                # a removal (or an upstream pull) opened a slot at our tail
                if s_idx < 0 or after:
                    ids.append(deferred_id)
                    data.append(deferred_data)
                    enq_hosted = True
                else:
                    grabbed_id, grabbed_data = self._take_next_first(idx)
                    ids.append(grabbed_id)
                    data.append(grabbed_data)
                    out_id, out_data, out_deq = deferred_id, deferred_data, 1
                    kinds |= ENQ | DEQ
            else:
                out_id, out_data = deferred_id, deferred_data
                kinds |= ENQ
        elif (removed_found or deq) and len(ids) < m:
            grabbed = self._take_next_first(idx)
            if grabbed is not None:
                ids.append(grabbed[0])
                data.append(grabbed[1])
                out_deq = 1
                kinds |= DEQ

        if rem_id and not removed_found and self._next_first(idx) >= 0:
            out_rem = rem_id
            kinds |= REM

        self._write(idx, ids, data)
        out = (out_id, out_data, out_rem, out_deq, spill_id, spill_data)

        if enq_id and rem_id:
            self.row_counts[(removed_found, enq_hosted)] += 1
            # the state-aware decision must never propagate more than
            # the pure table allows
            if kinds & ~_PAIR_TABLE[(removed_found, enq_hosted)]:
                raise SimulationHazard(
                    f"cycle {self.cycle}: unit {idx} propagates "
                    f"{self._fmt_ops(out)} beyond the table")

        if self.registers[idx]:
            raise SimulationHazard(
                f"cycle {self.cycle}: register {idx} overwritten")
        if kinds:
            self.registers[idx] = out
            self._latched.append(idx)
        self._emit(idx, FINISH, out, "out=")
        unit.phase = IDLE
        self._active.discard(idx)
