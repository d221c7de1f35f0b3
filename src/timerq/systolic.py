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
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Enqueue:
    element: Element


@dataclass(frozen=True)
class Remove:
    ident: int


@dataclass(frozen=True)
class Dequeue:
    pass


@dataclass(frozen=True)
class PushFirst:
    element: Element


_LEGAL_COMBOS = frozenset({
    frozenset((Enqueue, Remove)),
    frozenset((Enqueue,)),
    frozenset((Remove,)),
    frozenset((Dequeue,)),
    frozenset((PushFirst,)),
    frozenset((Dequeue, Enqueue)),
    frozenset((PushFirst, Remove)),
})


def propagate(found_id: bool, found_rank: bool, in_kinds) -> frozenset:
    """Pure propagation table: which op kinds continue downstream.

    For the combined enqueue+remove pair this is the four-row rule; for
    single ops the reduced forms.  Context conditions (a PushFirst only
    materializes on an actual tail spill, a Remove or Dequeue dies when
    nothing lives downstream) are applied by the unit that owns the
    state, so callers may prune the returned set but never extend it.
    """
    kinds = frozenset(in_kinds)
    if kinds not in _LEGAL_COMBOS:
        raise ValueError(f"illegal op combination {sorted(k.__name__ for k in kinds)}")
    if kinds == frozenset((Enqueue, Remove)):
        if found_id and found_rank:
            return frozenset()
        if found_id:
            return frozenset((Enqueue, Dequeue))
        if found_rank:
            return frozenset((Remove, PushFirst))
        return frozenset((Enqueue, Remove))
    if kinds == frozenset((Dequeue, Enqueue)):
        return frozenset() if found_rank else frozenset((Dequeue, Enqueue))
    if kinds == frozenset((PushFirst, Remove)):
        return frozenset() if found_id else frozenset((PushFirst, Remove))
    if kinds == frozenset((Enqueue,)):
        return frozenset((PushFirst,)) if found_rank else frozenset((Enqueue,))
    if kinds == frozenset((Remove,)):
        return frozenset((Dequeue,)) if found_id else frozenset((Remove,))
    if kinds == frozenset((Dequeue,)):
        return frozenset((Dequeue,))
    return frozenset((PushFirst,))


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


class ShiftBlock:
    """One element slot.  Empty encoding: id 0 with all-ones data."""

    __slots__ = ("ident", "data")

    def __init__(self, data_mask: int):
        self.ident = 0
        self.data = data_mask

    @property
    def is_empty(self) -> bool:
        return self.ident == 0

    def element(self) -> Element | None:
        return None if self.ident == 0 else Element(self.ident, self.data)


def _slot_flag(slot_ident: int, slot_data: int, push_data: int,
               highest: int, data_width: int) -> int:
    """Per-slot comparison: 1 means the incoming element belongs at or
    before this slot.  Empty slots are always insertable.  Ties give 0
    so equal timestamps keep arrival order."""
    if slot_ident == 0:
        return 1
    if highest == 0:
        return 1 if slot_data > push_data else 0
    s_msb = msb(slot_data, data_width)
    p_msb = msb(push_data, data_width)
    if s_msb == p_msb:
        return 1 if slot_data > push_data else 0
    if s_msb == 0 and p_msb == 1:
        # resident already wrapped past zero, incoming has not: sooner
        return 1
    return 0


def unit_compare(unit: "SystolicUnit", push_data: int, highest: int,
                 data_width: int) -> list[int]:
    """Comparison flags for each slot of a unit against an incoming
    timestamp, under the global head-group bit."""
    return [
        _slot_flag(blk.ident, blk.data, push_data, highest, data_width)
        for blk in unit.blocks
    ]


class SystolicUnit:
    def __init__(self, m_blocks: int, data_mask: int):
        self.blocks = [ShiftBlock(data_mask) for _ in range(m_blocks)]
        self.phase = IDLE
        self.pending: tuple = ()
        self.compare_flag: list = [None] * m_blocks
        self.id_match: list = [0] * m_blocks
        self.work: dict = {}

    def occupants(self) -> list[Element]:
        return [blk.element() for blk in self.blocks if not blk.is_empty]

    def first_element(self) -> Element | None:
        for blk in self.blocks:
            if not blk.is_empty:
                return blk.element()
        return None

    def occupied_count(self) -> int:
        return sum(1 for blk in self.blocks if not blk.is_empty)


class SystolicQueue:
    """N units x M blocks with a per-unit three-cycle pipeline."""

    def __init__(self, config: QueueConfig, n_units: int, m_blocks: int,
                 event_sink=None):
        if n_units < 1:
            raise ValueError("need at least one unit")
        if m_blocks < 2:
            raise ValueError(
                "need at least two blocks per unit: the boundary slot "
                "must be distinct from the head slot")
        if n_units * m_blocks != config.capacity:
            raise ValueError(
                f"geometry {n_units}x{m_blocks} != capacity {config.capacity}")
        self.config = config
        self.n_units = n_units
        self.m_blocks = m_blocks
        self.units = [SystolicUnit(m_blocks, config.data_mask)
                      for _ in range(n_units)]
        # registers[i] latches the op tuple for units[i+1]; ops latched at
        # the last unit fall off the end (callers size the array so that
        # only a push into a full queue can lose an element this way)
        self.registers: list[tuple] = [()] * n_units
        self.cycle = 0
        self.issue_gate = 0
        self._staged: tuple | None = None
        # (found_id, found_rank) occurrence counts for enqueue+remove
        # pairs, across all units
        self.row_counts: dict[tuple[bool, bool], int] = {
            (a, b): 0 for a in (False, True) for b in (False, True)}
        self.event_sink = event_sink
        self._writes: dict = {}

    # -- external interface -------------------------------------------------

    def issue(self, op: ExternalOp) -> bool:
        """Offer one external op.  Returns False when back-pressured
        (fewer than three cycles since the last acceptance) or when a
        pop finds the queue empty."""
        if self.issue_gate != 0:
            return False
        cfg = self.config
        if op.kind == "push":
            if not 0 < op.ident <= cfg.max_ident:
                raise ValueError(f"ident {op.ident} outside [1, {cfg.max_ident}]")
            if not 0 <= op.data <= cfg.data_mask:
                raise ValueError(f"data {op.data} outside [0, {cfg.data_mask}]")
            self._staged = (Enqueue(Element(op.ident, op.data)), Remove(op.ident))
        elif op.kind == "pop":
            # the head value is combinationally readable at acceptance;
            # the three cycles cover the structural left shift
            if self._clear_head() is None:
                return False
            self._staged = (Dequeue(),)
        elif op.kind == "remove":
            self._staged = (Remove(op.ident),)
        else:
            raise ValueError(f"unknown external op kind {op.kind!r}")
        self.issue_gate = CYCLES_PER_OP
        return True

    def peek(self) -> Element | None:
        for unit in self.units:
            el = unit.first_element()
            if el is not None:
                return el
        return None

    def occupancy(self) -> int:
        return sum(unit.occupied_count() for unit in self.units)

    def is_quiescent(self) -> bool:
        if self._staged is not None:
            return False
        if any(unit.phase != IDLE for unit in self.units):
            return False
        return not any(self.registers)

    def snapshot(self) -> list[Element]:
        """Occupied slots head-first across units.  Quiescent state only."""
        if not self.is_quiescent():
            raise RuntimeError("snapshot requires a quiescent pipeline")
        out = []
        seen_gap = False
        for unit in self.units:
            for blk in unit.blocks:
                if blk.is_empty:
                    seen_gap = True
                elif seen_gap:
                    raise RuntimeError(
                        "occupied slot behind an empty slot: contiguity "
                        "violated")
                else:
                    out.append(blk.element())
        return out

    def drain(self, limit: int | None = None) -> int:
        """Step until quiescent; returns cycles stepped."""
        if limit is None:
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
        for idx in range(self.n_units - 1, -1, -1):
            phase = self.units[idx].phase
            if phase == SEARCH:
                self._do_search(idx)
            elif phase == SHIFT_SET:
                self._do_shift_set(idx)
            elif phase == FINISH:
                self._do_finish(idx)
        if self.issue_gate:
            self.issue_gate -= 1

    def _feed(self):
        if self._staged is not None:
            self._start(0, self._staged)
            self._staged = None
        for i, ops in enumerate(self.registers):
            if ops:
                self.registers[i] = ()
                if i + 1 < self.n_units:
                    self._start(i + 1, ops)
                # else: propagated past the last unit and dies there

    def _start(self, idx: int, ops: tuple):
        unit = self.units[idx]
        if unit.phase != IDLE:
            raise SimulationHazard(
                f"cycle {self.cycle}: op fed to unit {idx} while it is "
                f"in {unit.phase}")
        unit.pending = ops
        unit.phase = SEARCH

    # -- helpers ------------------------------------------------------------

    def _highest(self, exclude_ident: int | None = None) -> int:
        """MSB of the queue head, the global sort-group signal.

        An in-flight update must base its comparisons on the head that
        will remain after its own removal half lands, so the search
        phase passes the removal target here.  Delete-then-insert
        ordering falls apart otherwise when the update hits the head
        and the next element sits in the other timestamp group.
        """
        for unit in self.units:
            for blk in unit.blocks:
                if not blk.is_empty and blk.ident != exclude_ident:
                    return msb(blk.data, self.config.data_width)
        return 0

    def _clear_head(self) -> Element | None:
        for unit in self.units:
            for blk in unit.blocks:
                if not blk.is_empty:
                    el = blk.element()
                    blk.ident = 0
                    blk.data = self.config.data_mask
                    return el
        return None

    def _next_first(self, idx: int) -> Element | None:
        if idx + 1 >= self.n_units:
            return None
        return self.units[idx + 1].first_element()

    def _take_next_first(self, idx: int) -> Element | None:
        """Move the downstream head into the caller's hands.  The hole
        this leaves at the neighbour's head is compacted by the dequeue
        latched toward it in the same finish."""
        if idx + 1 >= self.n_units:
            return None
        for s_idx, blk in enumerate(self.units[idx + 1].blocks):
            if not blk.is_empty:
                el = blk.element()
                blk.ident = 0
                blk.data = self.config.data_mask
                self._record_write(idx + 1, s_idx)
                return el
        return None

    def _record_write(self, u_idx: int, s_idx: int):
        key = (u_idx, s_idx)
        if key in self._writes:
            raise SimulationHazard(
                f"cycle {self.cycle}: double write to unit {u_idx} "
                f"slot {s_idx}")
        self._writes[key] = True

    def _apply_occupants(self, idx: int, occ: list[Element]):
        unit = self.units[idx]
        mask = self.config.data_mask
        for s_idx, blk in enumerate(unit.blocks):
            if s_idx < len(occ):
                new_ident, new_data = occ[s_idx].ident, occ[s_idx].data
            else:
                new_ident, new_data = 0, mask
            if blk.ident != new_ident or blk.data != new_data:
                self._record_write(idx, s_idx)
                blk.ident = new_ident
                blk.data = new_data

    def _emit(self, idx: int, phase: str, detail: str):
        if self.event_sink is not None:
            self.event_sink(f"{self.cycle},u{idx},{phase},{detail}")

    @staticmethod
    def _fmt_ops(ops) -> str:
        parts = []
        for op in ops:
            if isinstance(op, Enqueue):
                parts.append(f"enq({op.element.ident},{op.element.data})")
            elif isinstance(op, Remove):
                parts.append(f"rem({op.ident})")
            elif isinstance(op, Dequeue):
                parts.append("deq")
            else:
                parts.append(f"pf({op.element.ident},{op.element.data})")
        return "+".join(parts) if parts else "-"

    # -- phases --------------------------------------------------------------

    def _do_search(self, idx: int):
        unit = self.units[idx]
        m = self.m_blocks
        w = self.config.data_width
        rid = None
        push_data = None
        for op in unit.pending:
            if isinstance(op, Remove):
                rid = op.ident
            elif isinstance(op, Enqueue):
                push_data = op.element.data
        highest = self._highest(exclude_ident=rid)

        # both signal vectors index the compacted occupant view, so a
        # transient hole left at the head by an upstream pull does not
        # skew positions; the op's own shift closes that hole anyway
        occ = unit.occupants()
        unit.id_match = [
            1 if (rid is not None and el.ident == rid) else 0 for el in occ]
        unit.id_match += [0] * (m - len(occ))

        if push_data is not None:
            flags = [_slot_flag(el.ident, el.data, push_data, highest, w)
                     for el in occ]
            flags += [1] * (m - len(occ))
        else:
            flags = [None] * m
        unit.compare_flag = flags

        unit.work = {}
        self._emit(idx, SEARCH, self._fmt_ops(unit.pending))
        unit.phase = SHIFT_SET

    def _do_shift_set(self, idx: int):
        unit = self.units[idx]
        m = self.m_blocks
        enq = rem = None
        has_deq = has_pf = False
        for op in unit.pending:
            if isinstance(op, Enqueue):
                enq = op
            elif isinstance(op, Remove):
                rem = op
            elif isinstance(op, Dequeue):
                has_deq = True
            else:
                has_pf = op
        occ = unit.occupants()
        original_count = len(occ)

        removed_found = False
        if rem is not None:
            for i, el in enumerate(occ):
                if el.ident == rem.ident:
                    del occ[i]
                    removed_found = True
                    break

        if has_pf:
            occ.insert(0, has_pf.element)

        deferred = None
        enq_hosted = False
        if enq is not None:
            flags = unit.compare_flag
            # insertion index among the post-removal survivors: count the
            # zero-flag residents (they sort at or before the incoming
            # element), skipping the one the remove deleted
            pos = 0
            survivor_i = 0
            removed_seen = False
            for el_i in range(original_count):
                if (rem is not None and not removed_seen
                        and unit.id_match[el_i] == 1):
                    removed_seen = True
                    continue
                if flags[el_i] == 0:
                    pos = survivor_i + 1
                survivor_i += 1
            if has_pf:
                pos += 1  # the pushed-first element sits ahead of everyone
            # a slot vacated by an upstream pull is a hole, not a true
            # empty: the tail may still continue in the next unit
            true_empty = original_count < (m - 1 if has_deq else m)
            if pos < len(occ):
                occ.insert(pos, enq.element)
                enq_hosted = True
            elif true_empty:
                # genuinely short unit: contiguity says nothing lives
                # downstream, so the tail position is final
                occ.append(enq.element)
                enq_hosted = True
            else:
                deferred = enq.element

        spill = None
        if len(occ) > m:
            spill = occ.pop()

        self._apply_occupants(idx, occ)
        unit.work.update(
            rem=rem, removed_found=removed_found, has_deq=has_deq,
            deferred=deferred, spill=spill, enq=enq, enq_hosted=enq_hosted)
        self._emit(idx, SHIFT_SET, self._fmt_ops(unit.pending))
        unit.phase = FINISH

    def _do_finish(self, idx: int):
        unit = self.units[idx]
        m = self.m_blocks
        work = unit.work
        occ = unit.occupants()
        out = []
        enq_hosted = work.get("enq_hosted", False)

        deferred = work.get("deferred")
        if deferred is not None:
            highest = self._highest()
            nxt = self._next_first(idx)
            flag = None
            if nxt is not None:
                flag = _slot_flag(nxt.ident, nxt.data, deferred.data,
                                  highest, self.config.data_width)
            if len(occ) < m:
                # a removal (or an upstream pull) opened a slot at our tail
                if nxt is None or flag == 1:
                    occ.append(deferred)
                    enq_hosted = True
                else:
                    grabbed = self._take_next_first(idx)
                    occ.append(grabbed)
                    out.append(Enqueue(deferred))
                    out.append(Dequeue())
            else:
                out.append(Enqueue(deferred))
        elif (work.get("removed_found") or work.get("has_deq")) and len(occ) < m:
            grabbed = self._take_next_first(idx)
            if grabbed is not None:
                occ.append(grabbed)
                out.append(Dequeue())

        if work.get("spill") is not None:
            out.append(PushFirst(work["spill"]))

        rem = work.get("rem")
        if rem is not None and not work.get("removed_found"):
            if self._next_first(idx) is not None:
                out.append(Remove(rem.ident))

        self._apply_occupants(idx, occ)

        if work.get("enq") is not None and rem is not None:
            found_id = bool(work.get("removed_found"))
            self.row_counts[(found_id, enq_hosted)] += 1
            # the state-aware decision must never propagate more than
            # the pure table allows
            table = propagate(found_id, enq_hosted, (Enqueue, Remove))
            if not {type(o) for o in out} <= table:
                raise SimulationHazard(
                    f"cycle {self.cycle}: unit {idx} propagates "
                    f"{self._fmt_ops(out)} beyond the table")

        if self.registers[idx]:
            raise SimulationHazard(
                f"cycle {self.cycle}: register {idx} overwritten")
        self.registers[idx] = tuple(out)
        unit.pending = ()
        unit.work = {}
        self._emit(idx, FINISH, f"out={self._fmt_ops(out)}")
        unit.phase = IDLE
