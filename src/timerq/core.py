"""Behavioral reference model of the grouped-sorting timer queue.

Expiration timestamps live in a fixed-width space and wrap.  The queue
keeps dequeue order correct across wraps by splitting the timestamp
space into two groups on the most significant bit and letting the head
element's group decide which group drains first: entries whose
timestamps wrapped past the counter limit sort behind the pre-wrap
entries instead of jumping the queue.  `BehavioralQueue` stores that
order as two raw-ascending segments, the head's group first.

This module is the semantic ground truth the cycle-accurate model in
`systolic` is checked against.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass


class CapacityError(Exception):
    """Raised when a push of a new id would exceed queue capacity."""


def msb(value: int, width: int) -> int:
    """Most significant bit of a width-bit value."""
    return (value >> (width - 1)) & 1


def make_expiration(timer_value: int, timeout: int, data_width: int,
                    timeout_width: int) -> int:
    """Expiration timestamp (timer_value + timeout) mod 2**data_width.

    The sum is allowed to wrap; that is exactly the case group sorting
    exists to handle.  timeout must lie in (0, 2**timeout_width - 1].
    """
    limit = (1 << timeout_width) - 1
    if not 0 < timeout <= limit:
        raise ValueError(f"timeout {timeout} outside (0, {limit}]")
    return (timer_value + timeout) & ((1 << data_width) - 1)


def is_expired(data: int, timer_value: int, data_width: int) -> bool:
    """True iff data lies strictly in the past half-window of the timer.

    The lag (timer_value - data) mod 2**data_width reads back as a true
    elapsed-tick count as long as live timestamps stay within half the
    timer range, which the data_width > timeout_width + 1 sizing rule
    guarantees.  Equality (lag == 0) is not yet expired.
    """
    lag = (timer_value - data) & ((1 << data_width) - 1)
    return 0 < lag < (1 << (data_width - 1))


def expiry_tick(data: int, wide_tick: int, data_width: int) -> int:
    """Reconstruct the unbounded tick at which a popped element expired.

    Valid while the element's true expiry lies at most half the timer
    range behind wide_tick; under that window the reconstruction is
    exact, so dequeue logs can record absolute ticks without any
    per-element bookkeeping.
    """
    mask = (1 << data_width) - 1
    return wide_tick - ((wide_tick - data) & mask)


def sort_key(data: int, head_msb: int, data_width: int) -> int:
    """Dequeue-order key: ascending keys give the correct pop order.

    With the head in the lower half (msb 0) keys are the raw timestamps.
    With the head in the upper half the MSB is flipped (equivalently,
    (data + 2**(w-1)) mod 2**w), so the not-yet-wrapped upper group
    drains first and the wrapped lower group sorts behind it.
    """
    if head_msb:
        return data ^ (1 << (data_width - 1))
    return data


@dataclass(frozen=True)
class Element:
    ident: int
    data: int


@dataclass(frozen=True)
class PushReport:
    was_update: bool
    position: int


@dataclass(frozen=True)
class QueueConfig:
    """Width and sizing parameters shared by both queue models."""

    id_width: int
    data_width: int
    timeout_width: int
    capacity: int

    def __post_init__(self):
        if self.data_width <= self.timeout_width + 1:
            raise ValueError(
                f"data_width {self.data_width} must exceed timeout_width "
                f"{self.timeout_width} + 1 (half-range safety)")
        if self.capacity < 2:
            raise ValueError("capacity must be at least 2")
        if (1 << self.id_width) - 1 < self.capacity:
            raise ValueError(
                f"id_width {self.id_width} cannot address {self.capacity} "
                "concurrent elements (id 0 is reserved for empty slots)")

    @property
    def data_mask(self) -> int:
        return (1 << self.data_width) - 1

    @property
    def max_timeout(self) -> int:
        return (1 << self.timeout_width) - 1

    @property
    def max_ident(self) -> int:
        return (1 << self.id_width) - 1


class BehavioralQueue:
    """Sorted-list model with unified push/update and group ordering.

    Under head MSB h, `sort_key` order is the elements of MSB h, then
    the rest, each raw-ascending.  The queue keeps those two segments in
    int lists `ids` and `data`, the first `head_len` entries the head
    group, and bisects raw values inside one segment.  When a delete
    empties the head group, the rest becomes it.  Pushing an id already
    in the queue removes the old entry first, so ids are unique.
    """

    def __init__(self, config: QueueConfig):
        self.config = config
        self.ids: list[int] = []
        self.data: list[int] = []
        self.head_len = 0
        self._data_by_id: dict[int, int] = {}
        self._shift = config.data_width - 1     # data >> _shift is the MSB
        # (head_msb, incoming_msb) -> count; tracks which of the four
        # insertion layouts a workload actually exercised
        self.insert_case_counts: dict[tuple[int, int], int] = {
            (h, e): 0 for h in (0, 1) for e in (0, 1)}

    def __len__(self):
        return len(self.ids)

    @property
    def items(self) -> list[Element]:
        return [Element(i, d) for i, d in zip(self.ids, self.data)]

    @items.setter
    def items(self, elements: list[Element]):
        self.ids = [el.ident for el in elements]
        self.data = [el.data for el in elements]
        self._data_by_id = dict(zip(self.ids, self.data))
        hm = self.head_msb
        self.head_len = next((i for i, d in enumerate(self.data)
                              if d >> self._shift != hm), len(self.data))

    @property
    def head_msb(self) -> int:
        return self.data[0] >> self._shift if self.data else 0

    def peek(self) -> Element | None:
        return Element(self.ids[0], self.data[0]) if self.ids else None

    def _segment(self, data: int) -> tuple[int, int]:
        """Index bounds of the segment a value belongs to."""
        if data >> self._shift == self.head_msb:
            return 0, self.head_len
        return self.head_len, len(self.data)

    def insert_position(self, data: int) -> int:
        """Smallest index whose key strictly exceeds the incoming key.

        Strict comparison keeps arrival order among equal timestamps.
        """
        return bisect.bisect_right(self.data, data, *self._segment(data))

    def _index_of(self, ident: int) -> int:
        # bisect to the run of equal values, then scan it for the id
        data = self._data_by_id[ident]
        return self.ids.index(
            ident, bisect.bisect_left(self.data, data, *self._segment(data)))

    def _delete(self, i: int):
        del self._data_by_id[self.ids.pop(i)]
        del self.data[i]
        if i < self.head_len:
            # an emptied head group hands the whole rest the head role
            self.head_len = self.head_len - 1 or len(self.data)

    def push(self, ident: int, data: int) -> PushReport:
        cfg = self.config
        if not 0 < ident <= cfg.max_ident:
            raise ValueError(f"ident {ident} outside [1, {cfg.max_ident}]")
        if not 0 <= data <= cfg.data_mask:
            raise ValueError(f"data {data} outside [0, {cfg.data_mask}]")
        was_update = ident in self._data_by_id
        if was_update:
            self._delete(self._index_of(ident))
        elif len(self.ids) >= cfg.capacity:
            raise CapacityError(f"queue full ({cfg.capacity})")
        if self.data:
            case = (self.head_msb, data >> self._shift)
            self.insert_case_counts[case] += 1
        lo, hi = self._segment(data)
        pos = bisect.bisect_right(self.data, data, lo, hi)
        self.ids.insert(pos, ident)
        self.data.insert(pos, data)
        if not lo:
            self.head_len += 1
        self._data_by_id[ident] = data
        return PushReport(was_update, pos)

    def pop(self) -> Element:
        if not self.ids:
            raise IndexError("pop from an empty queue")
        el = Element(self.ids[0], self.data[0])
        self._delete(0)
        return el

    def remove(self, ident: int) -> Element | None:
        """Delete by id; returns the element, or None when absent.

        Absence is a normal outcome, not an error.
        """
        data = self._data_by_id.get(ident)
        if data is None:
            return None
        self._delete(self._index_of(ident))
        return Element(ident, data)

    def is_sorted(self) -> bool:
        hm, w = self.head_msb, self.config.data_width
        keys = [sort_key(d, hm, w) for d in self.data]
        return (self.head_len == sum(d >> self._shift == hm for d in self.data)
                and all(a <= b for a, b in zip(keys, keys[1:])))
