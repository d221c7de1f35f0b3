"""Reference model unit tests: modular timing and grouped ordering."""

import bisect

import pytest
from hypothesis import example, given, settings, strategies as st

from timerq.core import (
    BehavioralQueue,
    CapacityError,
    Element,
    PushReport,
    QueueConfig,
    expiry_tick,
    is_expired,
    make_expiration,
    msb,
    sort_key,
)
from conftest import make_config


class TestMakeExpiration:
    def test_plain_sum(self):
        assert make_expiration(100, 27, 9, 7) == 127

    def test_wraps_modulo_width(self):
        assert make_expiration(500, 27, 9, 7) == 15

    def test_zero_timeout_rejected(self):
        with pytest.raises(ValueError):
            make_expiration(100, 0, 9, 7)

    def test_timeout_above_field_rejected(self):
        with pytest.raises(ValueError):
            make_expiration(100, 128, 9, 7)

    def test_max_timeout_allowed(self):
        assert make_expiration(0, 127, 9, 7) == 127


class TestIsExpired:
    def test_equal_is_not_expired(self):
        assert is_expired(100, 100, 9) is False

    def test_one_past_is_expired(self):
        assert is_expired(100, 101, 9) is True

    def test_wrapped_timer_sees_expiry(self):
        # expiration 510 written before wrap; timer has wrapped to 3
        assert is_expired(510, 3, 9) is True

    def test_future_expiration_not_expired(self):
        assert is_expired(3, 510, 9) is False

    def test_half_range_boundary_excluded(self):
        # lag of exactly half the range must not read as expired,
        # otherwise a fresh max-timeout entry could be popped at once
        assert is_expired(0, 256, 9) is False
        assert is_expired(0, 255, 9) is True
        assert is_expired(0, 511, 9) is False


class TestExpiryTick:
    @pytest.mark.parametrize("push_tick", [0, 7, 500, 511, 512, 5000])
    @pytest.mark.parametrize("timeout", [1, 10, 127])
    def test_reconstructs_exact_wide_tick(self, push_tick, timeout):
        data = make_expiration(push_tick & 0x1FF, timeout, 9, 7)
        true_expiry = push_tick + timeout
        # reconstruction works from expiry up to just under half a wrap later
        for now in (true_expiry, true_expiry + 1, true_expiry + 200,
                    true_expiry + 255):
            assert expiry_tick(data, now, 9) == true_expiry


class TestSortKey:
    def test_wrapped_group_examples(self):
        assert sort_key(5, 1, 8) == 133
        assert sort_key(200, 1, 8) == 72

    def test_plain_group_is_identity(self):
        assert sort_key(5, 0, 8) == 5
        assert sort_key(200, 0, 8) == 200

    def test_order_under_wrapped_head(self):
        data = [200, 240, 5, 30]
        keys = [sort_key(d, 1, 8) for d in sorted(data, key=lambda d: sort_key(d, 1, 8))]
        assert keys == [72, 112, 133, 158]

    def test_msb(self):
        assert msb(255, 8) == 1
        assert msb(127, 8) == 0
        assert msb(256, 9) == 1


class TestQueueConfig:
    def test_rejects_narrow_data_width(self):
        # the timestamp field must exceed the timeout field by at least
        # two bits or expired and future entries become ambiguous
        with pytest.raises(ValueError):
            QueueConfig(id_width=5, data_width=8, timeout_width=7, capacity=8)

    def test_rejects_id_space_smaller_than_capacity(self):
        with pytest.raises(ValueError):
            QueueConfig(id_width=3, data_width=9, timeout_width=7, capacity=8)

    @pytest.mark.parametrize("field", ["data_width", "timeout_width",
                                       "id_width"])
    @pytest.mark.parametrize("width", [0, -1])
    def test_rejects_width_below_one(self, field, width):
        widths = {"data_width": 9, "timeout_width": 7, "id_width": 5,
                  field: width}
        # the message opens with the field, so a params file fault can
        # be traced to the line that set it
        with pytest.raises(ValueError, match=f"^{field} {width} must be"):
            QueueConfig(capacity=16, **widths)

    def test_derived_fields(self):
        cfg = QueueConfig(id_width=5, data_width=9, timeout_width=7, capacity=16)
        assert cfg.data_mask == 511
        assert cfg.max_timeout == 127
        assert cfg.max_ident == 31


class TestBehavioralQueue:
    def test_insert_position_under_wrapped_head(self, small_config):
        cfg = make_config(data_width=8, capacity=8)
        q = BehavioralQueue(cfg)
        q.push(1, 200)
        q.push(2, 240)
        assert q.head_msb == 1
        assert q.insert_position(10) == 2

    def test_upsert_moves_element(self, small_config):
        q = BehavioralQueue(small_config)
        q.push(1, 10)
        q.push(2, 20)
        q.push(3, 30)
        report = q.push(1, 25)
        assert report.was_update is True
        assert [(e.ident, e.data) for e in q.items] == [(2, 20), (1, 25), (3, 30)]
        assert [q.pop().ident for _ in range(3)] == [2, 1, 3]

    def test_upsert_can_move_to_head(self, small_config):
        q = BehavioralQueue(small_config)
        q.push(7, 90)
        q.push(7, 30)
        assert len(q) == 1
        assert q.peek() == Element(7, 30)

    def test_fifo_among_equal_data(self, small_config):
        q = BehavioralQueue(small_config)
        q.push(1, 50)
        q.push(2, 50)
        q.push(3, 50)
        assert [q.pop().ident for _ in range(3)] == [1, 2, 3]

    def test_pop_empty_raises(self, small_config):
        q = BehavioralQueue(small_config)
        with pytest.raises(IndexError):
            q.pop()

    def test_remove_present_and_absent(self, small_config):
        q = BehavioralQueue(small_config)
        q.push(4, 44)
        assert q.remove(4) == Element(4, 44)
        assert q.remove(4) is None

    def test_capacity_enforced_for_new_ids_only(self):
        cfg = make_config(capacity=2, id_width=4)
        q = BehavioralQueue(cfg)
        q.push(1, 10)
        q.push(2, 20)
        with pytest.raises(CapacityError):
            q.push(3, 30)
        # updating a resident id is fine at capacity
        q.push(2, 5)
        assert q.peek() == Element(2, 5)

    def test_argument_validation(self, small_config):
        q = BehavioralQueue(small_config)
        with pytest.raises(ValueError):
            q.push(0, 10)
        with pytest.raises(ValueError):
            q.push(40, 10)
        with pytest.raises(ValueError):
            q.push(1, 512)

    def test_insert_case_counters(self):
        cfg = make_config(data_width=8, capacity=8)
        q = BehavioralQueue(cfg)
        q.push(1, 200)    # empty queue: no case recorded
        q.push(2, 250)    # head 1, incoming 1
        q.push(3, 10)     # head 1, incoming 0 (wrapped)
        q.pop()
        q.pop()
        q.push(4, 20)     # head 0, incoming 0
        q.push(5, 200)    # head 0, incoming 1
        assert q.insert_case_counts[(1, 1)] == 1
        assert q.insert_case_counts[(1, 0)] == 1
        assert q.insert_case_counts[(0, 0)] == 1
        assert q.insert_case_counts[(0, 1)] == 1


def four_case_position(items, data, width):
    """Independent re-derivation of the insertion rule as the literal
    case split on (head group bit, incoming group bit).  The queue's
    bisect-on-key must agree with this everywhere."""
    if not items:
        return 0
    head_bit = msb(items[0].data, width)
    data_bit = msb(data, width)
    if head_bit == 0:
        # plain ascending; wrapped (bit 1) incoming also lands by raw
        # value since every resident with bit 1 is behind the bit-0 run
        for i, el in enumerate(items):
            if el.data > data:
                return i
        return len(items)
    if data_bit == 1:
        # same group as the head: ascending within the leading bit-1 run
        for i, el in enumerate(items):
            if msb(el.data, width) == 0 or el.data > data:
                return i
        return len(items)
    # head wrapped high, incoming low: belongs in the trailing bit-0 run
    for i, el in enumerate(items):
        if msb(el.data, width) == 0 and el.data > data:
            return i
    return len(items)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_bisect_position_matches_case_split(data):
    width = data.draw(st.sampled_from([4, 5, 8]))
    space = 1 << width
    cfg = make_config(data_width=width, capacity=8, id_width=4)
    q = BehavioralQueue(cfg)
    values = data.draw(st.lists(st.integers(0, space - 1), max_size=6))
    for i, v in enumerate(values):
        if len(q) < cfg.capacity:
            q.push(i + 1, v)
    incoming = data.draw(st.integers(0, space - 1))
    assert q.insert_position(incoming) == four_case_position(q.items, incoming, width)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_random_ops_keep_sorted_unique(data):
    cfg = make_config(data_width=9, capacity=8, id_width=4)
    q = BehavioralQueue(cfg)
    for _ in range(data.draw(st.integers(0, 40))):
        action = data.draw(st.sampled_from(["push", "pop", "remove"]))
        if action == "push":
            ident = data.draw(st.integers(1, 10))
            value = data.draw(st.integers(0, 511))
            if len(q) >= cfg.capacity and all(e.ident != ident for e in q.items):
                continue
            q.push(ident, value)
        elif action == "pop" and len(q):
            q.pop()
        elif action == "remove":
            q.remove(data.draw(st.integers(1, 10)))
        assert q.is_sorted()
        idents = [e.ident for e in q.items]
        assert len(idents) == len(set(idents))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_uniform_timeout_pop_order_tracks_true_expiry(seed):
    """With one shared timeout the modular order must equal true wide
    order across wraps: pop stream comes out sorted by wide expiry."""
    import random

    rng = random.Random(seed)
    cfg = make_config(data_width=9, capacity=16, id_width=6)
    q = BehavioralQueue(cfg)
    timeout = rng.randint(1, 127)
    wide = 0
    live = {}
    popped = []
    for step in range(120):
        wide += rng.randint(0, 12)
        now = wide & cfg.data_mask
        # drain everything expired before touching the queue
        while len(q) and is_expired(q.peek().data, now, 9):
            el = q.pop()
            popped.append(expiry_tick(el.data, wide, 9))
            live.pop(el.ident)
        ident = rng.randint(1, 12)
        if len(q) >= cfg.capacity and ident not in live:
            continue
        q.push(ident, make_expiration(now, timeout, 9, 7))
        live[ident] = wide + timeout
    assert popped == sorted(popped)



class KeyBisectQueue:
    """The reference queue before the segment layout, as a naive model:
    one `Element` list kept in `sort_key` order under the head's MSB and
    searched with a keyed bisect."""

    def __init__(self, width):
        self.width = width
        self.items = []

    def _key(self, data):
        hm = msb(self.items[0].data, self.width) if self.items else 0
        return sort_key(data, hm, self.width)

    def remove(self, ident):
        for i, el in enumerate(self.items):
            if el.ident == ident:
                return self.items.pop(i)
        return None

    def push(self, ident, data):
        was_update = self.remove(ident) is not None
        pos = bisect.bisect_right(self.items, self._key(data),
                                  key=lambda el: self._key(el.data))
        self.items.insert(pos, Element(ident, data))
        return PushReport(was_update, pos)

    def pop(self):
        return self.items.pop(0)


OPS = st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(1, 6), st.integers(0, 15)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("remove"), st.integers(1, 6))), max_size=40)


@given(OPS)
@example([("push", 1, 12), ("push", 2, 14), ("push", 3, 2), ("push", 4, 1),
          ("pop",), ("remove", 2), ("push", 5, 9), ("push", 3, 13),
          ("pop",), ("pop",)])
@settings(max_examples=400, deadline=None)
def test_segments_match_key_bisect_model(ops):
    """Push, update, pop and remove agree with the keyed-bisect model
    after every op.  The explicit example empties the MSB-1 head group
    ahead of the wrapped 2 and 1, by a pop and then a remove, so the
    head MSB flips; two pops later it flips back."""
    cfg = make_config(data_width=4, capacity=8, id_width=4)
    q, model = BehavioralQueue(cfg), KeyBisectQueue(cfg.data_width)
    for op in ops:
        if op[0] == "push":
            assert q.push(*op[1:]) == model.push(*op[1:])
        elif op[0] == "pop":
            if model.items:
                assert q.pop() == model.pop()
        else:
            assert q.remove(op[1]) == model.remove(op[1])
        assert q.items == model.items
        assert q.peek() == (model.items[0] if model.items else None)
        assert q.is_sorted()
