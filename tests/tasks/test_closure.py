"""Tests for closures, continuations, and join counters."""

import pytest

from repro.errors import ClosureError
from repro.tasks.closure import CLEARINGHOUSE_TARGET, Closure, Continuation


def make(missing=0, args=(1, 2, 3)):
    return Closure(("w0", 1), "fn", list(args), missing=missing)


class TestClosure:
    def test_fully_applied_is_ready(self):
        c = make()
        assert c.is_ready
        assert c.join_counter == 0

    def test_missing_slots_counted(self):
        c = make(missing=2, args=(1,))
        assert c.join_counter == 2
        assert not c.is_ready

    def test_fill_decrements_and_enables(self):
        c = make(missing=2, args=(1,))
        assert c.fill(1, "x") is False
        assert c.fill(2, "y") is True
        assert c.is_ready
        assert c.args == [1, "x", "y"]

    def test_double_fill_raises(self):
        c = make(missing=1, args=(1,))
        c.fill(1, "x")
        with pytest.raises(ClosureError):
            c.fill(1, "again")

    def test_fill_present_slot_raises(self):
        c = make(missing=1, args=(1,))
        with pytest.raises(ClosureError):
            c.fill(0, "nope")

    def test_slot_filled_bounds(self):
        c = make()
        with pytest.raises(ClosureError):
            c.slot_filled(99)

    def test_call_args_requires_ready(self):
        c = make(missing=1, args=())
        with pytest.raises(ClosureError):
            c.call_args()

    def test_call_args_returns_values(self):
        assert make().call_args() == [1, 2, 3]

    def test_redo_copy_new_identity_same_content(self):
        c = make()
        clone = c.redo_copy(("w1", 9))
        assert clone.cid == ("w1", 9)
        assert clone.args == c.args
        assert clone.thread_name == c.thread_name
        assert clone.depth == c.depth

    def test_redo_copy_requires_ready(self):
        c = make(missing=1, args=())
        with pytest.raises(ClosureError):
            c.redo_copy(("w1", 9))

    def test_repr_shows_holes(self):
        c = make(missing=1, args=(1,))
        assert "_" in repr(c)


class TestContinuation:
    def test_equality_and_hash(self):
        a = Continuation(("w", 1), 2)
        b = Continuation(("w", 1), 2)
        c = Continuation(("w", 1), 3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "other"

    def test_clearinghouse_target_is_reserved(self):
        k = Continuation(CLEARINGHOUSE_TARGET, 0)
        assert k.target[0] == "@clearinghouse"
