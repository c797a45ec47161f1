"""Closures, continuations, and join counters.

A :class:`Closure` is the unit of work the micro scheduler moves around:
self-contained once ready (all argument slots filled), so stealing one is
just shipping it to another worker.  A :class:`Continuation` names one
empty slot of one closure — globally, by (origin worker, sequence
number, slot) — so results can be sent across workers.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.errors import ClosureError

#: Globally-unique closure identity: (name of the worker that created it,
#: that worker's creation sequence number).  Sequence numbers are never
#: reused, which the crash-recovery protocol relies on.
ClosureId = Tuple[str, int]

#: The distinguished continuation target for the whole job's result: a
#: send to this pseudo-closure delivers the result to the Clearinghouse.
CLEARINGHOUSE_TARGET: ClosureId = ("@clearinghouse", 0)

_EMPTY = object()


class Continuation:
    """A handle on one empty argument slot of one closure."""

    __slots__ = ("target", "slot")

    def __init__(self, target: ClosureId, slot: int) -> None:
        self.target = target
        self.slot = slot

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Continuation)
            and other.target == self.target
            and other.slot == self.slot
        )

    def __hash__(self) -> int:
        return hash((self.target, self.slot))

    def __repr__(self) -> str:
        return f"Continuation({self.target[0]}#{self.target[1]}[{self.slot}])"


class Closure:
    """A thread function application with possibly-missing arguments.

    Attributes:
        cid: globally unique identity.
        thread_name: name of the thread function (resolved through the
            job's :class:`~repro.tasks.program.ThreadProgram` registry —
            closures travel between workers as data, so they carry the
            function's *name*, not the function).
        args: the argument list; missing slots hold an internal sentinel.
        depth: spawn-tree depth, for instrumentation.

    A closure is born with its last *missing* slots empty (a successor
    waiting for its results); with ``missing=0`` it is born ready.
    """

    __slots__ = ("cid", "thread_name", "args", "_missing", "depth")

    def __init__(
        self,
        cid: ClosureId,
        thread_name: str,
        args: Sequence[Any],
        missing: int = 0,
        depth: int = 0,
    ) -> None:
        self.cid = cid
        self.thread_name = thread_name
        self.args = list(args)
        if missing:
            # _EMPTY is module-private: this is the only way to make holes.
            self.args += [_EMPTY] * missing
        self._missing = missing
        self.depth = depth

    @property
    def join_counter(self) -> int:
        """Number of still-missing arguments."""
        return self._missing

    @property
    def is_ready(self) -> bool:
        """True when every slot is filled and the closure can run."""
        return self._missing == 0

    def slot_filled(self, slot: int) -> bool:
        """True if the given slot already holds a value."""
        if not (0 <= slot < len(self.args)):
            raise ClosureError(f"slot {slot} out of range for {self.thread_name}")
        return self.args[slot] is not _EMPTY

    def fill(self, slot: int, value: Any) -> bool:
        """Deposit *value* into *slot*; returns True if this made it ready.

        Filling an already-filled slot is a :class:`ClosureError`: the
        scheduler's send path deduplicates crash-redo duplicates *before*
        calling fill, so a double fill here is a programming bug.
        """
        args = self.args
        if not (0 <= slot < len(args) and args[slot] is _EMPTY):
            self.slot_filled(slot)  # raises if out of range
            raise ClosureError(
                f"slot {slot} of {self.thread_name}#{self.cid} filled twice"
            )
        args[slot] = value
        self._missing -= 1
        return self._missing == 0

    def call_args(self) -> List[Any]:
        """The argument list, for invocation; requires readiness."""
        if self._missing:
            raise ClosureError(
                f"closure {self.thread_name}#{self.cid} invoked with "
                f"{self._missing} missing argument(s)"
            )
        return self.args

    def redo_copy(self, new_cid: ClosureId) -> "Closure":
        """A fresh, identical closure under a new identity (crash redo).

        Only ready closures are ever redone (the steal-outstanding table
        holds ready closures by construction).
        """
        if not self.is_ready:
            raise ClosureError("redo_copy of a non-ready closure")
        clone = Closure.__new__(Closure)
        clone.cid = new_cid
        clone.thread_name = self.thread_name
        clone.args = list(self.args)
        clone.depth = self.depth
        clone._missing = 0
        return clone

    def __repr__(self) -> str:
        shown = ", ".join("_" if a is _EMPTY else repr(a) for a in self.args)
        return f"<Closure {self.thread_name}#{self.cid[0]}:{self.cid[1]}({shown})>"
