"""A direct serial executor for thread programs.

Runs any :class:`~repro.tasks.program.JobProgram` to completion on a
plain Python stack — no simulator, no network, no stealing — while
charging the same cost model a 1-worker parallel execution would.  Two
uses:

* a *correctness oracle*: the distributed execution of a program must
  produce exactly this result, whatever got stolen or migrated where;
* the measurement behind "single-processor execution time of the
  parallel code" whenever a test wants it without a full simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.cluster.platform import SPARCSTATION_1, PlatformProfile
from repro.errors import SchedulerError
from repro.tasks.closure import CLEARINGHOUSE_TARGET, Closure, ClosureId, Continuation
from repro.tasks.program import Frame, JobProgram


@dataclass
class SerialExecution:
    """Outcome of a serial reference execution."""

    result: Any
    tasks_executed: int
    total_cycles: float
    synchronizations: int
    max_tasks_in_use: int

    def seconds(self, profile: PlatformProfile) -> float:
        """Simulated 1-processor runtime under *profile*."""
        return profile.seconds(self.total_cycles)


class _SerialOps:
    """SchedulerOps over a LIFO stack (the 1-worker schedule)."""

    def __init__(self, job: JobProgram, profile: PlatformProfile) -> None:
        self.job = job
        self.profile = profile
        self.stack: List[Closure] = []
        self.suspended: Dict[ClosureId, Closure] = {}
        self._seq = 0
        self.result: Any = _NO_RESULT
        self.tasks = 0
        self.cycles = 0.0
        self.syncs = 0
        self.peak = 0
        self.executing = 0

    def new_cid(self) -> ClosureId:
        self._seq += 1
        return ("serial", self._seq)

    def enqueue_ready(self, closure: Closure) -> None:
        self.stack.append(closure)
        self._peak()

    def register_suspended(self, closure: Closure) -> None:
        self.suspended[closure.cid] = closure
        self._peak()

    def deliver(self, continuation: Continuation, value: Any) -> None:
        self.syncs += 1
        if continuation.target == CLEARINGHOUSE_TARGET:
            if self.result is not _NO_RESULT:
                raise SchedulerError("job delivered its result twice")
            self.result = value
            return
        closure = self.suspended.get(continuation.target)
        if closure is None:
            raise SchedulerError(
                f"send to unknown closure {continuation.target} (serial execution "
                "has no crashes, so this is a program bug)"
            )
        if closure.fill(continuation.slot, value):
            del self.suspended[continuation.target]
            self.stack.append(closure)
        self._peak()

    def _peak(self) -> None:
        n = len(self.stack) + len(self.suspended) + self.executing
        if n > self.peak:
            self.peak = n

    def run(self) -> None:
        root_args = [Continuation(CLEARINGHOUSE_TARGET, 0), *self.job.root_args]
        self.enqueue_ready(Closure(self.new_cid(), self.job.root.name, root_args))
        frame = Frame(self, self.profile)
        while self.stack:
            closure = self.stack.pop()
            self.executing = 1
            self._peak()
            frame.closure = closure
            frame.cycles = frame.base_cycles
            ref = self.job.program.resolve(closure.thread_name)
            ref.fn(frame, *closure.call_args())
            self.tasks += 1
            self.cycles += frame.cycles
            self.executing = 0
        if self.suspended:
            raise SchedulerError(
                f"{len(self.suspended)} closures never received their arguments "
                "(the program deadlocks)"
            )


_NO_RESULT = object()


def execute_serially(
    job: JobProgram, profile: PlatformProfile = SPARCSTATION_1
) -> SerialExecution:
    """Run *job* to completion on one simulated processor, directly."""
    ops = _SerialOps(job, profile)
    ops.run()
    if ops.result is _NO_RESULT:
        raise SchedulerError("job finished without delivering a result")
    return SerialExecution(
        result=ops.result,
        tasks_executed=ops.tasks,
        total_cycles=ops.cycles,
        synchronizations=ops.syncs,
        max_tasks_in_use=ops.peak,
    )
