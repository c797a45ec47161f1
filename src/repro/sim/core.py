"""Core of the discrete-event simulation kernel.

The design follows the process-interaction paradigm: simulation *processes*
are Python generators that ``yield`` :class:`Event` objects to wait on
them.  The :class:`Simulator` owns the clock and a priority queue of
triggered events; processing an event runs its callbacks, which resume the
processes waiting on it.

Determinism: events scheduled for the same time are processed in
(priority, insertion-order) order, so runs are exactly reproducible.

Schedule-space exploration: the insertion-order tie-break is only *one*
legal interleaving of same-time events.  Constructing the simulator with
``tiebreak_rng`` (a seeded ``random.Random``) replaces the insertion-order
key of NORMAL-priority events with a random one, yielding a different —
but still reproducible — interleaving per seed.  The schedule fuzzer in
:mod:`repro.check` uses this to search for interleaving bugs; URGENT
events keep strict insertion order because the kernel relies on it for
its own bookkeeping.

The event queue (this module is the hottest code in the repository —
every message, timeout, and task execution passes through it) is one
priority queue of ``(time, priority, seq, event)`` tuples (``(time,
priority, sub, seq, event)`` when a ``tiebreak_rng`` is installed)
running in one of three modes.  While events are only being scheduled
(``_MODE_LAZY``) it is an unsorted append-only list.  The first pop
sorts it once, descending, and switches to ``_MODE_DRAIN`` where each
pop is an O(1) ``list.pop()`` from the end.  A push while draining
heapifies the remainder and falls back to a classic binary heap
(``_MODE_HEAP``).  The modes are invisible: the property tests in
``tests/sim/test_queue_equivalence.py`` drive the kernel against a
plain-heapq oracle (see docs/performance.md, "The event queue").

Other hot-path machinery:

* :class:`Timeout` events start with a shared immutable empty-callbacks
  marker instead of a fresh list; :meth:`Event.subscribe` materialises a
  real list on first use.  ``processed`` remains ``callbacks is None``.
* :meth:`Simulator.call_soon` and the already-processed branch of
  :meth:`Event.subscribe` ride pooled slotted one-shot events
  (:class:`_SoonEvent`) — no per-call lambda, list, or garbage event.
* ``run()`` — in all of its forms (to exhaustion, to a horizon, to an
  awaited event) — and :meth:`Simulator.run_until` use a batched drain
  loop that writes the clock and the processed-events counter back only
  when user code can observe them, instead of dispatching
  ``peek()``/``step()`` per event.  The drain calls the monitor hook at
  exactly the event counts ``step()`` would.
* Run-ahead: inside the drain, a process about to wait on
  ``timeout(delay)`` may call :meth:`Simulator.try_advance` instead.
  When ``now + delay`` is strictly earlier than every queued event and
  within the drain's limit, that timeout would provably be the very
  next event processed, so the clock moves in place and the process
  continues without a kernel event (docs/performance.md, "Run-ahead").
"""

from __future__ import annotations

import sys
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, List, Optional

from repro.errors import SimulationError

#: Event priorities. URGENT events at a given time are processed before
#: NORMAL ones; insertion order breaks remaining ties.
URGENT = 0
NORMAL = 1

_PENDING = object()

#: Shared "no callbacks yet" marker for events created on the hot path.
#: Immutable and falsy: the kernel skips the callback loop, and
#: ``subscribe`` swaps in a real list the first time one is needed.
_NO_CALLBACKS: tuple = ()

#: Event-queue modes (see module docstring).
_MODE_LAZY = 0   # append-only; nothing popped yet
_MODE_DRAIN = 1  # sorted descending; pop from the end
_MODE_HEAP = 2   # classic heapq

_INF = float("inf")
_NEG_INF = -_INF

#: ``_mon_next`` while no monitor is installed: a count never reached.
_NO_MONITOR = sys.maxsize

#: Bound on the per-simulator :class:`_SoonEvent` free list, so a burst
#: of callbacks cannot pin memory forever.
_SOON_POOL_MAX = 64

_DEADLOCK_MSG = (
    "simulation ran out of events before the awaited event triggered "
    "(deadlock?)"
)


class Interrupt(Exception):
    """Delivered into a process by :meth:`Process.interrupt`.

    The macro-level scheduler uses this to model a workstation owner
    reclaiming their machine: the worker process is interrupted at its
    next yield point and must migrate its tasks before dying.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:
        return f"Interrupt(cause={self.cause!r})"


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *pending* until someone calls :meth:`succeed` or
    :meth:`fail` (which also enqueues it), *triggered* once it has a
    value, and *processed* after the simulator has run its callbacks.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callbacks to run when processed; ``None`` once processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set when a failure has been delivered to a waiter; prevents the
        #: kernel from escalating the failure to the whole run.
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True/False after triggering; None while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully and schedule its processing."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self, delay, priority)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        """Trigger the event with a failure; waiters get the exception thrown."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self, delay, priority)
        return self

    def subscribe(self, callback: Callable[["Event"], None]) -> None:
        """Run *callback(event)* when this event is processed.

        If the event was already processed, the callback is delivered on a
        fresh zero-delay event so that it still runs from the event loop
        (never synchronously from the subscriber's stack).
        """
        callbacks = self.callbacks
        if callbacks is None:
            self.sim.call_soon(callback, self)
        elif callbacks is _NO_CALLBACKS:
            self.callbacks = [callback]
        else:
            callbacks.append(callback)

    def unsubscribe(self, callback: Callable[["Event"], None]) -> bool:
        """Remove a previously-subscribed callback; True if it was present."""
        callbacks = self.callbacks
        if callbacks is None or callbacks is _NO_CALLBACKS:
            return False
        try:
            callbacks.remove(callback)
            return True
        except ValueError:
            return False

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.sim = sim
        self.callbacks = _NO_CALLBACKS
        self._value = value
        self._ok = True
        self.defused = False
        sim._enqueue(self, delay, NORMAL)


_NO_ARG = object()


def _run_soon(ev: "_SoonEvent") -> None:
    """Shared callback of every :class:`_SoonEvent`: invoke the stored
    function, then return the event to its simulator's pool (a reuse
    mid-callback reinitialises every field before the kernel looks at
    the event again, so recycling here is safe)."""
    fn = ev.fn
    arg = ev.arg
    ev.fn = ev.arg = None
    pool = ev.sim._soon_pool
    if len(pool) < _SOON_POOL_MAX:
        pool.append(ev)
    if arg is _NO_ARG:
        fn()
    else:
        fn(arg)


class _SoonEvent(Event):
    """Pooled one-shot carrier behind :meth:`Simulator.call_soon`.

    Never exposed outside the kernel: its ``callbacks`` is the shared
    :data:`_SOON_CBS` tuple (the kernel only iterates callbacks and
    replaces the attribute with None), so scheduling a callback
    allocates no list and no closure — and usually no event either,
    thanks to the per-simulator free list.
    """

    __slots__ = ("fn", "arg")


_SOON_CBS = (_run_soon,)


class _Flag:
    """Slotted done-marker for ``run(until=event)`` — replaces the old
    per-call ``[False]`` list plus closure."""

    __slots__ = ("fired",)

    def __init__(self) -> None:
        self.fired = False

    def __call__(self, _ev: Event) -> None:
        self.fired = True


class _Until:
    """Drain stop for :meth:`Simulator.run_until`: fires once the
    caller's predicate holds."""

    __slots__ = ("done",)

    def __init__(self, done: Callable[[], bool]) -> None:
        self.done = done

    @property
    def fired(self) -> bool:
        return self.done()


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event: it succeeds with the generator's
    return value, or fails with its uncaught exception, when the
    generator finishes.  Other processes can therefore ``yield proc`` to
    join it.
    """

    __slots__ = ("_gen", "_target", "_started", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: Optional[str] = None) -> None:
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise SimulationError(f"Process requires a generator, got {gen!r}")
        super().__init__(sim)
        self._gen: Optional[Generator] = gen
        self._target: Optional[Event] = None
        #: False until the generator has been resumed at least once.
        self._started = False
        self.name = name or getattr(gen, "__name__", "process")
        # Kick the generator off from the event loop, not synchronously.
        # The boot event is tracked as the current wait target so that an
        # interrupt landing before the first resume detaches it cleanly.
        boot = Event(sim)
        boot.callbacks.append(self._resume)  # type: ignore[union-attr]
        boot.succeed(None, priority=URGENT)
        self._target = boot

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._gen is not None

    def interrupt(self, cause: Any = None) -> bool:
        """Throw :class:`Interrupt` into the process at its next resume.

        Returns False (and does nothing) if the process already finished —
        a benign race when, e.g., a worker terminates naturally just as
        its owner reclaims the workstation.
        """
        if not self.is_alive:
            return False
        if self.sim._active is self:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever we were waiting on so we are not resumed twice.
        if self._target is not None:
            self._target.unsubscribe(self._resume)
            self._target = None
        kick = Event(self.sim)
        kick.callbacks.append(self._resume)  # type: ignore[union-attr]
        kick._ok = False
        kick._value = Interrupt(cause)
        kick.defused = True  # the interrupt is delivered, never escalated
        self.sim._enqueue(kick, 0.0, URGENT)
        return True

    # -- internal ---------------------------------------------------------

    def _resume(self, event: Event) -> None:
        gen = self._gen
        if gen is None:  # finished before a queued interrupt arrived
            event.defused = True
            return
        self._target = None
        self.sim._active = self
        try:
            if event._ok:
                self._started = True
                target = gen.send(event._value)
            else:
                event.defused = True
                if not self._started:
                    # The generator never started: throwing would raise at
                    # its definition line instead of delivering in-band.
                    # Treat the interrupt as a quiet cancellation.
                    self._gen = None
                    self.sim._active = None
                    self.succeed(None, priority=URGENT)
                    return
                target = gen.throw(event._value)
        except StopIteration as stop:
            self._gen = None
            self.succeed(stop.value, priority=URGENT)
            return
        except BaseException as exc:
            self._gen = None
            self.fail(exc, priority=URGENT)
            return
        finally:
            self.sim._active = None

        if not isinstance(target, Event):
            # Deliver the misuse as an error inside the generator so the
            # offending process gets a useful traceback.
            bad = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            )
            err = Event(self.sim)
            err.callbacks.append(self._resume)  # type: ignore[union-attr]
            err._ok = False
            err._value = bad
            err.defused = True
            self.sim._enqueue(err, 0.0, URGENT)
            return
        if target.sim is not self.sim:
            raise SimulationError("cannot wait on an event from another Simulator")
        self._target = target
        target.subscribe(self._resume)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """The event loop: a clock plus a priority queue of triggered events.

    Args:
        tiebreak_rng: optional seeded RNG perturbing same-time
            NORMAL-event order (schedule fuzzing); install it at
            construction time, before scheduling anything.
    """

    def __init__(self, tiebreak_rng: Optional[Any] = None) -> None:
        #: Current simulated time in seconds.
        self.now: float = 0.0
        self._heap: List = []
        self._mode = _MODE_LAZY
        self._seq = 0
        self._active: Optional[Process] = None
        #: Count of processed events (a cheap progress/perf metric).
        #: During ``run()`` the counter is updated in batches; it is exact
        #: whenever user code runs (callbacks, monitor) and after run().
        self.events_processed = 0
        #: Optional seeded RNG perturbing same-time NORMAL-event order
        #: (schedule fuzzing).  None keeps strict insertion order.
        #: Install it at construction time, before scheduling anything.
        self.tiebreak_rng = tiebreak_rng
        #: Optional hook ``monitor(sim)`` called every
        #: :attr:`monitor_interval` processed events — used by the
        #: invariant checker for online (mid-run) assertions.
        self.monitor: Optional[Callable[["Simulator"], None]] = None
        self.monitor_interval: int = 4096
        #: ``events_processed`` value at which the drain next calls the
        #: monitor (set when a drain starts).
        self._mon_next = _NO_MONITOR
        #: Free list of :class:`_SoonEvent` carriers (see call_soon).
        self._soon_pool: List[_SoonEvent] = []
        self._run_aheads = 0
        #: Run-ahead window (see try_advance): the running drain's limit
        #: while a callback that may run ahead executes, else -inf; and
        #: the drain's stop condition.
        self._ra_limit = _NEG_INF
        self._ra_stop: Any = None

    @property
    def run_aheads(self) -> int:
        """Timeouts charged by :meth:`try_advance` moving the clock in
        place (each is also counted in :attr:`events_processed`)."""
        return self._run_aheads

    # -- construction helpers ---------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after *delay* simulated seconds.

        This is the kernel's single hottest entry point (every poll,
        backoff, and cycle charge is a timeout), so the event
        construction and enqueue are inlined here rather than routed
        through ``Timeout.__init__``/:meth:`_enqueue`.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        ev = Timeout.__new__(Timeout)
        ev.sim = self
        ev.callbacks = _NO_CALLBACKS
        ev._value = value
        ev._ok = True
        ev.defused = False
        seq = self._seq = self._seq + 1
        rng = self.tiebreak_rng
        if rng is None:
            entry = (self.now + delay, NORMAL, seq, ev)
        else:
            entry = (self.now + delay, NORMAL, rng.random(), seq, ev)
        mode = self._mode
        heap = self._heap
        if mode == _MODE_HEAP:
            _heappush(heap, entry)
        elif mode == _MODE_LAZY:
            heap.append(entry)
        else:
            heap.append(entry)
            _heapify(heap)
            self._mode = _MODE_HEAP
        return ev

    def process(self, gen: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator; returns the Process event."""
        return Process(self, gen, name)

    def call_soon(self, fn: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run *fn* (or *fn(arg)*) from the event loop at the current time.

        Rides a pooled slotted one-shot event: no per-call lambda, list,
        or garbage event object (see :class:`_SoonEvent`).
        """
        pool = self._soon_pool
        if pool:
            ev = pool.pop()
        else:
            ev = _SoonEvent.__new__(_SoonEvent)
            ev.sim = self
        ev.callbacks = _SOON_CBS
        ev._value = None
        ev._ok = True
        ev.defused = False
        ev.fn = fn
        ev.arg = arg
        self._enqueue(ev, 0.0, URGENT)

    def try_advance(self, delay: float) -> bool:
        """Charge a wait of *delay* seconds without a kernel event, if exact.

        A process about to ``yield self.timeout(delay)`` may call this
        first; on True the clock already reads ``now + delay`` and the
        process simply continues, on False it yields the timeout as
        before.  The answer is True only where that timeout would
        provably be the next event processed: inside a ``run()``/
        :meth:`run_until` drain, from the only (or last) callback of the
        event being processed, with ``now + delay`` within the drain's
        limit and strictly earlier than every queued event, no drain
        stop condition holding, and no monitor call due at or after the
        skipped event.  The skipped event is counted in
        :attr:`events_processed` and, under ``tiebreak_rng``, uses up the
        sequence number and shuffle draw the timeout would have taken, so
        every later event keeps its exact place in the total order.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        t = self.now + delay
        if t > self._ra_limit or self.events_processed + 1 >= self._mon_next:
            return False
        heap = self._heap
        # Inside a drain the queue is never lazy: it is sorted (head at
        # the end) or a heap (head at the front).
        if heap and (heap[0][0] if self._mode == _MODE_HEAP
                     else heap[-1][0]) <= t:
            return False
        stop = self._ra_stop
        if stop is not None and stop.fired:
            return False
        rng = self.tiebreak_rng
        if rng is not None:
            self._seq += 1
            rng.random()
        self.now = t
        self.events_processed += 1
        self._run_aheads += 1
        return True

    # -- scheduling & execution -------------------------------------------

    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        seq = self._seq = self._seq + 1
        rng = self.tiebreak_rng
        if rng is not None and priority == NORMAL:
            # Schedule fuzzing: same-time NORMAL events are processed in
            # a seed-determined shuffle instead of insertion order.
            entry = (self.now + delay, priority, rng.random(), seq, event)
        else:
            entry = (self.now + delay, priority, seq, event)
        mode = self._mode
        if mode == _MODE_HEAP:
            _heappush(self._heap, entry)
        elif mode == _MODE_LAZY:
            self._heap.append(entry)
        else:
            # Push while draining: re-establish the heap invariant over
            # the (descending-sorted) remainder and fall back to heapq.
            self._heap.append(entry)
            _heapify(self._heap)
            self._mode = _MODE_HEAP

    def _tail_token(self) -> Any:
        """Opaque token for :meth:`_at_tail` (delivery coalescing), taken
        right after enqueueing the event to coalesce onto."""
        return self._seq

    def _at_tail(self, token: Any) -> bool:
        """True iff the event enqueued just before *token* was taken is
        still the queue tail among entries sharing its (time, NORMAL)
        key — i.e. a new enqueue at that key would land directly after
        it, so batching the two preserves the exact total order.  Proven
        conservatively: no event of any kind has been enqueued since.
        """
        return self.tiebreak_rng is None and self._seq == token

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        heap = self._heap
        if not heap:
            return _INF
        mode = self._mode
        if mode == _MODE_HEAP:
            return heap[0][0]
        if mode == _MODE_LAZY:
            heap.sort(reverse=True)
            self._mode = _MODE_DRAIN
        return heap[-1][0]

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        heap = self._heap
        if not heap:
            raise SimulationError("step() on an empty schedule")
        mode = self._mode
        if mode == _MODE_HEAP:
            entry = _heappop(heap)
        else:
            if mode == _MODE_LAZY:
                heap.sort(reverse=True)
                self._mode = _MODE_DRAIN
            entry = heap.pop()
        time = entry[0]
        if time < self.now:
            raise SimulationError("time went backwards (kernel bug)")
        self.now = time
        event = entry[-1]
        callbacks = event.callbacks
        event.callbacks = None
        self.events_processed += 1
        if callbacks:
            for callback in callbacks:
                callback(event)
        if event._ok is False and not event.defused:
            # A failure nobody waited on: crash the run loudly rather than
            # silently losing the error.
            raise event._value
        if self.monitor is not None and self.events_processed % self.monitor_interval == 0:
            self.monitor(self)

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        Args:
            until: ``None`` runs until no events remain; a number runs
                until the clock would pass that time (the clock is then
                set to it); an :class:`Event` runs until that event has
                been processed and returns its value (re-raising its
                failure, if any).

        All three forms take the batched drain loop: identical event
        order, semantics and monitor calls to ``step()`` in a loop, with
        the per-event clock/counter writes deferred to the points where
        user code can observe them.
        """
        if until is None:
            self._drain(_INF, None)
            return None
        if isinstance(until, Event):
            target = until
            if not target.processed:
                flag = _Flag()
                target.subscribe(flag)
                self._drain(_INF, flag)
                if not flag.fired:
                    raise SimulationError(_DEADLOCK_MSG)
            if target._ok is False:
                target.defused = True
                raise target._value
            return target._value
        horizon = float(until)
        if horizon < self.now:
            raise SimulationError(f"run(until={horizon}) is in the past (now={self.now})")
        self._drain(horizon, None)
        self.now = horizon
        return None

    def run_until(self, done: Callable[[], bool], horizon: float = _INF) -> bool:
        """Process events until ``done()`` holds or none remain at or
        before *horizon*; returns ``done()``.

        ``done`` is checked before the first event and after every event
        whose callbacks ran (the only code that can change it), exactly
        like ``while not done() and peek() <= horizon: step()``.  Unlike
        ``run(until=horizon)`` the clock stays at the last processed
        event.
        """
        if not done():
            self._drain(float(horizon), _Until(done))
        return done()

    def _arm_monitor(self) -> int:
        """Set :attr:`_mon_next` for a drain that is starting; returns
        the number of events until the monitor is due."""
        if self.monitor is None:
            self._mon_next = _NO_MONITOR
        else:
            interval = self.monitor_interval
            self._mon_next = (self.events_processed // interval + 1) * interval
        return self._mon_next - self.events_processed

    def _fire_monitor(self) -> int:
        """Call the monitor (the counter is on a multiple of the
        interval); returns the number of events until the next call."""
        self._mon_next += self.monitor_interval
        self.monitor(self)
        return self.monitor_interval

    def _run_callbacks(self, cbs: Any, ev: Event, limit: float) -> None:
        """Run the callbacks of an event that has several.  Only the last
        may run ahead: an earlier one moving the clock would make the
        rest run at the wrong time."""
        self._ra_limit = _NEG_INF
        try:
            for cb in cbs[:-1]:
                cb(ev)
        finally:
            self._ra_limit = limit
        cbs[-1](ev)

    def _drain(self, limit: float, stop: Any) -> None:
        """Batched event loop: process events with time <= *limit* until
        the queue empties or *stop* fires (``stop.fired`` is checked after
        callbacks, the only place it can flip).  Identical event order,
        semantics and monitor calls to ``step()`` in a loop: the clock and
        the processed-events counter are written back only when user code
        can observe them (callbacks, the monitor, exceptions, exit), and
        the pop mode is kept in a local that is refreshed whenever
        callbacks ran (only user code can flip it), as is the clock,
        which :meth:`try_advance` may have moved.
        """
        heap = self._heap
        mode = self._mode
        now = self.now
        mon_left = self._arm_monitor()
        n = 0
        self._ra_limit = limit
        self._ra_stop = stop
        try:
            while heap:
                if mode == _MODE_HEAP:
                    if heap[0][0] > limit:
                        break
                    entry = _heappop(heap)
                elif mode == _MODE_DRAIN:
                    if heap[-1][0] > limit:
                        break
                    entry = heap.pop()
                else:
                    heap.sort(reverse=True)
                    mode = self._mode = _MODE_DRAIN
                    continue
                now = entry[0]
                event = entry[-1]
                n += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    self.now = now
                    self.events_processed += n
                    n = 0
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        self._run_callbacks(callbacks, event, limit)
                    now = self.now
                    if event._ok is False and not event.defused:
                        raise event._value
                    mon_left = self._mon_next - self.events_processed
                    if not mon_left:
                        mon_left = self._fire_monitor()
                    if stop is not None and stop.fired:
                        return
                    mode = self._mode
                elif event._ok is False and not event.defused:
                    raise event._value
                elif n == mon_left:
                    self.now = now
                    self.events_processed += n
                    n = 0
                    mon_left = self._fire_monitor()
                    mode = self._mode
        finally:
            self.now = now
            self.events_processed += n
            self._ra_limit = _NEG_INF
            self._ra_stop = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} now={self.now:.6f} "
                f"queued={len(self._heap)}>")
