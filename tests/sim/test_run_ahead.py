"""Run-ahead: ``Simulator.try_advance`` must be unobservable.

A process that would wait on ``timeout(delay)`` may instead ask the
kernel to move the clock in place.  The kernel agrees only when that
timeout would provably be the next event processed, so every
observable — event order, clock readings, ``events_processed``, monitor
calls, whole-cluster traces — must be exactly what yielding the timeout
gives.  The tests compare runs with ``try_advance`` patched off (always
refusing, which is plain stepping) against runs with it on.
"""

import dataclasses
import random

import pytest

from repro.apps.fib import fib_job
from repro.check import APPS, Perturbation, run_checked
from repro.phish import run_job
from repro.sim.core import URGENT, Event, Simulator
from repro.sim import core


def charge(sim, delay):
    """The worker's charging idiom: run ahead, or wait on the timeout."""
    if not sim.try_advance(delay):
        yield sim.timeout(delay)


def _never(sim, delay):
    """``try_advance`` patched off: always refuse."""
    return False


@pytest.mark.parametrize("priority", ["normal", "urgent"])
def test_tied_event_blocks_run_ahead(priority):
    sim = Simulator()
    answers = []

    def blocker():
        ev = Event(sim)
        if priority == "urgent":
            ev.succeed(delay=1.0, priority=URGENT)
        else:
            ev.succeed(delay=1.0)
        yield ev

    def runner():
        answers.append(sim.try_advance(1.0))   # tie at t=1.0: refused
        yield sim.timeout(0.0)
        answers.append(sim.try_advance(0.5))   # strictly earlier: advances
        answers.append(sim.now)

    sim.process(blocker())
    sim.process(runner())
    sim.run()
    assert answers == [False, True, 0.5]
    assert sim.run_aheads == 1


def test_zero_delay_is_blocked_by_same_time_events():
    sim = Simulator()
    answers = []

    def proc(i):
        answers.append((i, sim.try_advance(0.0)))
        yield sim.timeout(0.0)

    for i in range(2):
        sim.process(proc(i))
    sim.run()
    # Process 0 still has process 1's boot event queued at t=0.
    assert answers[0] == (0, False)


def test_run_until_horizon_never_advances_past_it(monkeypatch):
    seen = {}
    for how in ("off", "on"):
        with monkeypatch.context() as m:
            if how == "off":
                m.setattr(core.Simulator, "try_advance", _never)
            sim = Simulator()
            clock = []

            def proc():
                while True:
                    yield from charge(sim, 0.3)
                    clock.append(sim.now)

            sim.process(proc())
            sim.run(until=1.0)
            assert sim.now == 1.0
            assert max(clock) <= 1.0
            seen[how] = (clock, sim.events_processed)
            assert sim.run_aheads == (len(clock) if how == "on" else 0)
    assert seen["off"] == seen["on"]


def test_step_never_runs_ahead():
    sim = Simulator()
    answers = []

    def proc():
        for _ in range(3):
            answers.append(sim.try_advance(0.1))
            yield sim.timeout(0.1)

    sim.process(proc())
    while sim.peek() != float("inf"):
        sim.step()
    assert answers == [False, False, False]
    assert sim.run_aheads == 0
    assert sim.now == pytest.approx(0.3)


def test_run_ahead_outside_the_drain_is_refused():
    sim = Simulator()
    assert not sim.try_advance(1.0)
    assert sim.now == 0.0


def test_negative_delay_raises():
    with pytest.raises(core.SimulationError):
        Simulator().try_advance(-1.0)


def test_only_the_last_callback_of_an_event_may_run_ahead():
    # Every process stays alive past t=1.5: a process exit is an event.
    sim = Simulator()
    ev = Event(sim)
    answers = []

    def waiter(tag):
        yield ev
        answers.append((tag, sim.try_advance(1.0), sim.now))
        yield sim.timeout(10.0)

    sim.process(waiter("first"))
    sim.process(waiter("last"))

    def trigger():
        yield sim.timeout(0.5)
        ev.succeed()
        yield sim.timeout(10.0)

    sim.process(trigger())
    sim.run()
    assert answers == [("first", False, 0.5), ("last", True, 1.5)]


def test_stop_condition_blocks_run_ahead():
    """Once a drain's stop condition holds, the clock must stay where
    the stepping loop would have stopped it."""
    sim = Simulator()
    done = []
    answers = []

    def proc():
        yield sim.timeout(1.0)
        done.append(True)
        answers.append(sim.try_advance(1.0))

    sim.process(proc())
    assert sim.run_until(lambda: bool(done))
    assert answers == [False]
    assert sim.now == 1.0


@pytest.mark.parametrize("n_procs", [1, 2])
@pytest.mark.parametrize("mode", ["drain", "heap"])
def test_stop_right_after_a_run_ahead_keeps_the_advanced_clock(mode, n_procs):
    """The condition turns true in the callback that ran ahead (from a
    lone wake-up, or the last of two same-time ones): the drain stops
    at the advanced clock, and a later run resumes from there.

    Both places run-ahead reads the queue head from are covered.  In
    "drain" every wait before the run-ahead is scheduled up front, so
    the queue is still the sorted list (head at the end); in "heap" the
    waits are scheduled from inside the run, which turns the queue into
    a binary heap (head at the front)."""
    sim = Simulator()
    done = []
    clock = []
    modes = []
    early = {}
    if mode == "drain":
        early = {(i, "wake"): sim.timeout(1.0) for i in range(n_procs)}
        early.update(((i, "rest"), sim.timeout(3.0))
                     for i in range(n_procs - 1))

    def proc(i):
        yield early.get((i, "wake")) or sim.timeout(1.0)
        if i == n_procs - 1:
            modes.append(sim._mode)
            yield from charge(sim, 0.5)
            done.append(True)
        yield early.get((i, "rest")) or sim.timeout(2.0)
        clock.append((i, sim.now))

    for i in range(n_procs):
        sim.process(proc(i))
    assert sim.run_until(lambda: bool(done))
    assert sim.now == 1.5
    assert not sim.run_until(lambda: False, horizon=2.0)  # nothing due yet
    assert sim.now == 1.5
    assert modes == [core._MODE_HEAP if mode == "heap" else core._MODE_DRAIN]
    sim.run()
    assert clock == ([(0, 3.0), (1, 3.5)] if n_procs == 2 else [(0, 3.5)])
    assert sim.run_aheads == 1


def _ticking_world(sim, seed):
    """Processes charging random delays, some on a quantized grid so
    ties and same-time buckets are frequent."""
    rng = random.Random(seed)

    def worker(i):
        for _ in range(60):
            if rng.random() < 0.5:
                yield from charge(sim, rng.choice((0.001, 0.002, 0.004)))
            else:
                yield from charge(sim, rng.random() * 0.003)

    for i in range(4):
        sim.process(worker(i))


@pytest.mark.parametrize("seed", range(5))
def test_monitor_fires_at_identical_event_counts(seed, monkeypatch):
    """Stepping, and the drain with run-ahead off and on, all call the
    monitor after the same events."""
    def observe(how):
        with monkeypatch.context() as m:
            if how == "off":
                m.setattr(core.Simulator, "try_advance", _never)
            sim = Simulator()
            calls = []
            sim.monitor = lambda s: calls.append((s.events_processed, s.now))
            sim.monitor_interval = 7
            _ticking_world(sim, seed)
            if how == "step":
                while sim.peek() != float("inf"):
                    sim.step()
            else:
                sim.run()
            return (calls, sim.events_processed, sim.now), sim.run_aheads

    stepped, _ = observe("step")
    assert stepped[0] and all(n % 7 == 0 for n, _ in stepped[0])
    assert observe("off") == (stepped, 0)
    on, aheads = observe("on")
    assert on == stepped and aheads > 0


# -- whole-cluster byte identity ---------------------------------------------

#: Pinned regression seeds (tests/check/test_regressions.py) and the
#: known liveness-hole seed, which runs to the 60 s horizon.
PINNED = [("shrink", 19331, 4), ("knary", 835, 4), ("shrink", 36291, 4),
          ("knary", 13307, 2), ("fib", 40990574, 4)]
FUZZED = [(app, seed, 4) for app in ("fib", "knary", "shrink")
          for seed in range(30)]


def _checked_fingerprint(app, seed, n_workers, scenario):
    spec = APPS[app]
    run = run_checked(
        spec.make(),
        n_workers=n_workers,
        seed=seed,
        perturbation=Perturbation.generate(seed, n_workers, scenario=scenario),
        expected=spec.expected,
        worker_config=spec.worker_config,
    )
    stats = [dataclasses.asdict(w.stats) for w in run.workers]
    return (run.trace.dump(), run.sim.events_processed, repr(stats),
            run.completed, run.result), run.sim.run_aheads


@pytest.mark.parametrize("app,seed,n_workers", PINNED + FUZZED)
def test_checked_runs_are_byte_identical(app, seed, n_workers, monkeypatch):
    scenario = "partition" if seed % 3 == 0 else "mixed"
    with monkeypatch.context() as m:
        m.setattr(core.Simulator, "try_advance", _never)
        off, off_aheads = _checked_fingerprint(app, seed, n_workers, scenario)
    on, _ = _checked_fingerprint(app, seed, n_workers, scenario)
    assert off_aheads == 0
    assert on == off


def test_fuzzed_checked_runs_exercise_run_ahead():
    """The byte-identity sweep above is only evidence if the fast path
    actually fires under tiebreak shuffles and faults."""
    total = 0
    for app in ("fib", "knary"):
        for seed in range(3):
            _, aheads = _checked_fingerprint(app, seed, 4, "mixed")
            total += aheads
    assert total > 1000


def test_fib_task_charges_run_ahead_whenever_exact(monkeypatch):
    """fib(16) on 4 workers, the dedicated-cluster run.  A task charge
    is eligible when its completion would be strictly earlier than every
    queued event (``peek()``, which has no side effects); then it must
    run ahead.  Most charges are eligible: the ineligible ones are the
    crossings of two busy workers' task timelines.  A change that
    silently disables the fast path fails here instead of only getting
    slower."""
    eligible = []
    real = core.Simulator.try_advance

    def counting(sim, delay):
        eligible.append(sim.peek() > sim.now + delay)
        return real(sim, delay)

    monkeypatch.setattr(core.Simulator, "try_advance", counting)
    res = run_job(fib_job(16), n_workers=4, seed=0)
    tasks = res.stats.tasks_executed
    assert len(eligible) == tasks
    assert res.sim.run_aheads >= 0.9 * sum(eligible)
    assert res.sim.run_aheads >= 0.6 * tasks, (res.sim.run_aheads, tasks)
