"""The benchmark's three workloads: what one op is, its inputs, its checks.

Each workload turns the workload seed into a stream of op inputs, calls
one public API per op, and afterwards reads the exact per-layer counts
that the op's public state leaves behind.  Calling the API (:meth:`call`)
is what the benchmark times; verifying the output and reading the counts
(:meth:`inspect`) happens after the clock stops.

The ``repro`` package is passed in as a namespace of freshly imported
modules, so every set-up in a run pays for its own import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

#: Exact per-op counts, in digest order.  Every workload reports all of
#: them; a layer the op never touches reads 0.
COUNTS = (
    "sim.events",
    "net.sent",
    "net.delivered",
    "net.dropped",
    "net.bytes",
    "micro.steal_requests",
    "micro.tasks_stolen",
    "micro.tasks_redone",
    "micro.tasks_migrated",
    "micro.grants_reclaimed",
    "tasks.executed",
    "macro.requests",
    "macro.grants",
    "macro.scanned",
    "check.violations",
    "trace.events",
)


@dataclass
class Outcome:
    """What one op produced, read after the op's clock stopped."""

    #: The op succeeded (see each workload's ``failure`` rule).
    ok: bool
    #: The program's output agrees with the oracle.  An op can fail and
    #: still be correct: a checked run that reports a violation has
    #: reported it correctly.
    correct: bool
    #: Simulated makespan (seconds); None when the op raised.
    makespan: Optional[float]
    counts: Dict[str, int] = field(default_factory=dict)
    #: Simulated outputs beyond the counts, hashed into the digest.
    outputs: List[Any] = field(default_factory=list)
    note: str = ""
    #: Ops of one kind share a makespan distribution (check: the app).
    kind: str = ""


def _net_counts(counts: Dict[str, int], network: Any) -> None:
    c = network.counters
    counts["net.sent"] = c.sent
    counts["net.delivered"] = c.delivered
    counts["net.dropped"] = c.dropped_loss + c.dropped_unroutable + c.dropped_partition
    counts["net.bytes"] = c.bytes_sent


def _worker_counts(counts: Dict[str, int], workers: List[Any]) -> None:
    stats = [w.stats for w in workers]
    counts["micro.steal_requests"] = sum(s.steal_requests_sent for s in stats)
    counts["micro.tasks_stolen"] = sum(s.tasks_stolen for s in stats)
    counts["micro.tasks_redone"] = sum(s.tasks_redone for s in stats)
    counts["micro.tasks_migrated"] = sum(s.tasks_migrated_in for s in stats)
    counts["micro.grants_reclaimed"] = sum(s.grants_reclaimed for s in stats)
    counts["tasks.executed"] = sum(s.tasks_executed for s in stats)


def _zero_counts() -> Dict[str, int]:
    return dict.fromkeys(COUNTS, 0)


class Workload:
    """Base class: a seeded input stream plus call/inspect."""

    name = ""
    #: Ops covered by the exact counts, the digest and the traced run.
    block = 0
    #: Ops every timed run completes, however slow the host.  Their
    #: simulated makespans give ``sim_makespan_s``, and their number
    #: fixes which percentile ``op_tail_ms`` reports.
    min_ops = 0
    #: Ops run once per set-up, from inputs outside the measured stream.
    warmup_ops = 1

    def __init__(self, repro: Any, seed: int) -> None:
        self.repro = repro
        self.seed = seed

    def inputs(self) -> Iterator[Any]:
        """The op inputs drawn from the workload seed, endless."""
        rng = random.Random(f"{self.name}:{self.seed}")
        i = 0
        while True:
            yield self.draw(rng, i)
            i += 1

    def warmup_inputs(self) -> List[Any]:
        rng = random.Random(f"{self.name}:warmup:{self.seed}")
        return [self.draw(rng, i) for i in range(self.warmup_ops)]

    def draw(self, rng: random.Random, index: int) -> Any:
        raise NotImplementedError

    def call(self, inp: Any) -> Any:
        raise NotImplementedError

    def inspect(self, inp: Any, raw: Any) -> Outcome:
        raise NotImplementedError


class FibWorkload(Workload):
    """``run_job(fib_job(18), n_workers=4, seed=s)``: the paper's
    dedicated-cluster run, observers off, no faults."""

    name = "fib"
    N = 18
    block = 6
    min_ops = 100

    def __init__(self, repro: Any, seed: int) -> None:
        super().__init__(repro, seed)
        self.expected = repro.fib.fib_serial(self.N)

    def draw(self, rng: random.Random, index: int) -> int:
        return rng.getrandbits(32)

    def call(self, seed: int) -> Any:
        return self.repro.phish.run_job(
            self.repro.fib.fib_job(self.N), n_workers=4, seed=seed)

    def inspect(self, seed: int, res: Any) -> Outcome:
        if isinstance(res, BaseException):
            return Outcome(False, False, None, _zero_counts(),
                           [type(res).__name__], f"seed {seed}: {res!r}")
        counts = _zero_counts()
        counts["sim.events"] = res.sim.events_processed
        _net_counts(counts, res.network)
        _worker_counts(counts, res.workers)
        correct = res.result == self.expected
        note = "" if correct else f"seed {seed}: result {res.result!r}"
        return Outcome(correct, correct, res.makespan, counts,
                       [res.result, res.makespan], note)


class CheckWorkload(Workload):
    """``run_checked(app, seed=s)``: one fault-free checked run per op,
    apps rotating fib -> knary -> shrink, seeds drawn from the whole
    32-bit space.

    Timed ops run without a perturbation: fuzzed crash, reclaim and
    partition schedules meet the protocol holes of ROADMAP item 1 at
    random, about one op in a thousand.  Those holes are exercised by
    :meth:`fuzz`, which runs the fuzz op on the pinned known-defect seeds
    on every run and in the self-test.
    """

    name = "check"
    ROTATION = ("fib", "knary", "shrink")
    block = 60
    #: A full (generation 2) collection lands in about one fib op in
    #: six and doubles it; p95 would sit on that step, p99 is past it.
    min_ops = 1000
    warmup_ops = len(ROTATION)

    def draw(self, rng: random.Random, index: int) -> Any:
        return (self.ROTATION[index % len(self.ROTATION)], rng.getrandbits(32))

    def call(self, inp: Any) -> Any:
        app, seed = inp
        spec = self.repro.check.APPS[app]
        return self.repro.check.run_checked(
            spec.make(), n_workers=4, seed=seed, expected=spec.expected,
            worker_config=spec.worker_config)

    def fuzz(self, inp: Any) -> Any:
        """``fuzz(app, seeds=[s], shrink=False)``: the seed's perturbed
        (``scenario="mixed"``) checked run, as ``repro check`` runs it."""
        app, seed = inp
        runs: List[Any] = []
        self.repro.check.fuzz(app, seeds=[seed], shrink=False,
                              progress=lambda _seed, run: runs.append(run))
        return runs[0]

    def inspect(self, inp: Any, run: Any) -> Outcome:
        app, seed = inp
        if isinstance(run, BaseException):
            # An exception is a failed op, not a wrong answer: the
            # escaped crash Interrupt lands here.
            cause = run.__cause__ or run
            return Outcome(False, True, None, _zero_counts(),
                           [app, seed, type(cause).__name__],
                           f"{app} seed {seed}: raised {type(cause).__name__}", app)
        counts = _zero_counts()
        counts["sim.events"] = run.sim.events_processed
        _net_counts(counts, run.network)
        _worker_counts(counts, run.workers)
        counts["check.violations"] = len(run.report.violations)
        counts["trace.events"] = len(run.trace)
        ok = run.ok and run.completed
        # A run the checker calls clean must have delivered the oracle's
        # answer; anything else is a wrong output, not a found defect.
        correct = not ok or run.result == self.repro.check.APPS[app].expected
        note = ""
        if not ok:
            first = run.report.violations[0].invariant if run.report.violations else "?"
            note = (f"{app} seed {seed}: "
                    f"{'unfinished' if not run.completed else 'violation'} ({first})")
        elif not correct:
            note = f"{app} seed {seed}: clean verdict but result {run.result!r}"
        return Outcome(ok, correct, run.makespan, counts,
                       [app, seed, ok, run.completed, run.result, run.makespan],
                       note, app)


class TrafficWorkload(Workload):
    """``run_traffic(TrafficConfig(policy="srp", arrival="bursty",
    owners="workday", seed=s))``: the macro level over JobQ RPC."""

    name = "traffic"
    N_JOBS = 300
    block = 6
    min_ops = 100

    def __init__(self, repro: Any, seed: int) -> None:
        super().__init__(repro, seed)
        # run_traffic builds its TrafficSystem through this module
        # global; recording each instance lets inspect() read the
        # simulator and network counters the report does not carry.
        traffic = repro.traffic
        real = traffic.TrafficSystem
        self.systems: List[Any] = []

        def recording(*args: Any, **kwargs: Any) -> Any:
            system = real(*args, **kwargs)
            self.systems.append(system)
            return system

        traffic.TrafficSystem = recording

    def draw(self, rng: random.Random, index: int) -> Any:
        return self.repro.traffic.TrafficConfig(
            policy="srp", arrival="bursty", owners="workday",
            n_jobs=self.N_JOBS, seed=rng.getrandbits(32))

    def call(self, cfg: Any) -> Any:
        return self.repro.traffic.run_traffic(cfg)

    def inspect(self, cfg: Any, rep: Any) -> Outcome:
        systems, self.systems = self.systems, []
        if isinstance(rep, BaseException):
            return Outcome(False, False, None, _zero_counts(),
                           [type(rep).__name__], f"seed {cfg.seed}: {rep!r}")
        system = systems[-1]
        counts = _zero_counts()
        counts["sim.events"] = system.sim.events_processed
        _net_counts(counts, system.network)
        counts["macro.requests"] = rep.requests
        counts["macro.grants"] = rep.grants
        counts["macro.scanned"] = rep.scanned
        ok = rep.n_completed == rep.n_jobs
        note = "" if ok else f"seed {cfg.seed}: {rep.n_completed}/{rep.n_jobs} jobs"
        return Outcome(ok, ok, rep.makespan_s, counts,
                       [rep.n_completed, rep.makespan_s, rep.latency_p50_s,
                        rep.latency_p95_s, rep.wait_p95_s],
                       note)


WORKLOADS = {w.name: w for w in (FibWorkload, CheckWorkload, TrafficWorkload)}
