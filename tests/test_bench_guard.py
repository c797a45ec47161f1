"""Perf-regression guard against the recorded benchmark baseline.

``BENCH_kernel.json`` (repo root, written by ``python -m repro.cli
bench``) locks in the kernel's event throughput on the machine that
recorded it.  This test re-measures the same workload and fails on a
>30% regression — wide enough to absorb run-to-run noise of a
best-of-N estimator, tight enough to catch a real slowdown in the
event-queue hot path.

The comparison is only meaningful on the machine that recorded the
baseline, so the test is marked ``bench_guard``: it runs in the default
local suite but CI deselects it (``-m "... and not bench_guard"``), and
it skips itself wherever the baseline file is absent.
"""

import json
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench_guard

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE = REPO_ROOT / "BENCH_kernel.json"

#: Re-measured throughput must stay above this fraction of the record.
ALLOWED_FRACTION = 0.7

#: Below-floor measurements are retried this many times before failing.
RETRIES = 3

#: Seconds to idle before a retry, letting a throttled CPU quota refill.
COOLDOWN_S = 2.0


def _recorded_rate(section: str, key: str) -> float:
    """The baseline rate for one section, or skip the test."""
    if not BASELINE.exists():
        pytest.skip("no BENCH_kernel.json baseline recorded on this machine")
    try:
        recorded = json.loads(BASELINE.read_text())
    except ValueError:
        pytest.skip("BENCH_kernel.json is unreadable")
    rate = (recorded.get(section) or {}).get(key)
    if not rate:
        pytest.skip(f"baseline has no {section}.{key} entry")
    return rate


def _measure_above_floor(measure, floor: float) -> float:
    """Best rate over up to RETRIES attempts, stopping once above *floor*.

    Contention noise is one-sided — background load and cgroup
    throttling only ever make the workload look *slower* — so the max
    over retries converges on the machine's true capability.  The
    cool-down between attempts lets a depleted CPU quota refill after a
    long test session has been running flat out.
    """
    best = measure()
    for _ in range(RETRIES):
        if best >= floor:
            break
        time.sleep(COOLDOWN_S)
        best = max(best, measure())
    return best


def test_kernel_throughput_has_not_regressed():
    recorded_rate = _recorded_rate("kernel", "events_per_s")

    from repro.bench import bench_kernel

    floor = ALLOWED_FRACTION * recorded_rate
    current = _measure_above_floor(
        lambda: bench_kernel(repeats=5)["events_per_s"], floor)
    assert current >= floor, (
        f"kernel throughput regressed: {current:,.0f} ev/s "
        f"now vs {recorded_rate:,.0f} ev/s recorded "
        f"(floor {ALLOWED_FRACTION:.0%}); if the slowdown is intentional, "
        f"re-record with `python -m repro.cli bench`"
    )


@pytest.mark.parametrize("app", ["fib", "knary"])
def test_macro_task_throughput_has_not_regressed(app):
    """Guard the end-to-end macro path (simulated cluster tasks/s) the
    same way: it is the number every fan-out consumer of this harness
    pays per run, so a regression here shrinks the fuzz/sweep budget
    even when the raw kernel is fine."""
    recorded_rate = _recorded_rate(app, "tasks_per_s")

    from repro.bench import bench_fib, bench_knary

    bench = {"fib": bench_fib, "knary": bench_knary}[app]
    floor = ALLOWED_FRACTION * recorded_rate
    current = _measure_above_floor(
        lambda: bench(repeats=3)["tasks_per_s"], floor)
    assert current >= floor, (
        f"{app} macro throughput regressed: {current:,.0f} "
        f"tasks/s now vs {recorded_rate:,.0f} tasks/s recorded "
        f"(floor {ALLOWED_FRACTION:.0%}); if the slowdown is intentional, "
        f"re-record with `python -m repro.cli bench`"
    )
