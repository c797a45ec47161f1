"""Full per-worker ``WorkerStats`` pinned for plain ``run_job`` runs.

A change to the per-task hot path (pop, execute, spawn/successor/send,
charge) must leave every simulated counter exactly where it was — the
working-set peak ``max_tasks_in_use`` (Table 2) included.  The expected
values live in ``pinned_worker_stats.json`` next to this file; rebuild
it only for a deliberate behaviour change, with::

    PYTHONPATH=src python tests/micro/test_pinned_stats.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

PINNED_FILE = Path(__file__).with_name("pinned_worker_stats.json")
SEEDS = range(5)
N_WORKERS = 4


def _apps():
    from repro.apps.fib import fib_job
    from repro.apps.knary import knary_job
    from repro.check import APPS

    shrink = APPS["shrink"]
    return {
        "fib16": (lambda: fib_job(16), None),
        "knary5_5_2": (lambda: knary_job(5, 5, 2), None),
        "shrink": (shrink.make, shrink.worker_config),
    }


def collect(app: str, seed: int) -> dict:
    """Result, makespan and every worker's stats of one run, as JSON data."""
    from repro.phish import run_job

    make, worker_config = _apps()[app]
    res = run_job(make(), n_workers=N_WORKERS, seed=seed,
                  worker_config=worker_config)
    return {
        "result": res.result,
        "makespan": res.makespan,
        "workers": [dataclasses.asdict(w) for w in res.stats.workers],
    }


def _key(app: str, seed: int) -> str:
    return f"{app}/{seed}"


CASES = [(app, seed) for app in ("fib16", "knary5_5_2", "shrink") for seed in SEEDS]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED_FILE.read_text())


@pytest.mark.parametrize("app,seed", CASES)
def test_worker_stats_unchanged(pinned, app, seed):
    # Through JSON so tuples and lists compare alike.
    got = json.loads(json.dumps(collect(app, seed)))
    assert got == pinned[_key(app, seed)]


if __name__ == "__main__":
    data = {_key(app, seed): collect(app, seed) for app, seed in CASES}
    PINNED_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} runs to {PINNED_FILE}")
