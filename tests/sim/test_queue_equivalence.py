"""The kernel's order contract: the event queue vs a plain-heapq oracle.

The three-mode queue (lazy list, sorted drain, binary heap) is only
allowed because it is unobservable: every push/pop sequence must come
out in exactly the (time, priority, seq) total order a plain ``heapq``
gives — including the ``tiebreak_rng`` sub-key shape, where each NORMAL
enqueue draws one ``rng.random()`` in enqueue order.  These tests drive
random operation scripts (quantized + arbitrary delays, URGENT/NORMAL
mixes, pops interleaved with pushes, nested pushes from inside
callbacks) through the kernel, by ``step()`` and by ``run()``'s batched
drain, and through an independent plain-``heapq`` oracle, then assert
the pop orders are identical (see docs/performance.md, "The event
queue").
"""

import heapq
import random

import pytest

from repro.sim.core import (
    _MODE_DRAIN, _MODE_HEAP, NORMAL, URGENT, Event, Simulator,
)

#: The steal-backoff-style quantized delay set: lots of exact-time
#: collisions, so the tie-break keys decide much of the order.
QUANTIZED = (0.0, 0.001, 0.002, 0.004, 0.008)


class OracleQueue:
    """Plain-heapq reimplementation of the reference entry construction:
    ``(time, priority, seq, label)``, with the rng sub-key spliced in
    before ``seq`` for NORMAL entries exactly as ``Simulator._enqueue``
    does."""

    def __init__(self, rng=None):
        self.now = 0.0
        self.rng = rng
        self._heap = []
        self._seq = 0

    def push(self, delay, priority, label):
        self._seq += 1
        if self.rng is not None and priority == NORMAL:
            entry = (self.now + delay, priority, self.rng.random(), self._seq, label)
        else:
            entry = (self.now + delay, priority, self._seq, label)
        heapq.heappush(self._heap, entry)

    def pop(self):
        entry = heapq.heappop(self._heap)
        self.now = entry[0]
        return (self.now, entry[-1])

    def __len__(self):
        return len(self._heap)


class SimAdapter:
    """Drives a real :class:`Simulator` through the same script shape.

    Every pushed event carries an integer label; processing appends
    ``(now, label)`` to ``order``.  Nested pushes (from inside the
    event's callback) are triggered by the shared script, keeping the
    rng draw sequence aligned between kernel and oracle.
    """

    def __init__(self, rng=None):
        self.sim = Simulator(tiebreak_rng=rng)
        self.order = []
        self._nested = {}

    def push(self, delay, priority, label, nested=()):
        if nested:
            self._nested[label] = nested
        if priority == NORMAL:
            ev = self.sim.timeout(delay)
        else:
            ev = Event(self.sim)
            ev._ok = True
            ev._value = None
            self.sim._enqueue(ev, delay, URGENT)
        ev.subscribe(lambda _ev, label=label: self._fire(label))

    def _fire(self, label):
        self.order.append((self.sim.now, label))
        for delay, priority, sub_label in self._nested.pop(label, ()):
            self.push(delay, priority, sub_label)

    def pop(self):
        self.sim.step()

    def drain(self, use_run):
        if use_run:
            self.sim.run()
        else:
            while self.sim.peek() != float("inf"):
                self.sim.step()


def _make_script(seed, n_ops=120):
    """A reproducible script of (op, args) tuples; roughly 70% NORMAL
    pushes, 15% URGENT pushes, 15% pop bursts, with ~20% of pushed
    events carrying nested same-tick/future pushes."""
    rng = random.Random(seed)
    script = []
    label = [0]

    def delay():
        if rng.random() < 0.7:
            return rng.choice(QUANTIZED)
        return rng.uniform(0.0, 0.01)

    def fresh_push():
        label[0] += 1
        this = label[0]
        priority = NORMAL if rng.random() < 0.8 else URGENT
        nested = []
        if rng.random() < 0.2:
            for _ in range(rng.randint(1, 3)):
                label[0] += 1
                nested.append(
                    (delay(), NORMAL if rng.random() < 0.7 else URGENT, label[0])
                )
        return (delay(), priority, this, tuple(nested))

    live = 0
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.85 or live == 0:
            script.append(("push", fresh_push()))
            live += 1
        else:
            k = rng.randint(1, min(4, live))
            script.append(("pop", k))
            live -= k  # nested pushes may keep the queue fuller; fine
            live = max(live, 0)
    return script


def _run_script(seed, driver, rng_seed, use_run_drain):
    rng = random.Random(rng_seed) if rng_seed is not None else None
    if driver == "oracle":
        oracle = OracleQueue(rng)
        nested_map = {}
        order = []
        for op, arg in _make_script(seed):
            if op == "push":
                d, p, lab, nested = arg
                nested_map[lab] = nested
                oracle.push(d, p, lab)
            else:
                for _ in range(arg):
                    if not len(oracle):
                        break
                    now, lab = oracle.pop()
                    order.append((now, lab))
                    for d, p, sub in nested_map.pop(lab, ()):
                        oracle.push(d, p, sub)
        while len(oracle):
            now, lab = oracle.pop()
            order.append((now, lab))
            for d, p, sub in nested_map.pop(lab, ()):
                oracle.push(d, p, sub)
        return order
    adapter = SimAdapter(rng)
    for op, arg in _make_script(seed):
        if op == "push":
            d, p, lab, nested = arg
            adapter.push(d, p, lab, nested)
        else:
            for _ in range(arg):
                if adapter.sim.peek() == float("inf"):
                    break
                adapter.pop()
    adapter.drain(use_run_drain)
    return adapter.order


@pytest.mark.parametrize("rng_seed", [None, 1, 2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_backends_match_oracle_stepped(seed, rng_seed):
    """step()-driven: the kernel and the oracle pop identically."""
    oracle = _run_script(seed, "oracle", rng_seed, use_run_drain=False)
    kernel = _run_script(seed, "kernel", rng_seed, use_run_drain=False)
    assert kernel == oracle
    assert len(oracle) > 50  # the script actually exercised something


@pytest.mark.parametrize("rng_seed", [None, 7])
@pytest.mark.parametrize("seed", range(4))
def test_backends_match_oracle_run_drain(seed, rng_seed):
    """run()-driven (the batched fast paths) matches the same oracle."""
    oracle = _run_script(seed, "oracle", rng_seed, use_run_drain=False)
    kernel = _run_script(seed, "kernel", rng_seed, use_run_drain=True)
    assert kernel == oracle


def test_urgent_keeps_insertion_order_under_rng():
    """URGENT events never get a shuffle sub-key: even with a
    tiebreak_rng, same-time URGENT events pop in insertion order."""
    sim = Simulator(tiebreak_rng=random.Random(0))
    order = []
    for i in range(10):
        ev = Event(sim)
        ev._ok = True
        ev._value = None
        ev.subscribe(lambda _ev, i=i: order.append(i))
        sim._enqueue(ev, 1.0, URGENT)
    sim.run()
    assert order == list(range(10))


@pytest.mark.parametrize("mode", ["drain", "heap"])
@pytest.mark.parametrize("peeker", range(3))
def test_peek_from_a_callback_has_no_side_effects(mode, peeker):
    """``peek()`` called by a process mid-``run()`` must leave the drain
    undisturbed, whether the queue is still the sorted drain list (the
    wake-ups were scheduled before the run) or already a binary heap
    (scheduled from inside it)."""
    sim = Simulator()
    seen = []
    modes = []
    early = {}
    if mode == "drain":
        early = {i: sim.timeout(1.0) for i in range(3)}
        early["rest"] = sim.timeout(2.0)

    def proc(i):
        yield early.get(i) or sim.timeout(1.0)
        if i == peeker:
            modes.append(sim._mode)
            seen.append(sim.peek())
        seen.append((i, sim.now))
        yield early.get("rest") or sim.timeout(1.0)

    for i in range(3):
        sim.process(proc(i))
    sim.run()
    assert modes == [_MODE_HEAP if mode == "heap" else _MODE_DRAIN]
    assert seen.pop(peeker) == (1.0 if peeker < 2 else 2.0)
    assert seen == [(0, 1.0), (1, 1.0), (2, 1.0)]
    assert sim.now == 2.0
    assert sim.peek() == float("inf")
