"""Property tests: the calendar queue dispatches identically to the heap.

The fast-path engine replaces the flat ``heapq`` event list with a two-level
calendar queue (level 0: FIFO for the current timestamp; level 1: per-exact-
timestamp buckets indexed by a heap of distinct times).  DESIGN §16 claims
the two structures produce *identical* (time, seq) dispatch orders.  These
tests drive randomized schedule / cancel / reschedule scripts through both
backends and require the observed fire orders to match event for event,
including same-timestamp FIFO ties and handle reuse after cancellation.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import Simulator, Timeout

# Times are drawn from a coarse grid so same-timestamp ties are common --
# ties are exactly where a broken tie-break would show up.
GRID = [round(i * 0.25, 2) for i in range(24)]


def _make_script(seed: int, n: int) -> list[dict]:
    """A deterministic op script: each op happens at ``at`` sim-time."""
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        at = rng.choice(GRID)
        kind = rng.random()
        fire_delay = rng.choice([0.0, 0.0, 0.25, 0.5, 1.0, rng.random()])
        ops.append({
            "at": at,
            "label": f"ev{i}",
            "delay": fire_delay,
            # ~20% of future events get cancelled, ~10% rescheduled
            "cancel_after": rng.choice(GRID) if kind < 0.2 else None,
            "resched": (rng.choice([0.0, 0.25, 0.75])
                        if 0.2 <= kind < 0.3 else None),
        })
    ops.sort(key=lambda op: op["at"])
    return ops


def _run_script(fast_path: bool, script: list[dict]) -> list[tuple]:
    """Execute the script on one backend; return the observed fire order."""
    sim = Simulator(fast_path=fast_path)
    order: list[tuple] = []
    live: dict[str, tuple] = {}  # label -> (event, fire_time)
    dead: set[str] = set()

    def fire(label: str) -> None:
        if label not in dead:
            order.append((round(sim.now, 6), label))

    def do_schedule(label: str, delay: float) -> None:
        ev = sim.schedule(delay, lambda lb=label: fire(lb))
        live[label] = (ev, sim.now + delay)

    def do_cancel(label: str) -> None:
        ev, when = live.get(label, (None, 0.0))
        if ev is None or when <= sim.now:
            return
        if fast_path:
            # Real removal by handle on the calendar backend.
            if sim._cancel_scheduled(ev, when):
                dead.add(label)
        else:
            # The heap has no cancellation; emulate by muting the callback
            # so the surviving order is comparable.
            dead.add(label)

    for op in script:
        at, label = op["at"], op["label"]

        def run_op(op=op, label=label) -> None:
            do_schedule(label, op["delay"])
            if op["cancel_after"] is not None:
                sim.schedule(op["cancel_after"],
                             lambda lb=label: do_cancel(lb))
            if op["resched"] is not None:
                def resched(lb=label, d=op["resched"]) -> None:
                    do_cancel(lb)
                    do_schedule(lb + "'", d)
                sim.schedule(op["resched"] / 2.0, resched)

        sim.schedule(at, run_op)
    sim.run()
    return order


@pytest.mark.parametrize("seed", range(8))
def test_random_schedule_cancel_reschedule_order_identical(seed):
    script = _make_script(seed, n=120)
    heap_order = _run_script(False, script)
    cal_order = _run_script(True, script)
    assert cal_order == heap_order
    assert heap_order, "script produced no events"


def test_same_timestamp_ties_are_fifo_on_both_backends():
    for fast in (False, True):
        sim = Simulator(fast_path=fast)
        seen: list[str] = []
        # All land on t=1.0; insertion order must be preserved.
        for name in "abcdefgh":
            sim.schedule(1.0, lambda n=name: seen.append(n))
        sim.run()
        assert seen == list("abcdefgh"), fast


def test_zero_delay_chain_drains_within_one_batch_in_order():
    """Events enqueued at the current timestamp fire after earlier peers
    but before any later timestamp, in enqueue order — on both backends."""
    results = {}
    for fast in (False, True):
        sim = Simulator(fast_path=fast)
        seen: list[str] = []

        def chain() -> None:
            seen.append("chain")
            sim.schedule(0.0, lambda: seen.append("child1"))
            sim.schedule(0.0, lambda: seen.append("child2"))

        sim.schedule(1.0, chain)
        sim.schedule(1.0, lambda: seen.append("peer"))
        sim.schedule(1.25, lambda: seen.append("later"))
        sim.run()
        results[fast] = seen
    assert results[True] == results[False]
    assert results[True] == ["chain", "peer", "child1", "child2", "later"]


def test_cancel_by_handle_removes_pending_entry():
    sim = Simulator(fast_path=True)
    fired: list[str] = []
    keep = sim.schedule(1.0, lambda: fired.append("keep"))
    drop = sim.schedule(1.0, lambda: fired.append("drop"))
    assert sim.heap_depth == 2
    assert sim._cancel_scheduled(drop, 1.0)
    assert sim.heap_depth == 1
    # a second cancel of the same handle is a no-op
    assert not sim._cancel_scheduled(drop, 1.0)
    sim.run()
    assert fired == ["keep"]
    assert keep.processed


def test_cancelled_handle_reuse_via_timeout_pool():
    """A cancelled pooled timeout can be recycled and re-issued without
    double-firing or perturbing dispatch order (the segmented-hold split
    in resources.py relies on exactly this)."""
    sim = Simulator(fast_path=True)
    t = sim.hot_timeout(2.0)
    woke: list[float] = []
    t.add_callback(lambda ev: woke.append(sim.now))
    assert sim._cancel_scheduled(t, 2.0)
    # hand the handle back and re-issue at an earlier time
    t.callbacks = []
    sim._timeout_pool.append(t)
    t2 = sim.hot_timeout(1.0)
    assert t2 is t  # the handle really was reused
    t2.add_callback(lambda ev: woke.append(sim.now))
    sim.run()
    assert woke == [1.0]


def test_peek_and_depth_parity_across_backends():
    for fast in (False, True):
        sim = Simulator(fast_path=fast)
        assert sim.peek() == float("inf")
        sim.schedule(2.0, lambda: None)
        sim.schedule(0.5, lambda: None)
        assert sim.peek() == 0.5
        assert sim.heap_depth == 2
        sim.run(until=1.0)
        assert sim.now == 1.0
        assert sim.peek() == 2.0
        assert sim.heap_depth == 1
        sim.run()
        assert sim.heap_depth == 0


def test_peek_skips_fully_cancelled_buckets():
    sim = Simulator(fast_path=True)
    only = sim.schedule(1.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    assert sim._cancel_scheduled(only, 1.0)
    assert sim.peek() == 3.0
    sim.run()
    assert sim.now == 3.0


def test_run_until_boundary_parity():
    script = _make_script(seed=99, n=60)
    for until in (1.0, 2.5, 7.0):
        results = {}
        for fast in (False, True):
            sim = Simulator(fast_path=fast)
            seen: list[tuple] = []
            for op in script:
                sim.schedule(op["at"] + op["delay"],
                             lambda lb=op["label"]: seen.append(
                                 (round(sim.now, 6), lb)))
            sim.run(until=until)
            results[fast] = (seen, sim.now)
        assert results[True] == results[False], until


def test_step_fires_one_event_and_counts_batches():
    from repro.obs.telemetry import KernelStats

    ks = KernelStats()
    sim = Simulator(fast_path=True)
    ks.attach(sim)
    seen: list[str] = []
    for name in "abc":
        sim.schedule(1.0, lambda n=name: seen.append(n))
    sim.schedule(2.0, lambda: seen.append("d"))
    sim.step()
    assert seen == ["a"]
    sim.run()
    assert seen == ["a", "b", "c", "d"]
    assert ks.batches >= 1
    assert ks.batched_events >= 3
    assert ks.max_batch >= 3
    report = ks.report()
    assert report["batch_dispatch"]["batches"] == ks.batches

    with pytest.raises(IndexError):
        sim.step()


def test_timeout_pool_still_recycles_on_calendar_backend():
    sim = Simulator(fast_path=True)

    def proc():
        for _ in range(5):
            yield sim.hot_timeout(0.1)

    sim.process(proc())
    sim.run()
    # steady state is two pooled objects: the resume that requests the next
    # hot timeout runs before the fired one is recycled back into the pool
    assert len(sim._timeout_pool) == 2
    for t in sim._timeout_pool:
        assert isinstance(t, Timeout) and t._pooled
