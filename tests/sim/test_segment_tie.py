"""Segmented holds at their internal boundary, against the oracle.

``Cpu.run_pair`` on the fast path holds the core for both bursts as one
segmented hold.  A contender that asks for the core exactly at the
boundary instant is a tie, and the event-accurate path settles ties by
scheduling order: a contender whose wake-up was scheduled before the hold
began fires before the boundary and takes the core; one scheduled after
the hold began fires after it, when the holder has already re-acquired
the core for its second burst.  Each scenario runs on the fast path and on
``Simulator(fast_path=False)`` and must give identical observables.
"""

from repro.cluster import Cpu
from repro.sim import Simulator

#: 350 MHz is the reference clock, so bursts take exactly the reference
#: seconds; every time below is a dyadic fraction, so sums are exact
FIRST, SECOND, CONTENDER = 0.25, 0.5, 0.125


def _scenario(fast_path: bool, scheduled_first: bool,
              contender_at: float = FIRST):
    """Holder runs FIRST then SECOND from t=0; the contender wakes at
    ``contender_at``.  ``scheduled_first``: the wake-up is scheduled at
    t=0, before the holder's hold begins; otherwise it is scheduled at
    t=0.0625, well after it."""
    sim = Simulator(fast_path=fast_path)
    cpu = Cpu(sim, 350.0, name="n")
    log = []

    def holder():
        yield from cpu.run_pair(FIRST, SECOND)
        log.append(("holder", sim.now))

    def contender():
        if not scheduled_first:
            yield sim.timeout(0.0625)
        yield sim.timeout(contender_at - sim.now)
        yield from cpu.run(CONTENDER)
        log.append(("contender", sim.now))

    sim.process(contender())
    sim.process(holder())
    sim.run()
    core = cpu._core
    observed = (log, cpu.busy_seconds, cpu.bursts, core.total_requests,
                core.total_wait_time, core.peak_queue_len,
                core.utilization())
    return observed, sim.event_count


def _contender_done(observed) -> float:
    return dict(observed[0])["contender"]


def test_tie_contender_scheduled_before_hold_takes_core_at_boundary():
    oracle, _ = _scenario(False, scheduled_first=True)
    fast, _ = _scenario(True, scheduled_first=True)
    assert fast == oracle
    assert _contender_done(oracle) == FIRST + CONTENDER


def test_tie_contender_scheduled_after_hold_waits_for_second_burst():
    oracle, oracle_events = _scenario(False, scheduled_first=False)
    fast, fast_events = _scenario(True, scheduled_first=False)
    assert fast == oracle
    assert _contender_done(oracle) == FIRST + SECOND + CONTENDER
    # the hold really was one segmented hold on the fast path
    assert fast_events < oracle_events


def test_contender_before_boundary_splits_the_hold():
    for scheduled_first in (True, False):
        oracle, _ = _scenario(False, scheduled_first, contender_at=0.125)
        fast, _ = _scenario(True, scheduled_first, contender_at=0.125)
        assert fast == oracle
        assert _contender_done(oracle) == FIRST + CONTENDER
