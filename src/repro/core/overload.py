"""Overload control & graceful degradation on the data plane.

The paper's distributor (§2.2) accepts every client connection and binds
it to a pre-forked backend connection; §3.3 reacts to imbalance only by
replicating content.  Under a flash crowd that means unbounded accept
queues, and a sick backend keeps receiving its URL-table share of traffic
until auto-replication catches up.  This module adds the four mechanisms a
production serving stack layers on top of placement (cf. the QoS-aware
replica-management line of work, arXiv:0912.2296):

* **admission control** -- a bounded accept window per front end
  (``max_inflight`` concurrent requests, ``max_queue`` waiting); excess
  requests are shed deterministically with a clean 503 + ``Retry-After``
  instead of queueing forever;
* **circuit breakers** -- per-backend health scored from request timeouts
  and errors observed on the splice path; a tripped backend is removed
  from the routing candidates while the URL table still lists it;
* **retry budgets** -- retries are capped as a fraction of recent request
  volume, so retry storms cannot amplify an overload;
* **slow-start reintroduction** -- a recovered backend re-enters routing
  at a ramped weight (see :meth:`RoutingView.effective_weight`) instead of
  instantly receiving its full weighted-least-connection share.

Everything is driven by the simulation clock and plain counters -- no wall
clock, no global RNG -- so overload behaviour is a pure function of the
seed, byte-identical across ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable, Generator, Optional

from ..sim import SimEvent, Simulator

__all__ = ["OverloadConfig", "AdmissionController", "BREAKER_TRANSITIONS",
           "CircuitBreaker", "BreakerBoard", "RetryBudget", "RequestTimeout",
           "OverloadControl"]


class RequestTimeout(Exception):
    """A backend did not produce its response within the request timeout."""

    def __init__(self, node: str, timeout: float):
        super().__init__(f"backend {node} exceeded the {timeout:.3g}s "
                         f"request timeout")
        self.node = node
        self.timeout = timeout


@dataclasses.dataclass(frozen=True)
class OverloadConfig:
    """Tunables for the overload-control subsystem (one per front end)."""

    # -- admission control -------------------------------------------------
    #: concurrent requests past the accept stage
    max_inflight: int = 32
    #: requests allowed to wait for an admission slot; beyond this, shed
    max_queue: int = 16
    #: Retry-After seconds attached to every shed / degraded 503
    retry_after: float = 0.5
    # -- request timeouts / circuit breakers -------------------------------
    #: per-request backend service timeout (0 disables timeouts)
    request_timeout: float = 2.0
    #: consecutive failures that trip a breaker from CLOSED to OPEN
    breaker_failures: int = 4
    #: rolling window of recent outcomes scored per backend
    breaker_window: int = 16
    #: failure fraction over the window that also trips the breaker ...
    breaker_error_rate: float = 0.5
    #: ... once at least this many outcomes are in the window
    breaker_min_samples: int = 8
    #: seconds an OPEN breaker blocks traffic before probing (HALF_OPEN)
    breaker_open_duration: float = 1.0
    #: consecutive probe successes that close a HALF_OPEN breaker
    breaker_probes: int = 2
    #: concurrent probe requests a HALF_OPEN breaker admits
    breaker_probe_inflight: int = 2
    # -- retry budgets -----------------------------------------------------
    #: budget tokens earned per submitted request (retries per request)
    retry_budget_ratio: float = 0.1
    #: tokens available before any traffic has been seen
    retry_budget_initial: float = 4.0
    #: token accumulation cap ("recent volume", not all-time volume)
    retry_budget_cap: float = 32.0
    #: replica-failover attempts per request (each also costs budget)
    max_replica_retries: int = 2
    # -- slow-start reintroduction -----------------------------------------
    #: seconds over which a recovered backend ramps to full weight
    slow_start_window: float = 2.0
    #: fraction of full weight a recovered backend starts at
    slow_start_fraction: float = 0.2

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.retry_after < 0:
            raise ValueError("retry_after must be >= 0")
        if self.request_timeout < 0:
            raise ValueError("request_timeout must be >= 0")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if self.breaker_window < 1:
            raise ValueError("breaker_window must be >= 1")
        if not 0.0 < self.breaker_error_rate <= 1.0:
            raise ValueError("breaker_error_rate must be in (0, 1]")
        if self.breaker_min_samples < 1:
            raise ValueError("breaker_min_samples must be >= 1")
        if self.breaker_open_duration <= 0:
            raise ValueError("breaker_open_duration must be positive")
        if self.breaker_probes < 1:
            raise ValueError("breaker_probes must be >= 1")
        if self.breaker_probe_inflight < 1:
            raise ValueError("breaker_probe_inflight must be >= 1")
        if self.retry_budget_ratio < 0:
            raise ValueError("retry_budget_ratio must be >= 0")
        if self.retry_budget_initial < 0:
            raise ValueError("retry_budget_initial must be >= 0")
        if self.retry_budget_cap < self.retry_budget_initial:
            raise ValueError("retry_budget_cap must be >= initial")
        if self.max_replica_retries < 0:
            raise ValueError("max_replica_retries must be >= 0")
        if self.slow_start_window < 0:
            raise ValueError("slow_start_window must be >= 0")
        if not 0.0 < self.slow_start_fraction <= 1.0:
            raise ValueError("slow_start_fraction must be in (0, 1]")


class AdmissionController:
    """A bounded accept window: at most ``max_inflight`` requests past the
    accept stage, at most ``max_queue`` waiting for a slot, everyone else
    shed immediately.

    Admission happens *before* a mapping-table entry or pooled connection
    exists, so a shed request touches no per-connection state at all --
    there is nothing to leak.  Waiters are granted strictly FIFO when a
    slot frees, which keeps the event order a pure function of the seed.
    """

    def __init__(self, sim: Simulator, config: OverloadConfig):
        self.sim = sim
        self.config = config
        self.submitted = 0
        self.admitted = 0
        self.shed = 0
        self.released = 0
        self.inflight = 0
        self.peak_inflight = 0
        self.peak_queue = 0
        self._waiters: deque[SimEvent] = deque()

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def admit(self) -> Generator:
        """Yield-from generator returning True (admitted) or False (shed)."""
        self.submitted += 1
        if self.inflight < self.config.max_inflight:
            self._grant()
            return True
        if len(self._waiters) >= self.config.max_queue:
            self.shed += 1
            return False
        slot = SimEvent(self.sim)
        self._waiters.append(slot)
        self.peak_queue = max(self.peak_queue, len(self._waiters))
        yield slot
        return True

    def _grant(self) -> None:
        self.admitted += 1
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)

    def release(self) -> None:
        """Free one admission slot; hands it to the oldest waiter."""
        if self.inflight <= 0:
            raise ValueError("release without a matching admit")
        self.inflight -= 1
        self.released += 1
        if self._waiters and self.inflight < self.config.max_inflight:
            slot = self._waiters.popleft()
            self._grant()
            slot.succeed()


#: The circuit-breaker state machine.  ``closed`` (the initial state)
#: passes traffic and scores outcomes; ``open`` blocks the backend until
#: the cooldown elapses; ``half-open`` admits a bounded number of probe
#: requests whose outcomes decide between re-closing and re-opening;
#: ``disabled`` is the terminal administrative off-switch (the breaker
#: stops gating traffic permanently).
BREAKER_TRANSITIONS: dict[str, tuple[str, ...]] = {
    "closed": ("open", "disabled"),
    "open": ("half-open", "disabled"),
    "half-open": ("closed", "open", "disabled"),
    "disabled": (),
}


class CircuitBreaker:
    """Per-backend health gate fed by splice-path outcomes.

    Driven entirely by the simulation clock passed in as ``clock`` -- the
    OPEN -> HALF_OPEN transition happens lazily on the first routability
    check past the cooldown, which is deterministic because candidates are
    always iterated in sorted order.
    """

    def __init__(self, node: str, config: OverloadConfig,
                 clock: Callable[[], float],
                 on_transition: Optional[
                     Callable[[str, str, str, str], None]] = None):
        self.node = node
        self.config = config
        self.clock = clock
        self.on_transition = on_transition
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.opened_count = 0
        self.reclosed_count = 0
        self.probe_successes = 0
        self.probes_in_flight = 0
        self.successes = 0
        self.failures = 0
        self._window: deque[bool] = deque(maxlen=config.breaker_window)

    def _shift(self, to: str, reason: str = "") -> None:
        if to not in BREAKER_TRANSITIONS[self.state]:
            raise ValueError(f"breaker {self.node}: illegal transition "
                             f"{self.state} -> {to}")
        origin, self.state = self.state, to
        if self.on_transition is not None:
            self.on_transition(self.node, origin, to, reason)

    # -- the gate the routing view consults --------------------------------
    def routable(self) -> bool:
        if self.state == "closed" or self.state == "disabled":
            return True
        if self.state == "open":
            if (self.opened_at is not None and
                    self.clock() - self.opened_at >=
                    self.config.breaker_open_duration):
                self._shift("half-open", "cooldown-elapsed")
                self.probe_successes = 0
                self.probes_in_flight = 0
            else:
                return False
        return self.probes_in_flight < self.config.breaker_probe_inflight

    def on_dispatch(self) -> None:
        """A request was bound to this backend (probe accounting)."""
        if self.state == "half-open":
            self.probes_in_flight += 1

    # -- outcome scoring ----------------------------------------------------
    def record_success(self) -> None:
        self.successes += 1
        self.consecutive_failures = 0
        self._window.append(True)
        if self.state == "half-open":
            self.probes_in_flight = max(0, self.probes_in_flight - 1)
            self.probe_successes += 1
            if self.probe_successes >= self.config.breaker_probes:
                self._shift("closed", "probes-passed")
                self.reclosed_count += 1
                self.probe_successes = 0
                self.probes_in_flight = 0
                self._window.clear()

    def record_failure(self) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        self._window.append(False)
        if self.state == "half-open":
            self.probes_in_flight = max(0, self.probes_in_flight - 1)
            self._open("probe-failed")
        elif self.state == "closed":
            reason = self._trip_reason()
            if reason:
                self._open(reason)

    def _open(self, reason: str = "") -> None:
        self._shift("open", reason)
        self.opened_at = self.clock()
        self.opened_count += 1
        self.probe_successes = 0
        self.probes_in_flight = 0

    def _should_trip(self) -> bool:
        return bool(self._trip_reason())

    def _trip_reason(self) -> str:
        """Why a CLOSED breaker should open now ("" = it should not)."""
        if self.consecutive_failures >= self.config.breaker_failures:
            return "consecutive-failures"
        if len(self._window) >= self.config.breaker_min_samples:
            bad = sum(1 for ok in self._window if not ok)
            if bad / len(self._window) >= self.config.breaker_error_rate:
                return "error-rate"
        return ""

    def disable(self) -> None:
        """Administrative off-switch: stop gating this backend forever."""
        if self.state != "disabled":
            self._shift("disabled", "administrative")


class BreakerBoard:
    """All per-backend breakers for one front end, created lazily.

    Also the sink for the management plane's health signal: a controller
    dispatch timeout (:class:`repro.mgmt.Controller`) counts as a data-
    plane failure via :meth:`record_mgmt_timeout`, so the two planes agree
    on which node is sick.
    """

    def __init__(self, config: OverloadConfig, sim: Simulator,
                 on_close: Optional[Callable[[str], None]] = None):
        self.config = config
        self.sim = sim
        self.on_close = on_close
        self._breakers: dict[str, CircuitBreaker] = {}
        #: every transition, for audits: (time, node, from, to, reason)
        self.transitions: list[tuple[float, str, str, str, str]] = []
        self.mgmt_timeouts: dict[str, int] = {}

    def breaker(self, node: str) -> CircuitBreaker:
        if node not in self._breakers:
            self._breakers[node] = CircuitBreaker(
                node, self.config, lambda: self.sim.now,
                on_transition=self._record_transition)
        return self._breakers[node]

    def _record_transition(self, node: str, origin: str, to: str,
                           reason: str) -> None:
        self.transitions.append((self.sim.now, node, origin, to, reason))
        if self.sim.tracer is not None:
            self.sim.tracer.point("breaker", f"{origin}->{to}", node=node,
                                  reason=reason)
        if to == "closed" and self.on_close is not None:
            self.on_close(node)

    def routable(self, node: str) -> bool:
        return self.breaker(node).routable()

    def on_dispatch(self, node: str) -> None:
        self.breaker(node).on_dispatch()

    def record_success(self, node: str) -> None:
        self.breaker(node).record_success()

    def record_failure(self, node: str) -> None:
        self.breaker(node).record_failure()

    def record_mgmt_timeout(self, node: str) -> None:
        """Management-plane health signal (controller dispatch timeout)."""
        self.mgmt_timeouts[node] = self.mgmt_timeouts.get(node, 0) + 1
        self.breaker(node).record_failure()

    def state_of(self, node: str) -> str:
        """A breaker's state *without* creating it (absent = "closed").

        Telemetry probes sample through here: a read-only observer must
        never materialize a breaker, or enabling telemetry would change
        :meth:`snapshot` and the lazy-creation event flow.
        """
        b = self._breakers.get(node)
        return b.state if b is not None else "closed"

    def open_count(self) -> int:
        """How many breakers are currently open or probing (non-creating)."""
        return sum(1 for b in self._breakers.values()
                   if b.state in ("open", "half-open"))

    def all_closed(self) -> bool:
        return all(b.state in ("closed", "disabled")
                   for b in self._breakers.values())

    def open_nodes(self) -> list[str]:
        return sorted(n for n, b in self._breakers.items()
                      if b.state in ("open", "half-open"))

    def opened_total(self) -> int:
        return sum(b.opened_count for b in self._breakers.values())

    def reclosed_total(self) -> int:
        return sum(b.reclosed_count for b in self._breakers.values())

    def snapshot(self) -> dict:
        """JSON-friendly per-node breaker counters (sorted, deterministic)."""
        return {node: {"state": b.state, "opened": b.opened_count,
                       "reclosed": b.reclosed_count,
                       "successes": b.successes, "failures": b.failures}
                for node, b in sorted(self._breakers.items())}


class RetryBudget:
    """A deterministic token bucket capping retries by request volume.

    Every submitted request deposits ``ratio`` tokens (clamped to ``cap``,
    so the budget tracks *recent* volume); every retry spends one.  When
    the bucket is empty the retry is denied and the caller fails fast --
    retries can never amplify an overload beyond ``ratio`` of traffic.
    """

    def __init__(self, ratio: float = 0.1, initial: float = 4.0,
                 cap: float = 32.0):
        if ratio < 0 or initial < 0 or cap < initial:
            raise ValueError("need ratio >= 0 and cap >= initial >= 0")
        self.ratio = ratio
        self.cap = cap
        self.tokens = initial
        self.requests = 0
        self.granted = 0
        self.denied = 0

    def on_request(self) -> None:
        self.requests += 1
        self.tokens = min(self.cap, self.tokens + self.ratio)

    def try_spend(self, cost: float = 1.0) -> bool:
        if self.tokens >= cost:
            self.tokens -= cost
            self.granted += 1
            return True
        self.denied += 1
        return False


class OverloadControl:
    """The composite a front end owns: admission + breakers + retry budget,
    wired into the front end's :class:`~repro.core.policies.RoutingView`
    (breaker gate + slow-start ramp)."""

    def __init__(self, sim: Simulator, config: OverloadConfig, view):
        self.sim = sim
        self.config = config
        self.admission = AdmissionController(sim, config)
        # a backend whose breaker re-closes ramps back in just like one the
        # monitor marks up: slow-start covers both recovery paths
        self.breakers = BreakerBoard(config, sim,
                                     on_close=view.begin_slow_start)
        self.retry_budget = RetryBudget(ratio=config.retry_budget_ratio,
                                        initial=config.retry_budget_initial,
                                        cap=config.retry_budget_cap)
        view.gate = self.breakers.routable
        if config.slow_start_window > 0:
            view.configure_slow_start(config.slow_start_window,
                                      config.slow_start_fraction,
                                      clock=lambda: sim.now)
