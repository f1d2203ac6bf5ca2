"""Shared-resource primitives built on the simulation kernel.

``Resource``
    A counted resource (server slots, disk arms, NIC channels).  Processes
    ``yield resource.request()`` to acquire a unit and call
    ``resource.release(req)`` when done.  FIFO service order.
``PriorityResource``
    Same, but pending requests are served lowest-priority-value first.
``Store``
    An unbounded (or bounded) FIFO buffer of Python objects with blocking
    ``get``; the basic building block for mailboxes and queues.
``Container``
    A continuous level (bytes, tokens) with blocking ``put``/``get``.

All primitives expose counters used by the metrics layer (peak queue length,
total waits, utilization integrals).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from .engine import SimEvent, Simulator, Timeout
from .engine import _PENDING

__all__ = ["Request", "Resource", "PriorityResource", "Store", "Container",
           "SEGMENT_SPLIT"]

#: Sentinel delivered by a segmented hold's timeout when contention
#: materialized the internal boundary: the holder must release at the
#: boundary and replay the second burst through the event-accurate path.
SEGMENT_SPLIT = object()


class Request(SimEvent):
    """The event returned by :meth:`Resource.request`.

    Succeeds when the resource grants a unit to the caller.  Keep the object:
    it is the handle passed to :meth:`Resource.release`.
    """

    __slots__ = ("resource", "priority", "requested_at", "granted_at",
                 "cancelled", "hold")

    def __init__(self, resource: "Resource", priority: float = 0.0):
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority
        self.requested_at = resource.sim._now
        self.granted_at: Optional[float] = None
        self.cancelled = False
        #: grant-and-hold duration (see Resource.request)
        self.hold: Optional[float] = None

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request (e.g. after an interrupt)."""
        if self.granted_at is not None:
            raise RuntimeError("cannot cancel a granted request; release it")
        self.cancelled = True
        self.resource._purge()


class Resource:
    """A counted, FIFO-granted resource."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.users: list[Request] = []
        self.queue: list[Request] = []
        # bookkeeping for metrics
        self.total_requests = 0
        self.total_wait_time = 0.0
        self.peak_queue_len = 0
        self._busy_integral = 0.0
        self._last_change = sim.now
        self._created_at = sim.now
        #: active segmented hold (fast path only):
        #: (holder request, boundary time, pooled timeout, fire time)
        self._seg: Optional[tuple] = None
        #: recycled Request objects (see :meth:`release`)
        self._req_pool: list[Request] = []

    # -- metrics ------------------------------------------------------------
    @property
    def in_use(self) -> int:
        return len(self.users)

    @property
    def queue_len(self) -> int:
        return len(self.queue)

    def utilization(self) -> float:
        """Time-average fraction of capacity in use since creation."""
        self._account()
        elapsed = self.sim.now - self._created_at
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.capacity)

    def _account(self) -> None:
        now = self.sim._now
        dt = now - self._last_change
        if dt > 0:
            self._busy_integral += dt * len(self.users)
            self._last_change = now

    # -- protocol ------------------------------------------------------------
    def _take_request(self, priority: float = 0.0) -> Request:
        """A fresh or recycled :class:`Request` (pool filled by release)."""
        pool = self._req_pool
        if pool:
            req = pool.pop()
            req.callbacks = []
            req._value = _PENDING
            req._exception = None
            req._defused = False
            req.priority = priority
            req.requested_at = self.sim._now
            req.granted_at = None
            req.cancelled = False
            req.hold = None
            return req
        return Request(self, priority)

    def request(self, priority: float = 0.0,
                hold: Optional[float] = None) -> Request:
        """Ask for one unit of the resource.  Yield the returned event.

        ``hold`` (the fast path's *grant-and-hold*, see :meth:`hold`):
        when the caller already knows it will hold the unit for exactly
        ``hold`` seconds and then release, the grant event is scheduled
        directly at ``grant_time + hold`` instead of waking the owner at
        the grant just so it can arm the same timer.  One event and one
        resume replace two of each; the grant bookkeeping (wait time,
        utilization integral) still happens at the grant instant, so
        every digested counter is byte-identical to the two-step path.
        The owner must call :meth:`release` immediately on wake-up.
        """
        seg = self._seg
        if seg is not None and self.sim._now < seg[1]:
            # A contender arrived before a segmented hold's internal
            # boundary: split the hold so the grant timeline is identical
            # to the event-by-event path.  A contender arriving exactly at
            # the boundary was scheduled after the hold began
            # (:meth:`segmentable` refuses a boundary with an event already
            # queued), so the event path fires the boundary first and the
            # holder keeps the unit: no split.
            self._split_segment()
        req = self._take_request(priority)
        req.hold = hold
        self.total_requests += 1
        self.queue.append(req)
        if len(self.queue) > self.peak_queue_len:
            self.peak_queue_len = len(self.queue)
        self._grant()
        return req

    @property
    def can_acquire(self) -> bool:
        """True when a unit would be granted *right now* without queueing."""
        return not self.queue and len(self.users) < self.capacity

    def try_acquire(self) -> Optional[Request]:
        """Synchronously acquire one unit iff it is free right now.

        Returns the granted :class:`Request` (pass it to :meth:`release`),
        or ``None`` when the caller would have to queue -- callers fall back
        to ``yield resource.request()`` in that case.

        This is the kernel fast path's contention check.  Because
        :meth:`request` also grants synchronously inside ``_grant`` (only
        the *notification* is an event), acquiring here leaves every piece
        of bookkeeping -- counters, wait times, utilization integral --
        byte-identical to the event-based path, while skipping the grant
        event entirely.
        """
        users = self.users
        if self.queue or len(users) >= self.capacity:
            return None
        req = self._take_request()
        self.total_requests += 1
        # request() measures peak with the new request momentarily queued.
        if self.peak_queue_len < 1:
            self.peak_queue_len = 1
        # inlined _account()
        now = self.sim._now
        dt = now - self._last_change
        if dt > 0:
            self._busy_integral += dt * len(users)
            self._last_change = now
        req.granted_at = now
        req._value = req          # triggered, never scheduled
        users.append(req)
        return req

    # -- holds ------------------------------------------------------------------
    def hold(self, duration: float, layer: Optional[str] = None,
             collapse: bool = True,
             extra: Optional[Callable[[], float]] = None) -> Generator:
        """Acquire one unit, hold it ``duration`` seconds, release it; use
        ``yield from``.  Returns True when the grant was synchronous.

        One operation, three schedules with the same grant timeline and
        bookkeeping:

        * fast path, unit free: a synchronous grant (:meth:`try_acquire`)
          and one pooled timeout;
        * fast path, unit busy: grant-and-hold (``request(hold=...)``), one
          event for the grant and the hold together;
        * event-accurate path, or ``collapse=False``: :meth:`request`,
          then a pooled timeout armed when the grant wakes the holder.

        ``extra``, when given, returns seconds added to the hold when the
        unit is granted: state that may change while the holder queues.
        Grant-and-hold could only read it at request time, so callers
        collapse only while it is zero and the collapsed schedules skip
        it.  ``layer`` names the caller in the kernel observer's fast-path
        hit/fallback counts.
        """
        sim = self.sim
        if collapse and sim.fast_path:
            req = self.try_acquire()
            if layer is not None:
                sim.note_fast_path(layer, req is not None)
            if req is None:
                req = yield self.request(hold=duration)
                self.release(req)
                return False
            try:
                yield sim.hot_timeout(duration)
            finally:
                self.release(req)
            return True
        if layer is not None:
            sim.note_fast_path(layer, False)
        req = yield self.request()
        try:
            if extra is not None:
                duration += extra()
            yield sim.hot_timeout(duration)
        finally:
            self.release(req)
        return False

    def hold_detached(self, duration: float,
                      then: Callable[[], Any]) -> None:
        """A fire-and-forget :meth:`hold`; ``then()`` runs after release.

        The hold starts where a freshly spawned process would start it:
        when its start event fires, after every event already queued for
        this instant.  The event-accurate path spawns that process.  The
        fast path builds none: it joins the queue by grant-and-hold, now
        when nothing is queued for the instant (the start event would have
        been the very next event), else from a zero-delay callback at the
        start event's position.
        """
        sim = self.sim
        if not sim.fast_path:
            sim.process(self._hold_then(duration, then), name=self.name)
        elif sim._must_hop():
            sim.schedule(0.0, lambda: self._start_detached(duration, then))
        else:
            self._start_detached(duration, then)

    def _hold_then(self, duration: float, then: Callable[[], Any]):
        yield from self.hold(duration)
        then()

    def _start_detached(self, duration: float,
                        then: Callable[[], Any]) -> None:
        req = self.request(hold=duration)
        req.add_callback(lambda _ev: self._release_then(req, then))

    def _release_then(self, req: Request, then: Callable[[], Any]) -> None:
        self.release(req)
        then()

    # -- segmented holds (fast path only) ------------------------------------
    def segmentable(self, first_delay: float,
                    second_delay: float = 0.0) -> bool:
        """True when :meth:`hold_segmented` may start now.

        That needs the fast path, a free unit, the whole hold inside the
        active run deadline (a truncated hold would freeze with the
        boundary bookkeeping unapplied), and no event already queued for
        the boundary instant.  The last rule settles ties by scheduling
        order: any contender arriving exactly at the boundary was then
        scheduled after the hold began, so the event-accurate path fires
        the boundary first and the holder keeps the unit.
        """
        sim = self.sim
        if not sim.fast_path or self.queue or \
                len(self.users) >= self.capacity:
            return False
        boundary = sim._now + first_delay
        return (boundary + second_delay <= sim._horizon
                and not sim._scheduled_at(boundary))

    def hold_segmented(self, request: Request, first_delay: float,
                       second_delay: float) -> Timeout:
        """Collapse two back-to-back holds by ``request``'s owner into one
        pooled timeout with a recorded internal boundary.

        Only valid when :meth:`segmentable` said so.  The caller holds the
        resource for both bursts and yields the returned timeout.  If
        nothing contends, it wakes once at the end (value ``None``) and
        the elided re-acquire's bookkeeping is the caller's
        responsibility.  If a contender requests the resource before the
        boundary, the pending timeout is *cancelled by handle*, re-armed
        to fire at the boundary, and delivers :data:`SEGMENT_SPLIT` -- the
        caller must then release at the boundary (granting the contender
        exactly when the event-accurate path would) and replay the second
        hold through the normal path.
        """
        assert self._seg is None, "nested segmented hold"
        sim = self.sim
        # Absolute fire times, computed exactly as the event path would:
        # (t0 + d1) + d2, never t0 + (d1 + d2) -- float addition is not
        # associative and the equivalence contract is bitwise.
        boundary = sim._now + first_delay
        fire_at = boundary + second_delay
        timeout = sim.hot_timeout_at(fire_at)
        self._seg = (request, boundary, timeout, fire_at)
        return timeout

    def _split_segment(self) -> None:
        _req, boundary, timeout, fire_at = self._seg
        self._seg = None
        sim = self.sim
        if not sim._cancel_scheduled(timeout, fire_at):
            return  # already fired; nothing to split
        waiters = timeout.callbacks
        timeout.callbacks = []
        sim._timeout_pool.append(timeout)
        # Re-arm at the exact boundary (reusing the cancelled handle), at
        # the head of its bucket: the event path scheduled the boundary
        # when the hold began, before everything queued there since.
        rearmed = sim.hot_timeout_at(boundary)
        bucket = sim._buckets[boundary]
        bucket.insert(0, bucket.pop())
        rearmed._value = SEGMENT_SPLIT
        for cb in waiters:
            rearmed.add_callback(cb)
            owner = getattr(cb, "__self__", None)
            if owner is not None and getattr(owner, "_target", None) is timeout:
                owner._target = rearmed

    def release(self, request: Request) -> None:
        """Return a previously granted unit."""
        users = self.users
        try:
            idx = users.index(request)
        except ValueError:
            raise RuntimeError(
                "releasing a request that does not hold the resource") from None
        seg = self._seg
        if seg is not None and seg[0] is request:
            self._seg = None
        # inlined _account() (the busy integral accrues over the pre-release
        # user count, so this must precede the removal)
        now = self.sim._now
        dt = now - self._last_change
        if dt > 0:
            self._busy_integral += dt * len(users)
            self._last_change = now
        del users[idx]
        if self.queue:
            self._grant()
        if type(request) is Request:
            # The handle is dead past this point by contract; recycle it.
            self._req_pool.append(request)

    def _select_next(self) -> Optional[Request]:
        for req in self.queue:
            if not req.cancelled:
                return req
        return None

    def _purge(self) -> None:
        self.queue = [r for r in self.queue if not r.cancelled]
        self._grant()

    def _grant(self) -> None:
        while len(self.users) < self.capacity:
            nxt = self._select_next()
            if nxt is None:
                break
            self.queue.remove(nxt)
            self._account()
            nxt.granted_at = self.sim._now
            self.total_wait_time += nxt.granted_at - nxt.requested_at
            self.users.append(nxt)
            hold = nxt.hold
            if hold is None:
                nxt.succeed(nxt)
            else:
                # Grant-and-hold (see request()): fire the grant event at
                # the end of the declared hold.  grant_time + hold is the
                # exact expression the two-step path evaluates when the
                # woken owner arms its timer, so fire times are bitwise
                # equal.
                nxt._value = nxt
                self.sim._enqueue(hold, nxt)


class PriorityResource(Resource):
    """A resource whose queue is served lowest ``priority`` value first.

    Ties break FIFO (stable with respect to request order).
    """

    def _select_next(self) -> Optional[Request]:
        best: Optional[Request] = None
        for req in self.queue:
            if req.cancelled:
                continue
            if best is None or req.priority < best.priority:
                best = req
        return best


class Store:
    """A FIFO buffer of arbitrary items with blocking ``get``.

    ``put`` never blocks unless ``capacity`` is set and reached, in which
    case it raises (bounded stores in this codebase are error conditions,
    not backpressure points).
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = ""):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: list[Any] = []
        self._getters: list[SimEvent] = []
        self.total_puts = 0
        self.total_gets = 0
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes one waiting getter if any."""
        if self.capacity is not None and len(self.items) >= self.capacity:
            raise OverflowError(
                f"store {self.name!r} exceeded capacity {self.capacity}")
        self.total_puts += 1
        if self._getters:
            getter = self._getters.pop(0)
            self.total_gets += 1
            getter.succeed(item)
        else:
            self.items.append(item)
            self.peak_size = max(self.peak_size, len(self.items))

    def get(self) -> SimEvent:
        """Return an event yielding the next item (immediately if buffered)."""
        ev = SimEvent(self.sim)
        if self.items:
            self.total_gets += 1
            ev.succeed(self.items.pop(0))
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; ``None`` when empty."""
        if self.items:
            self.total_gets += 1
            return self.items.pop(0)
        return None

    def cancel_get(self, event: SimEvent) -> None:
        """Withdraw a pending getter (after an interrupt)."""
        try:
            self._getters.remove(event)
        except ValueError:
            pass


class Container:
    """A continuous quantity with blocking ``get`` (put is immediate)."""

    def __init__(self, sim: Simulator, init: float = 0.0,
                 capacity: float = float("inf"), name: str = ""):
        if init < 0 or init > capacity:
            raise ValueError("init must satisfy 0 <= init <= capacity")
        self.sim = sim
        self.level = init
        self.capacity = capacity
        self.name = name
        self._getters: list[tuple[float, SimEvent]] = []

    def put(self, amount: float) -> None:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        self.level = min(self.capacity, self.level + amount)
        self._drain()

    def get(self, amount: float) -> SimEvent:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        ev = SimEvent(self.sim)
        self._getters.append((amount, ev))
        self._drain()
        return ev

    def _drain(self) -> None:
        while self._getters:
            amount, ev = self._getters[0]
            if amount > self.level:
                break
            self._getters.pop(0)
            self.level -= amount
            ev.succeed(amount)
