"""Request-level front-end machinery shared by both routers.

The packet-level splicing mechanism lives in :mod:`repro.core.splicer` and
is exercised by its own tests.  For the throughput experiments (Figures
2-4) we drive requests at *request granularity*: the front end still pays
CPU for connection handling/lookup/relaying, still moves every byte of the
request and response through its own NIC in both directions (§2.2: packets
are relayed between the user connection and the pre-forked connection), and
still tracks every client connection in the mapping table -- but a request
is one simulation activity instead of ~30 packet events, which keeps
9-server x 120-client sweeps tractable.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Generator, Optional

from ..cluster import BackendServer, Cpu, NodeSpec
from ..content import ContentItem, ContentType
from ..net import HttpRequest, HttpResponse, Lan, Nic
from ..net.packet import Address
from ..sim import (Counter, Histogram, Interrupt, MetricSet, Simulator,
                   ThroughputMeter)
from .mapping_table import MappingState, MappingTable
from .overload import OverloadConfig, OverloadControl, RequestTimeout
from .policies import Policy, RoutingView, WeightedLeastConnection

__all__ = ["FrontendCosts", "Frontend", "RequestOutcome"]

_client_ports = itertools.count(40000)


@dataclasses.dataclass(frozen=True)
class FrontendCosts:
    """Front-end CPU costs (seconds on the front end's own CPU clock).

    The content-aware distributor pays the handshake + HTTP parse + URL
    lookup; the L4 router only inspects the TCP header.  §5.2 reports the
    URL-table lookup averaging 4.32 us at 8 700 objects -- three orders of
    magnitude below the per-request handling cost, i.e. "insignificant".
    """

    conn_setup_cpu: float = 120e-6        # SYN handling + mapping entry
    http_parse_cpu: float = 80e-6         # read + parse the request (CA only)
    lookup_cache_hit_cpu: float = 1.5e-6  # URL-table entry-cache hit
    lookup_per_level_cpu: float = 1.8e-6  # per hash level on a cache miss
    relay_cpu_per_kb: float = 9e-6        # header-rewrite forwarding per KB
    teardown_cpu: float = 40e-6           # FIN handling, entry deletion


@dataclasses.dataclass(slots=True)
class RequestOutcome:
    """What the client observes for one request."""

    response: Optional[HttpResponse]
    latency: float
    backend: Optional[str]
    #: True when the front end refused or degraded the request (503)
    shed: bool = False
    #: Retry-After seconds the client should honour before retrying
    retry_after: float = 0.0


class Frontend:
    """Base class: owns the NIC/CPU, the mapping table, and the metrics."""

    def __init__(self, sim: Simulator, lan: Lan, spec: NodeSpec,
                 servers: dict[str, BackendServer],
                 policy: Optional[Policy] = None,
                 costs: FrontendCosts = FrontendCosts(),
                 warmup: float = 0.0,
                 client_latency: float = 0.0,
                 overload: Optional[OverloadConfig] = None,
                 name: Optional[str] = None):
        if not servers:
            raise ValueError("a front end needs at least one backend")
        if client_latency < 0:
            raise ValueError("client_latency must be non-negative")
        self.sim = sim
        self.lan = lan
        self.spec = spec
        #: extra one-way delay between clients and the cluster.  The §5.1
        #: testbed has LAN clients (0); real deployments serve WAN clients,
        #: where every extra client round trip (§2.1's complaint about
        #: HTTP redirection) costs tens of milliseconds.
        self.client_latency = client_latency
        self.name = name or spec.name
        self.servers = dict(servers)
        self.policy = policy or WeightedLeastConnection()
        self.costs = costs
        self.nic = Nic(sim, spec.nic_mbps, name=f"{self.name}.nic")
        self.cpu = Cpu(sim, spec.cpu_mhz, name=self.name)
        self.view = RoutingView(
            {nm: srv.spec.weight for nm, srv in servers.items()})
        self.mapping = MappingTable()
        self.metrics = MetricSet()
        self.meter = ThroughputMeter(warmup=warmup, name=self.name)
        self.class_meters: dict[ContentType, ThroughputMeter] = {
            t: ThroughputMeter(warmup=warmup, name=t.value)
            for t in ContentType}
        self.alive = True
        self.on_response: Optional[
            Callable[[Optional[ContentItem], HttpResponse], None]] = None
        self._vip_isns = itertools.count(7_000_000, 104729)
        #: raw concurrency accounting (always on, no events): without
        #: admission control this is the unbounded queue the overload
        #: regression test measures
        self.inflight = 0
        self.peak_inflight = 0
        # wired at construction: a tracer must attach to sim before this
        if sim.tracer is not None:
            self.mapping.on_transition = self._trace_splice
        #: the overload-control subsystem; None = the paper's unprotected
        #: data plane (and a byte-identical event sequence to it)
        self.overload: Optional[OverloadControl] = None
        if overload is not None:
            self.overload = OverloadControl(sim, overload, self.view)
        # Interned per-request collectors: _finish runs once per request,
        # and rebuilding the f-string keys + registry probes dominated its
        # cost.  Entries are created lazily through the registry on first
        # use, so the snapshot key set is exactly what it always was.
        self._status_counters: dict[int, Counter] = {}
        self._latency_hists: dict[ContentType, Histogram] = {}
        self._latency_all: Optional[Histogram] = None

    def _trace_splice(self, entry, old: MappingState,
                      new: MappingState) -> None:
        """Mapping-table observation hook: one point per state change."""
        self.sim.tracer.point("splice", f"{old.value}->{new.value}",
                              trace_id=entry.trace_id or None,
                              node=self.name)

    # -- hooks subclasses implement ------------------------------------------
    def route(self, request: HttpRequest) -> Generator:
        """Yield-from generator returning (backend_name, item | None)."""
        raise NotImplementedError

    def release_backend(self, backend: str, token) -> None:
        """Return any per-request backend resource (e.g. pooled conn)."""

    def acquire_backend(self, backend: str) -> Generator:
        """Yield-from generator returning an opaque token (or None)."""
        return None
        yield  # pragma: no cover

    # -- the request path ---------------------------------------------------
    def submit(self, request: HttpRequest, client_nic: Nic,
               client_addr: Optional[Address] = None) -> Generator:
        """Serve one client request end to end; returns RequestOutcome.

        Models: client handshake + request transfer in, routing decision,
        backend binding, request relay, backend service, response relay
        back out, teardown.  All bytes cross this front end's NIC.

        With overload control wired (``self.overload``), the request first
        passes admission (bounded inflight + bounded queue, deterministic
        shed beyond that) and failures on the splice path feed the
        per-backend circuit breakers.
        """
        if not self.alive:
            raise RuntimeError(f"front end {self.name} is down")
        started = self.sim.now
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            request.trace_id = tracer.new_trace()
            span = tracer.begin("request", request.url,
                                trace_id=request.trace_id, node=self.name,
                                client=request.client_id,
                                request_id=request.request_id)
        self.inflight += 1
        if self.inflight > self.peak_inflight:
            self.peak_inflight = self.inflight
        try:
            ctl = self.overload
            if ctl is None:
                return (yield from self._serve_spliced(request, client_nic,
                                                       client_addr, started,
                                                       span))
            ctl.retry_budget.on_request()
            admitted = yield from ctl.admission.admit()
            if not admitted:
                # shed at the accept stage: no mapping entry, no pooled
                # connection -- nothing allocated, nothing to leak
                return self._shed(request, started, "overload/shed",
                                  span=span, reason="admission-queue-full")
            try:
                if tracer is not None:
                    tracer.point("admission", "admitted",
                                 trace_id=span.trace_id, node=self.name)
                return (yield from self._serve_spliced(request, client_nic,
                                                       client_addr, started,
                                                       span))
            finally:
                ctl.admission.release()
        finally:
            self.inflight -= 1
            # RST / interrupt path: the request span must not stay open
            if span is not None and span.end is None:
                tracer.end(span, status="error")

    def _serve_spliced(self, request: HttpRequest, client_nic: Nic,
                       client_addr: Optional[Address],
                       started: float, span=None) -> Generator:
        """The §2.2 splice: bind, relay, serve, relay back, tear down."""
        tracer = self.sim.tracer
        tid = span.trace_id if span is not None else None
        client = client_addr or Address("client", next(_client_ports))
        entry = self.mapping.create(client, started,
                                    vip_isn=next(self._vip_isns))
        backend: Optional[str] = None
        token = None
        attempts = 0
        stage = None
        try:
            # from here on the entry is covered by the RST handler below:
            # a raising transition hook must not strand it in the table
            if tid is not None:
                entry.trace_id = tid
            self.mapping.transition(entry, MappingState.ESTABLISHED)
            # TCP handshake with the client (one WAN round trip), then the
            # request bytes ride client -> front end
            if tracer is not None:
                stage = tracer.begin("stage", "handshake", trace_id=tid,
                                     node=self.name)
            if self.client_latency:
                yield self.sim.timeout(3 * self.client_latency)
            yield from self.lan.transfer(client_nic, self.nic,
                                         request.wire_bytes)
            yield from self.cpu.run(self.costs.conn_setup_cpu)
            if stage is not None:
                tracer.end(stage)
                stage = None
            while True:
                if tracer is not None:
                    stage = tracer.begin("stage", "route", trace_id=tid,
                                         node=self.name)
                backend, item = yield from self.route(request)
                if stage is not None:
                    tracer.end(stage, backend=backend or "")
                    stage = None
                if backend is None:
                    response = HttpResponse(request=request, status=503,
                                            completed_at=self.sim.now)
                    return self._finish(entry, request, response, started,
                                        None, span=span)
                if tracer is not None:
                    stage = tracer.begin("stage", "bind", trace_id=tid,
                                         node=self.name, backend=backend)
                token = yield from self.acquire_backend(backend)
                self.mapping.bind(entry,
                                  token if token is not None else object(),
                                  backend)
                if stage is not None:
                    tracer.end(stage)
                    stage = None
                self.view.connection_started(backend)
                if self.overload is not None:
                    self.overload.breakers.on_dispatch(backend)
                failure: Optional[Exception] = None
                if tracer is not None:
                    stage = tracer.begin("stage", "serve", trace_id=tid,
                                         node=self.name, backend=backend)
                try:
                    server = self.servers[backend]
                    # relay the request to the backend
                    relay_kb = request.wire_bytes / 1024.0
                    yield from self.cpu.run(
                        self.costs.relay_cpu_per_kb * relay_kb)
                    yield from self.lan.transfer(self.nic, server.nic,
                                                 request.wire_bytes)
                    response = yield from self._backend_serve(server, request,
                                                              item)
                    entry.requests_relayed += 1
                    entry.bytes_to_server += request.wire_bytes
                    # relay the response back to the client
                    resp_kb = response.wire_bytes / 1024.0
                    yield from self.lan.transfer(server.nic, self.nic,
                                                 response.wire_bytes)
                    yield from self.cpu.run(
                        self.costs.relay_cpu_per_kb * resp_kb)
                    yield from self.lan.transfer(self.nic, client_nic,
                                                 response.wire_bytes)
                    if self.client_latency:
                        yield self.sim.timeout(self.client_latency)
                    entry.bytes_to_client += response.wire_bytes
                except Interrupt:
                    raise
                except Exception as exc:
                    failure = exc
                finally:
                    self.view.connection_finished(backend)
                if stage is not None:
                    tracer.end(stage, status="ok" if failure is None
                               else type(failure).__name__)
                    stage = None
                if failure is None:
                    if self.overload is not None:
                        self.overload.breakers.record_success(backend)
                    break
                # the backend failed mid-splice: score its breaker, drop
                # the lease, and retry on a replica if the budget allows
                if self.overload is not None:
                    self.overload.breakers.record_failure(backend)
                if token is not None:
                    self.release_backend(backend, token)
                    token = None
                if self.overload is None:
                    raise failure
                if not self._may_retry(attempts, tid):
                    if entry.client in self.mapping:
                        self.mapping.abort(entry.client)
                    return self._shed(request, started, "overload/degraded",
                                      span=span,
                                      reason=type(failure).__name__)
                attempts += 1
                self.metrics.counter("overload/replica-retry").increment()
                if tracer is not None:
                    tracer.point("retry", "replica-retry", trace_id=tid,
                                 node=self.name, attempt=attempts,
                                 failed=backend,
                                 reason=type(failure).__name__)
                # SM005: BOUND never returns to ESTABLISHED -- the splice
                # is torn down (RST) and the client connection re-enters
                # the table as a fresh entry before the re-route
                if entry.client in self.mapping:
                    self.mapping.abort(entry.client)
                entry = self.mapping.create(client, self.sim.now,
                                            vip_isn=next(self._vip_isns))
                if tid is not None:
                    entry.trace_id = tid
                self.mapping.transition(entry, MappingState.ESTABLISHED)
                backend = None
            # FIN handling happens after the response reaches the client;
            # it consumes front-end CPU but adds nothing to user latency
            if self.costs.teardown_cpu:
                self.cpu.run_detached(self.costs.teardown_cpu)
            return self._finish(entry, request, response, started, item,
                                span=span)
        except BaseException:
            # RST path: a failed or interrupted request must not leak its
            # mapping entry (the invariant verifier checks lease balance),
            # even if closing the stage span itself raises
            try:
                if stage is not None and stage.end is None:
                    tracer.end(stage, status="interrupted")
            finally:
                if entry.client in self.mapping:
                    self.mapping.abort(entry.client)
            raise
        finally:
            if token is not None:
                self.release_backend(backend, token)

    def _backend_serve(self, server: BackendServer, request: HttpRequest,
                       item: Optional[ContentItem]) -> Generator:
        """Await the backend's response, bounded by the request timeout."""
        ctl = self.overload
        if ctl is None or ctl.config.request_timeout <= 0:
            # no timeout race to arbitrate: run the serve in this process
            # (nothing ever interrupts a submit mid-serve, so a spawned
            # process would buy only isolation that the exception handling
            # in _serve_spliced already provides)
            return (yield from self.sim.call(server.serve(request, item)))
        proc = self.sim.process(server.serve(request, item))
        timer = self.sim.hot_timeout(ctl.config.request_timeout)
        cond = self.sim.hot_any_of((proc, timer))
        yield cond
        self.sim.recycle_any_of(cond)
        if proc.triggered:
            return proc.value
        # the backend is still chewing: abandon the splice (the distributor
        # RSTs its side) and let the serve drain in the background -- the
        # no-op callback marks the process observed so a late failure in it
        # cannot take down the whole simulation
        proc.add_callback(lambda ev: None)
        self.metrics.counter("overload/timeout").increment()
        raise RequestTimeout(server.name, ctl.config.request_timeout)

    def _may_retry(self, attempts: int, trace_id=None) -> bool:
        ctl = self.overload
        if ctl is None:
            return False
        tracer = self.sim.tracer
        if attempts >= ctl.config.max_replica_retries:
            if tracer is not None:
                tracer.point("retry", "denied", trace_id=trace_id,
                             node=self.name, reason="max-attempts")
            return False
        if ctl.retry_budget.try_spend():
            return True
        if tracer is not None:
            tracer.point("retry", "denied", trace_id=trace_id,
                         node=self.name, reason="budget-exhausted")
        return False

    def _shed(self, request: HttpRequest, started: float, counter: str,
              span=None, reason: str = "") -> RequestOutcome:
        """A clean 503 + Retry-After without touching per-connection state."""
        response = HttpResponse(request=request, status=503,
                                completed_at=self.sim.now)
        self.metrics.counter(counter).increment()
        self._count_status(response.status)
        tracer = self.sim.tracer
        if tracer is not None:
            name = counter.split("/", 1)[1]  # "shed" | "degraded"
            why = reason or name
            tracer.point("shed", name,
                         trace_id=span.trace_id if span else None,
                         node=self.name, reason=why)
            if span is not None:
                tracer.end(span, status="503", shed=True, reason=why)
        return RequestOutcome(response=response,
                              latency=self.sim.now - started, backend=None,
                              shed=True,
                              retry_after=(self.overload.config.retry_after
                                           if self.overload is not None
                                           else 0.0))

    def _count_status(self, status: int) -> None:
        counter = self._status_counters.get(status)
        if counter is None:
            counter = self.metrics.counter(f"status/{status}")
            self._status_counters[status] = counter
        counter.increment()

    def _finish(self, entry, request: HttpRequest, response: HttpResponse,
                started: float, item: Optional[ContentItem],
                span=None) -> RequestOutcome:
        # teardown: FIN from the client, distributor ACKs, final ACK
        # (the fused close applies the same transition chain)
        self.mapping.close(entry)
        latency = self.sim.now - started
        self.meter.record(self.sim.now, nbytes=response.content_length)
        if item is not None and response.ok:
            self.class_meters[item.ctype].record(
                self.sim.now, nbytes=response.content_length)
            hist = self._latency_hists.get(item.ctype)
            if hist is None:
                hist = self.metrics.histogram(f"latency/{item.ctype.value}",
                                              low=1e-5, high=100.0)
                self._latency_hists[item.ctype] = hist
            hist.observe(latency)
        hist = self._latency_all
        if hist is None:
            hist = self._latency_all = self.metrics.histogram(
                "latency/all", low=1e-5, high=100.0)
        hist.observe(latency)
        self._count_status(response.status)
        if self.on_response is not None:
            self.on_response(item, response)
        if self.sim.tracer is not None and span is not None:
            self.sim.tracer.end(span, status=str(response.status),
                                backend=response.served_by or "")
        outcome = RequestOutcome(response=response, latency=latency,
                                 backend=response.served_by or None)
        if self.overload is not None and response.status == 503:
            # no healthy replica (all holders down or breaker-tripped):
            # degrade cleanly and tell the client when to come back
            outcome.shed = True
            outcome.retry_after = self.overload.config.retry_after
        return outcome

    # -- introspection --------------------------------------------------------
    def throughput(self, horizon: float) -> float:
        return self.meter.requests_per_second(horizon)

    def class_throughput(self, ctype: ContentType, horizon: float) -> float:
        return self.class_meters[ctype].requests_per_second(horizon)

    def crash(self) -> None:
        self.alive = False

    def recover(self) -> None:
        self.alive = True
