"""Builds the paper's §5.1 testbed in the simulator, in each configuration.

The three configurations of §5.3:

1. ``replication-l4`` -- entire document set replicated on every backend,
   front-ended by the layer-4 TCP connection router with Weighted Least
   Connection;
2. ``nfs-l4`` -- entire set on a shared NFS server, same L4 front end;
3. ``partition-ca`` -- document tree partitioned by content type (large
   files on big/fast-disk nodes, dynamic content on fast-CPU nodes),
   front-ended by the content-aware distributor.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..cluster import (BackendServer, NfsServer, NodeSpec, distributor_spec,
                       paper_testbed_specs)
from ..content import DocTree, SiteCatalog, generate_catalog
from ..core import (ContentAwareDistributor, Frontend, L4Router, LardRouter,
                    OverloadConfig, UrlTable, apply_plan, full_replication,
                    partition_by_type, shared_nfs)
from ..net import Lan
from ..sim import RngStream, Simulator
from ..workload import RequestSampler, WebBenchRig, WorkloadSpec

__all__ = ["ExperimentConfig", "Deployment", "build_deployment",
           "wire_telemetry", "SCHEMES"]

#: ``replication-lard`` is an extension scheme (the paper's future-work
#: "more sophisticated load-balancing algorithm"): LARD over full
#: replication -- content-aware, but with a *dynamic* content->server map.
SCHEMES = ("replication-l4", "nfs-l4", "partition-ca", "replication-lard")

#: The NFS file server: era-typical dedicated box (same class as the
#: distributor machine).
_NFS_SPEC = NodeSpec(name="nfs-server", cpu_mhz=350, mem_mb=128,
                     disk=paper_testbed_specs()[-1].disk, os="linux")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: scheme x workload (+ knobs)."""

    scheme: str
    workload: WorkloadSpec
    seed: int = 42
    n_objects: Optional[int] = None      # default: workload.n_objects
    warmup: float = 2.0
    duration: float = 8.0                # total simulated seconds
    n_client_machines: int = 24
    prefork: int = 16
    max_pool_size: int = 64
    #: pre-populate memory caches with each node's most-popular content,
    #: so short runs measure steady-state behaviour instead of cold start
    prewarm: bool = True
    #: run the repro.analysis coherence checks (URL table vs stores, pool
    #: lease balance) periodically during the simulation; fails fast with
    #: InvariantError at the first incoherent state
    debug_invariants: bool = False
    #: wire overload control (admission + breakers + retry budget +
    #: slow-start) into the front end; None keeps the paper's unprotected
    #: data plane
    overload: Optional[OverloadConfig] = None
    #: attach a repro.obs tracer to the simulator before anything is built:
    #: per-request spans, breaker/shed/pool point events, and a flight
    #: recorder.  Off by default; tracing never changes the event sequence
    trace: bool = False
    #: run on the kernel fast path (DESIGN.md §11): resource grants become
    #: synchronous and fault-free exchanges collapse to single completion
    #: events.  On by default; golden metrics, trace JSONL, and chaos
    #: outcome tables are byte-identical to the event-accurate path, which
    #: False selects (the equivalence tests' and benchmarks' oracle)
    fast_path: bool = True
    #: attach a repro.obs KernelStats scheduler observer (with call-site
    #: attribution): per-event-class scheduled/fired/cancelled counts,
    #: heap high-water, pool recycling.  Passive -- byte-identical off/on
    kernel_stats: bool = False
    #: attach a repro.obs TelemetrySampler with this window length in sim
    #: seconds; None leaves the kernel's telemetry hook dormant.  The
    #: sampler is driven from Simulator.step (never by scheduled events),
    #: so the timeline is byte-identical off/on
    telemetry: Optional[float] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"pick one of {SCHEMES}")
        if self.warmup >= self.duration:
            raise ValueError("warmup must be shorter than duration")


@dataclasses.dataclass
class Deployment:
    """A fully wired testbed ready to take client load."""

    config: ExperimentConfig
    sim: Simulator
    lan: Lan
    catalog: SiteCatalog
    servers: dict[str, BackendServer]
    frontend: Frontend
    url_table: UrlTable
    doctree: DocTree
    sampler: RequestSampler
    rig: WebBenchRig
    nfs: Optional[NfsServer] = None

    def run(self, n_clients: int) -> dict:
        """Drive ``n_clients`` for the configured duration; return summary."""
        self.rig.start_clients(n_clients)
        self.sim.run(until=self.config.duration)
        self.rig.stop_clients()
        tel, ks = self.sim.telemetry, self.sim.kernel_stats
        if tel is not None:
            tel.finalize(self.sim.now)
        summary = self.rig.summary(self.config.duration)
        summary["scheme"] = self.config.scheme
        summary["workload"] = self.config.workload.name
        summary["cache_hit_rates"] = {
            name: server.cache.hit_rate
            for name, server in self.servers.items()}
        summary["mean_cache_hit_rate"] = (
            sum(summary["cache_hit_rates"].values()) / len(self.servers))
        if self.nfs is not None:
            summary["nfs_rpcs"] = self.nfs.rpcs_served
            summary["nfs_nic_out_utilization"] = \
                self.nfs.nic.utilization_out()
            summary["nfs_disk_utilization"] = self.nfs.disk.utilization()
        summary["frontend_nic_out_utilization"] = \
            self.frontend.nic.utilization_out()
        summary["frontend_cpu_utilization"] = self.frontend.cpu.utilization()
        if tel is not None:
            # additive: cells without telemetry keep their exact summary
            summary["telemetry"] = tel.summary()
        if ks is not None:
            summary["kernel_stats"] = ks.report()
        return summary


def _prewarm_caches(catalog: SiteCatalog,
                    servers: dict[str, BackendServer],
                    nfs: Optional[NfsServer]) -> None:
    """Fill memory caches with the most-popular static content.

    Popularity within a class is assigned smallest-file-first by the
    request sampler, so ascending size is the popularity order.  A node
    with local content caches its own shard's hot set; in the NFS
    configuration (empty local stores) every node caches the site-wide hot
    set, as it would after serving the mixed stream for a while.
    """
    site_hot = sorted((i for i in catalog.static_items()),
                      key=lambda i: (i.size_bytes, i.path))
    for server in servers.values():
        # only locally held content is cacheable (NFS reads serve through)
        items = sorted((i for i in server.store if i.ctype.is_static),
                       key=lambda i: (i.size_bytes, i.path))
        cache = server.cache
        for item in items:
            if cache.used_bytes + item.size_bytes > cache.capacity_bytes:
                break
            cache.admit(item.path, item.size_bytes)
    if nfs is not None:
        for item in site_hot:
            if nfs.cache.used_bytes + item.size_bytes > \
                    nfs.cache.capacity_bytes:
                break
            nfs.cache.admit(item.path, item.size_bytes)


def build_deployment(config: ExperimentConfig) -> Deployment:
    """Construct the §5.1 cluster wired for ``config.scheme``."""
    rng = RngStream(config.seed, f"exp/{config.scheme}/{config.workload.name}")
    sim = Simulator(debug=config.debug_invariants,
                    fast_path=config.fast_path)
    # observers attach before anything is built (local imports keep the
    # observability layer optional for plain runs)
    if config.kernel_stats:
        from ..obs import KernelStats
        KernelStats(callsites=True).attach(sim)
    if config.trace:
        from ..obs import Tracer
        Tracer().attach(sim)
    if config.telemetry is not None:
        from ..obs import TelemetrySampler
        TelemetrySampler(window=config.telemetry).attach(sim)
    lan = Lan(sim)
    specs = paper_testbed_specs()
    servers: dict[str, BackendServer] = {}
    n_objects = config.n_objects or config.workload.n_objects
    catalog = generate_catalog(n_objects, rng=rng.substream("catalog"),
                               mix=config.workload.catalog_mix)

    nfs: Optional[NfsServer] = None
    if config.scheme == "nfs-l4":
        nfs = NfsServer(sim, lan, _NFS_SPEC)
    for spec in specs:
        servers[spec.name] = BackendServer(sim, lan, spec, nfs=nfs,
                                           warmup=config.warmup)

    node_names = [s.name for s in specs]
    if config.scheme in ("replication-l4", "replication-lard"):
        plan = full_replication(catalog, node_names)
    elif config.scheme == "nfs-l4":
        plan = shared_nfs(catalog, node_names)
    else:
        plan = partition_by_type(catalog, specs)
    url_table, doctree = apply_plan(plan, catalog, servers, nfs=nfs)

    def resolver(url: str):
        path = url.split("?", 1)[0]
        return catalog.get(path) if path in catalog else None

    if config.scheme == "partition-ca":
        frontend: Frontend = ContentAwareDistributor(
            sim, lan, distributor_spec(), servers, url_table,
            prefork=config.prefork, max_pool_size=config.max_pool_size,
            warmup=config.warmup, overload=config.overload)
    elif config.scheme == "replication-lard":
        frontend = LardRouter(sim, lan, distributor_spec(), servers,
                              resolver, warmup=config.warmup,
                              overload=config.overload)
    else:
        frontend = L4Router(sim, lan, distributor_spec(), servers,
                            resolver, warmup=config.warmup,
                            overload=config.overload)

    if config.prewarm:
        _prewarm_caches(catalog, servers, nfs)

    sampler = RequestSampler(catalog, config.workload,
                             rng=rng.substream("requests"))
    rig = WebBenchRig(sim, frontend.submit, sampler,
                      n_machines=config.n_client_machines,
                      warmup=config.warmup,
                      think_time=config.workload.think_time,
                      rng=rng.substream("rig"))
    deployment = Deployment(config=config, sim=sim, lan=lan, catalog=catalog,
                            servers=servers, frontend=frontend,
                            url_table=url_table, doctree=doctree,
                            sampler=sampler, rig=rig, nfs=nfs)
    if sim.telemetry is not None:
        wire_telemetry(sim.telemetry, deployment)
    if config.debug_invariants:
        # local import keeps the analysis layer optional for plain runs
        from ..analysis.invariants import install_invariants
        install_invariants(deployment)
    return deployment


def wire_telemetry(sampler, deployment: Deployment, rig=None) -> None:
    """Register the standard probe set on a freshly built deployment.

    Every probe is a read-only closure over existing counters --
    non-creating reads only (``counter_value``, ``state_of``,
    ``pools()``), so sampling can never materialize a collector, a
    breaker, or a pool that the un-instrumented run would not have.
    Episode harnesses that drive their own rig (chaos/overload) pass it
    via ``rig``; plain cells sample the deployment's own.
    """
    sim = deployment.sim
    if rig is None:
        rig = deployment.rig
    frontend = deployment.frontend
    metrics = frontend.metrics
    sampler.add_cumulative("requests", lambda: rig.meter.completions)
    sampler.add_cumulative("client_errors", lambda: rig.errors)
    sampler.add_cumulative(
        "sheds", lambda: metrics.counter_value("overload/shed"))
    sampler.add_cumulative(
        "timeouts", lambda: metrics.counter_value("overload/timeout"))
    sampler.add_cumulative(
        "lan_transfers", lambda: deployment.lan.total_transfers)
    sampler.add_gauge("heap_depth", lambda: float(sim.heap_depth))
    sampler.add_gauge("frontend_inflight",
                      lambda: float(frontend.inflight))
    ctl = frontend.overload
    if ctl is not None:
        sampler.add_gauge("admission_inflight",
                          lambda: float(ctl.admission.inflight))
        sampler.add_gauge("admission_queued",
                          lambda: float(ctl.admission.queued))
        sampler.add_gauge("breakers_open",
                          lambda: float(ctl.breakers.open_count()))
        sampler.add_cumulative("breakers_opened",
                               lambda: ctl.breakers.opened_total())
    pools = getattr(frontend, "pools", None)
    if pools is not None:
        sampler.add_gauge("pool_waiting", lambda: float(
            sum(p.waiting for p in pools.pools().values())))
        sampler.add_gauge("pool_leased", lambda: float(
            sum(p.leased_count for p in pools.pools().values())))
    for name in sorted(deployment.servers):
        server = deployment.servers[name]
        for gauge in sorted(server.telemetry_gauges()):
            sampler.add_gauge(
                f"{name}/{gauge}",
                lambda s=server, g=gauge: float(s.telemetry_gauges()[g]))
