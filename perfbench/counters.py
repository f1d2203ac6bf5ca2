"""Per-layer work counts read from the program's own public counters.

:func:`snapshot` sums each counter over every live instance of its class
(found through the garbage collector, so no component has to be wired to
the benchmark).  :class:`RunCounters` takes one snapshot just before each
simulated run and one just after it and adds up the differences, so set-up
work (catalog inserts, cache prewarm, the initial checkpoint) is left out.
:func:`derive` turns the raw sums into the named metrics.
"""

from __future__ import annotations

import gc

from repro.cluster.cache import LruCache
from repro.cluster.disk import Disk
from repro.cluster.server import BackendServer
from repro.core.conn_pool import ConnectionPool
from repro.core.frontend import Frontend
from repro.core.loadbalance import AutoReplicator
from repro.core.splicer import SplicingDistributor
from repro.core.url_table import UrlTable
from repro.mgmt.controller import Controller
from repro.mgmt.durability import ControllerDurability
from repro.net.lan import Lan
from repro.net.tcp import Network
from repro.sim.engine import Simulator
from repro.sim.resources import Resource

#: counters that are high-water marks: the end value counts, not a delta
PEAKS = ("conn_pool_peak_waiting",)


def snapshot() -> dict[str, float]:
    """Raw counter sums over every live instance."""
    c = dict.fromkeys((
        "sim_now", "events", "resource_requests", "resource_wait",
        "lan_transfers", "lan_fast", "tcp_segments", "tcp_flow_forwards",
        "splicer_relayed", "url_lookups", "url_cache_hits", "url_levels",
        "url_writes", "frontend_cpu_busy", "conn_pool_acquires",
        "conn_pool_peak_waiting", "server_serves", "cache_hits",
        "cache_misses", "cache_evictions", "cpu_busy", "disk_reads",
        "disk_busy", "ctl_dispatches", "ctl_failures", "wal_appends",
        "checkpoints", "lb_intervals", "lb_actions"), 0.0)
    for obj in gc.get_objects():
        if isinstance(obj, Simulator):
            c["sim_now"] += obj.now
            c["events"] += obj.event_count
        elif isinstance(obj, Resource):
            c["resource_requests"] += obj.total_requests
            c["resource_wait"] += obj.total_wait_time
        elif isinstance(obj, Lan):
            c["lan_transfers"] += obj.total_transfers
            c["lan_fast"] += obj.fast_transfers
        elif isinstance(obj, Network):
            c["tcp_segments"] += obj.segments_sent
            c["tcp_flow_forwards"] += obj.flow_forwards
        elif isinstance(obj, SplicingDistributor):
            c["splicer_relayed"] += (obj.relayed_to_server
                                     + obj.relayed_to_client)
        elif isinstance(obj, UrlTable):
            c["url_lookups"] += obj.lookups
            c["url_cache_hits"] += obj.cache_hits
            c["url_levels"] += obj.levels_touched
            c["url_writes"] += obj.version
        elif isinstance(obj, Frontend):
            c["frontend_cpu_busy"] += obj.cpu.busy_seconds
        elif isinstance(obj, ConnectionPool):
            c["conn_pool_acquires"] += obj.acquired
            c["conn_pool_peak_waiting"] = max(c["conn_pool_peak_waiting"],
                                              obj.peak_waiting)
        elif isinstance(obj, BackendServer):
            c["server_serves"] += (obj.completed_requests
                                   + obj.failed_requests)
            c["cpu_busy"] += obj.cpu.busy_seconds
        elif isinstance(obj, LruCache):
            c["cache_hits"] += obj.hits
            c["cache_misses"] += obj.misses
            c["cache_evictions"] += obj.evictions
        elif isinstance(obj, Disk):
            c["disk_reads"] += obj.reads
            c["disk_busy"] += obj.busy_seconds
        elif isinstance(obj, Controller):
            c["ctl_dispatches"] += obj.dispatches
            c["ctl_failures"] += obj.failures
        elif isinstance(obj, ControllerDurability):
            c["wal_appends"] += obj.wal.appends
            c["checkpoints"] += obj.checkpoints
        elif isinstance(obj, AutoReplicator):
            c["lb_intervals"] += obj.intervals_run
            c["lb_actions"] += len(obj.history)
    return c


class RunCounters:
    """Sums counter differences over the simulated runs of one workload."""

    def __init__(self):
        self.totals: dict[str, float] = {}
        self._before: dict[str, float] = {}

    def __call__(self, phase: str) -> None:
        now = snapshot()
        if phase == "start":
            self._before = now
            return
        for key, value in now.items():
            if key in PEAKS:
                self.totals[key] = max(self.totals.get(key, 0.0), value)
            else:
                self.totals[key] = (self.totals.get(key, 0.0) + value
                                    - self._before[key])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(c: dict[str, float]) -> dict[str, float]:
    """The count, ratio and simulated-time metrics of each layer."""
    lookups = c["url_lookups"]
    return {
        "sim.engine.events": c["events"],
        "sim.resources.grants": c["resource_requests"],
        "sim.resources.wait_sim_s": c["resource_wait"],
        "net.lan.transfers": c["lan_transfers"],
        "net.lan.fast_ratio": _ratio(c["lan_fast"], c["lan_transfers"]),
        "net.tcp.segments": c["tcp_segments"],
        "core.splicer.relayed": c["splicer_relayed"],
        "core.url_table.lookups": lookups,
        "core.url_table.writes": c["url_writes"],
        "core.url_table.entry_cache_hit_ratio":
            _ratio(c["url_cache_hits"], lookups),
        "core.url_table.levels_per_lookup": _ratio(c["url_levels"], lookups),
        "core.frontend.cpu_util": _ratio(c["frontend_cpu_busy"],
                                         c["sim_now"]),
        "core.conn_pool.acquires": c["conn_pool_acquires"],
        "core.conn_pool.peak_waiting": c["conn_pool_peak_waiting"],
        "cluster.server.serves": c["server_serves"],
        "cluster.cache.hit_ratio": _ratio(
            c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        "cluster.cache.evictions": c["cache_evictions"],
        "cluster.cpu.busy_sim_s": c["cpu_busy"],
        "cluster.disk.reads": c["disk_reads"],
        "cluster.disk.busy_sim_s": c["disk_busy"],
        "mgmt.controller.dispatches": c["ctl_dispatches"],
        "mgmt.controller.failure_ratio": _ratio(c["ctl_failures"],
                                                c["ctl_dispatches"]),
        "mgmt.durability.appends": c["wal_appends"],
        "mgmt.durability.checkpoints": c["checkpoints"],
        "core.loadbalance.intervals": c["lb_intervals"],
        "core.loadbalance.actions": c["lb_actions"],
    }
