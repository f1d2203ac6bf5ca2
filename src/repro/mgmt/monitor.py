"""Cluster monitoring: §3.1's broker status loop wired into routing.

"The broker is a standalone Java application, which executes as a daemon
process on each backend server in order to perform the administrative
functions and monitor the status (e.g., load situation, failure) of the
managed node."

The :class:`ClusterMonitor` runs on the controller: every interval it
gathers a :class:`~repro.mgmt.messages.StatusReport` from each broker.  A
node that fails to report healthy for ``misses_to_fail`` consecutive
rounds is declared down; the monitor

* marks the node down in the distributor's routing view (no new requests
  route there),
* and, for every document that *lost* a replica, asks the controller to
  re-replicate it from a surviving copy onto a healthy node -- restoring
  the §1.2 availability guarantee for replicated content.  Documents whose
  *only* copy lived on the dead node are reported as lost (exactly the
  failure mode the paper's partial-replication advice exists to prevent).

When the node reports healthy again it is marked back up.
"""

from __future__ import annotations

import dataclasses
from typing import Generator, Optional

from ..core.policies import RoutingView
from ..sim import Simulator
from .agents import StatusAgent
from .controller import Controller, ManagementError
from .durability import ControllerCrashed

__all__ = ["ClusterMonitor", "NodeEvent"]


@dataclasses.dataclass(frozen=True)
class NodeEvent:
    """One detected state change, kept for reporting and tests."""

    at: float
    node: str
    kind: str            # "down" | "up" | "re-replicated" | "lost"
    detail: str = ""     # also "rejoined" | "purged" after a recovery


class ClusterMonitor:
    """Periodic health sweep + failure reaction."""

    def __init__(self, sim: Simulator, controller: Controller,
                 view: RoutingView,
                 interval: float = 1.0,
                 misses_to_fail: int = 2,
                 re_replicate: bool = True,
                 probe_timeout: Optional[float] = None,
                 reconcile_on_recovery: bool = True):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if misses_to_fail < 1:
            raise ValueError("misses_to_fail must be >= 1")
        self.sim = sim
        self.controller = controller
        self.view = view
        self.interval = interval
        self.misses_to_fail = misses_to_fail
        self.re_replicate = re_replicate
        self.probe_timeout = probe_timeout
        self.reconcile_on_recovery = reconcile_on_recovery
        self.events: list[NodeEvent] = []
        self.rounds = 0
        self._misses: dict[str, int] = {}
        self._down: set[str] = set()
        self._pending_reconcile: set[str] = set()
        self._process = None

    def start(self) -> None:
        self._process = self.sim.process(self._run(), name="cluster-monitor")

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("stopped")

    @property
    def down_nodes(self) -> set[str]:
        return set(self._down)

    def _run(self) -> Generator:
        while True:
            yield self.sim.timeout(self.interval)
            if not self.controller.alive:
                # the management brain is down (MgmtCrash / crash-point
                # exploration); skip the round -- recovery will
                # anti-entropy the cluster when the controller returns
                continue
            try:
                yield from self.sweep_once()
            except ControllerCrashed:
                # the controller died mid-sweep: abandon the round
                continue

    def sweep_once(self) -> Generator:
        """One monitoring round: poll every broker, react to changes."""
        self.rounds += 1
        for node in sorted(self.controller.brokers):
            healthy = yield from self._probe(node)
            if self.sim.tracer is not None:
                self.sim.tracer.point(
                    "monitor", "probe-ok" if healthy else "probe-failed",
                    node=node)
            if healthy:
                self._misses[node] = 0
                if node in self._down:
                    self._mark_up(node)
                if node in self._pending_reconcile:
                    yield from self._reconcile(node)
            else:
                self._misses[node] = self._misses.get(node, 0) + 1
                if (self._misses[node] >= self.misses_to_fail and
                        node not in self._down):
                    yield from self._mark_down(node)

    def _probe(self, node: str) -> Generator:
        """A status probe; a dead backend cannot execute the agent."""
        broker = self.controller.brokers[node]
        if not broker.server.alive:
            # the broker daemon dies with its machine: no response
            return False
        result = yield from self.controller.execute(
            StatusAgent(), node, timeout=self.probe_timeout)
        return bool(result.ok and result.detail.alive)

    def _mark_up(self, node: str) -> None:
        self._down.discard(node)
        self.view.mark_up(node)
        if self.sim.tracer is not None:
            self.sim.tracer.point("monitor", "mark-up", node=node)
        self.events.append(NodeEvent(at=self.sim.now, node=node, kind="up"))
        if self.reconcile_on_recovery:
            self._pending_reconcile.add(node)

    def _reconcile(self, node: str) -> Generator:
        """Repair a recovered node's divergence from the URL table.

        A returning node may still store documents the :meth:`_mark_down`
        path routed away from it (INV003 orphans) or be routed documents it
        lost.  Retried every sweep until the inventory round-trip succeeds
        (agent loss / partition make individual attempts fail).
        """
        summary = yield from self.controller.reconcile_node(
            node, timeout=self.probe_timeout)
        if "error" in summary:
            return  # stays pending; retried next sweep
        self._pending_reconcile.discard(node)
        for kind in ("rejoined", "purged", "lost"):
            for path in summary.get(kind, []):
                self.events.append(NodeEvent(
                    at=self.sim.now, node=node, kind=kind, detail=path))

    def _mark_down(self, node: str) -> Generator:
        self._down.add(node)
        self.view.mark_down(node)
        if self.sim.tracer is not None:
            self.sim.tracer.point("monitor", "mark-down", node=node,
                                  reason="missed-probes")
        self.events.append(NodeEvent(at=self.sim.now, node=node,
                                     kind="down"))
        if not self.re_replicate:
            return
        # restore availability for documents that lost a replica
        url_table = self.controller.url_table
        healthy = [n for n in sorted(self.controller.brokers)
                   if n not in self._down]
        for record in list(url_table.records()):
            if node not in record.locations:
                continue
            survivors = record.locations - self._down
            if not survivors:
                self.events.append(NodeEvent(
                    at=self.sim.now, node=node, kind="lost",
                    detail=record.path))
                continue
            # drop the dead replica from routing state; re-replicate the
            # document onto a healthy node that lacks it
            if len(record.locations) > 1:
                self.controller.wal_apply("route-drop",
                                          path=record.path, node=node)
                url_table.remove_location(record.path, node)
                if self.controller.doctree.exists(record.path):
                    self.controller.doctree.remove_location(
                        record.path, node)
            targets = [n for n in healthy if n not in record.locations]
            if not targets:
                continue
            target = targets[0]
            try:
                yield from self.controller.replicate(record.path, target)
            except ManagementError:
                continue
            self.events.append(NodeEvent(
                at=self.sim.now, node=target, kind="re-replicated",
                detail=record.path))
