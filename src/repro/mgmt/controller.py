"""The controller: the management brain on the distributor node (§3.1-3.3).

"One special daemon, called the controller, is responsible for receiving
requests from the administrator and then invoking brokers to perform the
delegated tasks by dispatching the corresponding agents.  The controller
resides on the distributor."

Every management mutation follows the same shape: dispatch agent(s), await
their results, and -- only on success -- update the URL table and the
document tree so the distributor routes to the new reality.  The controller
also implements the :class:`repro.core.loadbalance.ReplicationActuator`
protocol (``replicate``/``offload``), which is how §3.3's auto-replication
acts on the cluster.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..content import ContentItem, DocTree
from ..core.url_table import UrlTable, UrlTableError
from ..net import Nic
from ..sim import SimEvent, Simulator
from .agents import (Agent, CopyAgent, DeleteAgent, InventoryAgent,
                     RenameAgent, StatusAgent, UpdateAgent, VerifyAgent)
from .broker import Broker
from .durability import ControllerCrashed, item_to_payload
from .messages import AgentDispatch, AgentResult, StatusReport

__all__ = ["Controller", "ManagementError"]


class ManagementError(Exception):
    """A management operation could not be carried out."""


class Controller:
    """Receives admin commands, dispatches agents, updates routing state."""

    def __init__(self, sim: Simulator, nic: Nic,
                 url_table: UrlTable, doctree: DocTree):
        self.sim = sim
        self.nic = nic
        self.url_table = url_table
        self.doctree = doctree
        self.brokers: dict[str, Broker] = {}
        self._pending: dict[int, SimEvent] = {}
        #: applied to every dispatch that doesn't pass an explicit timeout;
        #: None preserves the original wait-forever behaviour
        self.default_timeout: Optional[float] = None
        #: data-plane health sink (a repro.core.overload BreakerBoard):
        #: dispatch timeouts are reported per node so the management and
        #: data planes agree on which backend is sick
        self.health_sink = None
        #: durable-state plumbing (a repro.mgmt.durability
        #: ControllerDurability); None preserves the original
        #: fire-and-forget, volatile-state behaviour byte for byte
        self.durability = None
        #: a crashed controller refuses dispatches until restart()
        self.alive = True
        self.crashes = 0
        self.restarts = 0
        self.dispatches = 0
        self.failures = 0
        self.timeouts = 0
        self.log: list[tuple[float, str, str, str]] = []  # (t, op, path, node)

    # -- broker wiring ------------------------------------------------------
    def register_broker(self, broker: Broker) -> None:
        if broker.name in self.brokers:
            raise ManagementError(f"broker {broker.name} already registered")
        self.brokers[broker.name] = broker
        self.sim.process(self._collect(broker), name=f"collect:{broker.name}")

    def _collect(self, broker: Broker) -> Generator:
        while True:
            result: AgentResult = yield broker.results.get()
            ev = self._pending.pop(result.dispatch_id, None)
            if ev is not None:
                ev.succeed(result)

    # -- crash / restart (durable-state contract) ---------------------------
    def crash(self) -> None:
        """Kill the controller process.

        Volatile state -- the pending-dispatch map -- is lost: every
        operation waiting on an agent result observes
        :class:`ControllerCrashed` at its next yield and unwinds without
        mutating routing state.  The WAL (``durability``), modelling a
        durable medium, survives.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        pending = len(self._pending)
        exc = ControllerCrashed(
            f"controller crashed at t={self.sim.now:.6f}")
        for dispatch_id in sorted(self._pending):
            ev = self._pending[dispatch_id]
            if not ev.triggered:
                ev.fail(exc)
                ev.defuse()
        self._pending.clear()
        if self.sim.tracer is not None:
            self.sim.tracer.point("recovery", "controller-crash",
                                  pending=pending)

    def restart(self) -> None:
        """Bring a crashed controller back (state recovery is separate:
        run :func:`repro.mgmt.durability.recover` afterwards)."""
        if self.alive:
            return
        self.alive = True
        self.restarts += 1
        if self.sim.tracer is not None:
            self.sim.tracer.point("recovery", "controller-restart")

    def wal_apply(self, action: str, **payload) -> None:
        """Write-ahead one routing mutation (no-op without durability).

        Callers that mutate the URL table / document tree directly (the
        cluster monitor, ``reconcile_node``) log through here *before*
        mutating, preserving the write-ahead ordering.
        """
        if self.durability is not None:
            self.durability.log_apply(action, dict(payload))

    # -- the dispatch primitive ----------------------------------------------
    def execute(self, agent: Agent, node: str,
                timeout: Optional[float] = None) -> Generator:
        """Send one agent to one broker and await its result.

        With ``timeout`` set, a dispatch whose result never comes back
        (broker dead, agent lost in flight) resolves to a synthetic failed
        :class:`AgentResult` after ``timeout`` simulated seconds instead of
        blocking forever.
        """
        if not self.alive:
            raise ControllerCrashed(
                f"controller is down ({agent.name} -> {node})")
        broker = self.brokers.get(node)
        if broker is None:
            raise ManagementError(f"no broker registered for {node!r}")
        dispatch = AgentDispatch(agent=agent, target=node,
                                 sent_at=self.sim.now)
        done = self.sim.event()
        self._pending[dispatch.dispatch_id] = done
        self.dispatches += 1
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            span = tracer.begin("agent", agent.name, node=node,
                                dispatch=dispatch.dispatch_id)
        if self.durability is not None:
            self.durability.log_dispatch(dispatch.dispatch_id,
                                         agent.name, node)
        broker.deliver(dispatch)
        if self.durability is not None:
            self.durability.boundary(f"deliver:{agent.name}@{node}")
        if timeout is None:
            timeout = self.default_timeout
        timed_out = False
        if timeout is None:
            result: AgentResult = yield done
        else:
            yield self.sim.any_of([done, self.sim.timeout(timeout)])
            if done.triggered:
                result = done.value
            else:
                timed_out = True
                self._pending.pop(dispatch.dispatch_id, None)
                self.timeouts += 1
                if self.health_sink is not None:
                    self.health_sink.record_mgmt_timeout(node)
                result = AgentResult(dispatch_id=dispatch.dispatch_id,
                                     node=node, agent_name=agent.name,
                                     ok=False, detail={"error": "timeout"},
                                     completed_at=self.sim.now)
        if not result.ok:
            self.failures += 1
        if span is not None:
            status = "ok" if result.ok else (
                "timeout" if timed_out else "failed")
            tracer.end(span, status=status)
        return result

    # -- content management operations (§3.2) ------------------------------
    def place(self, item: ContentItem, node: str,
              source: Optional[str] = None) -> Generator:
        """Install a document on ``node`` and make it routable there."""
        op_id = None
        if self.durability is not None:
            op_id = self.durability.log_intent("place", {
                "path": item.path, "node": node, "source": source,
                "item": item_to_payload(item)})
        try:
            result = yield from self.execute(
                CopyAgent(item, source=source), node)
            if not (result.ok and result.detail.get("copied")):
                raise ManagementError(
                    f"place {item.path} on {node} failed: {result.detail}")
            self.wal_apply("route-add", path=item.path, node=node,
                           item=item_to_payload(item))
            if item.path in self.url_table:
                self.url_table.add_location(item.path, node)
                self.doctree.add_location(item.path, node)
            else:
                self.url_table.insert(item, {node})
                self.doctree.insert(item, {node})
        except (ManagementError, UrlTableError) as exc:
            if self.durability is not None and op_id is not None:
                self.durability.log_abort(op_id, str(exc))
            raise
        self.log.append((self.sim.now, "place", item.path, node))
        if self.durability is not None and op_id is not None:
            self.durability.log_commit(op_id)
        return result

    def replicate(self, path: str, node: str) -> Generator:
        """Copy an existing document to one more node (§3.3 and §1.2)."""
        record = self.url_table.lookup(path)
        if node in record.locations:
            return None
        source = sorted(record.locations)[0]
        op_id = None
        if self.durability is not None:
            op_id = self.durability.log_intent("replicate", {
                "path": path, "node": node, "source": source,
                "item": item_to_payload(record.item)})
        try:
            result = yield from self.execute(
                CopyAgent(record.item, source=source), node)
            if not (result.ok and result.detail.get("copied")):
                raise ManagementError(
                    f"replicate {path} to {node} failed: {result.detail}")
            self.wal_apply("route-add", path=path, node=node)
            self.url_table.add_location(path, node)
            self.doctree.add_location(path, node)
        except (ManagementError, UrlTableError) as exc:
            if self.durability is not None and op_id is not None:
                self.durability.log_abort(op_id, str(exc))
            raise
        self.log.append((self.sim.now, "replicate", path, node))
        if self.durability is not None and op_id is not None:
            self.durability.log_commit(op_id)
        return result

    def offload(self, path: str, node: str) -> Generator:
        """Drop one node's copy (§3.3: 'decrease the content copies of that
        server').  Routing is updated *before* the physical delete so no
        request races onto the disappearing copy; the last copy is never
        offloaded."""
        op_id = None
        if self.durability is not None:
            op_id = self.durability.log_intent(
                "offload", {"path": path, "node": node})
        try:
            self.wal_apply("route-drop", path=path, node=node)
            self.url_table.remove_location(path, node)  # raises on last copy
            self.doctree.remove_location(path, node)
            result = yield from self.execute(DeleteAgent(path), node)
            if not result.ok:
                raise ManagementError(
                    f"offload {path} from {node} failed: {result.detail}")
        except (ManagementError, UrlTableError) as exc:
            if self.durability is not None and op_id is not None:
                self.durability.log_abort(op_id, str(exc))
            raise
        self.log.append((self.sim.now, "offload", path, node))
        if self.durability is not None and op_id is not None:
            self.durability.log_commit(op_id)
        return result

    def remove_document(self, path: str) -> Generator:
        """Delete a document everywhere and unregister it."""
        record = self.url_table.lookup(path)
        nodes = sorted(record.locations)
        op_id = None
        if self.durability is not None:
            op_id = self.durability.log_intent(
                "remove", {"path": path, "nodes": nodes})
        for node in nodes:
            yield from self.execute(DeleteAgent(path), node)
        self.wal_apply("route-remove", path=path)
        self.url_table.remove(path)
        self.doctree.delete(path)
        self.log.append((self.sim.now, "remove", path, ",".join(nodes)))
        if self.durability is not None and op_id is not None:
            self.durability.log_commit(op_id)

    def rename_document(self, old: str, new_item: ContentItem) -> Generator:
        """Rename a document on every node holding it."""
        record = self.url_table.lookup(old)
        nodes = sorted(record.locations)
        op_id = None
        if self.durability is not None:
            op_id = self.durability.log_intent("rename", {
                "old": old, "path": new_item.path,
                "item": item_to_payload(new_item), "nodes": nodes})
        try:
            for node in nodes:
                result = yield from self.execute(
                    RenameAgent(old, new_item), node)
                if not (result.ok and result.detail.get("renamed")):
                    raise ManagementError(
                        f"rename {old} on {node} failed: {result.detail}")
            self.wal_apply("route-rename", old=old, path=new_item.path,
                           item=item_to_payload(new_item), nodes=nodes)
            self.url_table.remove(old)
            self.url_table.insert(new_item, set(nodes))
            self.doctree.delete(old)
            self.doctree.insert(new_item, set(nodes))
        except (ManagementError, UrlTableError) as exc:
            if self.durability is not None and op_id is not None:
                self.durability.log_abort(op_id, str(exc))
            raise
        self.log.append((self.sim.now, "rename", old, new_item.path))
        if self.durability is not None and op_id is not None:
            self.durability.log_commit(op_id)

    def update_content(self, item: ContentItem) -> Generator:
        """Push a new version of a mutable document to all replicas (§4)."""
        record = self.url_table.lookup(item.path)
        op_id = None
        if self.durability is not None:
            op_id = self.durability.log_intent("update", {
                "path": item.path, "item": item_to_payload(item),
                "nodes": sorted(record.locations)})
        try:
            for node in sorted(record.locations):
                result = yield from self.execute(UpdateAgent(item), node)
                if not (result.ok and result.detail.get("updated")):
                    raise ManagementError(
                        f"update {item.path} on {node} failed: "
                        f"{result.detail}")
            # the dispatch loop yields: a concurrent remove/rename may have
            # dropped the record while agents were in flight -- revalidate
            # before writing through the pre-yield handle
            if record.path not in self.url_table:
                raise ManagementError(
                    f"update {item.path}: document removed during update")
            self.wal_apply("route-size", path=item.path,
                           size_bytes=item.size_bytes)
            record.item.size_bytes = item.size_bytes
        except (ManagementError, UrlTableError) as exc:
            if self.durability is not None and op_id is not None:
                self.durability.log_abort(op_id, str(exc))
            raise
        self.log.append((self.sim.now, "update", item.path,
                         ",".join(sorted(record.locations))))
        if self.durability is not None and op_id is not None:
            self.durability.log_commit(op_id)

    # -- monitoring / consistency -----------------------------------------
    def status_all(self) -> Generator:
        """Gather a StatusReport from every broker, in parallel."""
        events = []
        for node in sorted(self.brokers):
            events.append(self.sim.process(
                self.execute(StatusAgent(), node)))
        results = yield self.sim.all_of(events)
        reports: dict[str, StatusReport] = {}
        for ev in events:
            result: AgentResult = ev.value
            reports[result.node] = result.detail
        return reports

    def audit(self) -> Generator:
        """Cluster-wide consistency audit: URL table vs physical stores.

        One InventoryAgent per node (in parallel), then a pure comparison.
        Returns a dict with two lists of (path, node) pairs:

        * ``missing``  -- routed there by the URL table, not on the node;
        * ``orphaned`` -- on the node, unknown to (or unrouted by) the
          URL table.
        """
        events = []
        for node in sorted(self.brokers):
            events.append(self.sim.process(
                self.execute(InventoryAgent(), node)))
        yield self.sim.all_of(events)
        # a node whose inventory failed (e.g. dispatch timeout) cannot be
        # audited this round; it is simply not counted
        inventories = {ev.value.node: ev.value.detail["paths"]
                       for ev in events if ev.value.ok}
        nodes = sorted(inventories)
        missing: list[tuple[str, str]] = []
        orphaned: list[tuple[str, str]] = []
        routed: dict[str, set[str]] = {n: set() for n in nodes}
        for record in self.url_table.records():
            for node in sorted(record.locations):
                if node in routed:
                    routed[node].add(record.path)
        for node in nodes:
            for path in sorted(routed[node] - inventories[node]):
                missing.append((path, node))
            for path in sorted(inventories[node] - routed[node]):
                orphaned.append((path, node))
        return {"missing": missing, "orphaned": orphaned,
                "nodes_audited": len(nodes)}

    def reconcile_node(self, node: str,
                       timeout: Optional[float] = None) -> Generator:
        """Reconcile one (typically just-recovered) node with the URL table.

        A node that crashed and came back may hold documents the monitor
        re-routed away from it while it was down (stored-but-unrouted), and
        the table may still route documents the node never finished
        receiving (routed-but-missing).  Both break INV003.  The repair:

        * stored + record still exists  -> re-add the location ("rejoined");
        * stored + record gone          -> DeleteAgent ("purged");
        * routed but missing, >1 copies -> drop this location ("dropped");
        * routed but missing, last copy -> remove the record ("lost").

        Returns the four lists, or ``{"error": ...}`` when the inventory
        itself failed (caller should retry).
        """
        result = yield from self.execute(InventoryAgent(), node,
                                         timeout=timeout)
        if not result.ok:
            return {"error": result.detail}
        stored: set[str] = set(result.detail["paths"])
        routed = {record.path for record in self.url_table.records()
                  if node in record.locations}
        summary: dict[str, list[str]] = {
            "rejoined": [], "purged": [], "dropped": [], "lost": []}
        for path in sorted(stored - routed):
            if path in self.url_table:
                self.wal_apply("route-add", path=path, node=node)
                self.url_table.add_location(path, node)
                if self.doctree.exists(path):
                    self.doctree.add_location(path, node)
                summary["rejoined"].append(path)
            else:
                yield from self.execute(DeleteAgent(path), node,
                                        timeout=timeout)
                summary["purged"].append(path)
        for path in sorted(routed - stored):
            locations = self.url_table.locations(path)
            if len(locations) > 1:
                self.wal_apply("route-drop", path=path, node=node)
                self.url_table.remove_location(path, node)
                if self.doctree.exists(path):
                    self.doctree.remove_location(path, node)
                summary["dropped"].append(path)
            else:
                self.wal_apply("route-remove", path=path)
                self.url_table.remove(path)
                if self.doctree.exists(path):
                    self.doctree.delete(path)
                summary["lost"].append(path)
        if any(summary.values()):
            self.log.append((self.sim.now, "reconcile", node,
                             ",".join(f"{k}={len(v)}"
                                      for k, v in sorted(summary.items()))))
        return summary

    def verify_placement(self, path: str) -> Generator:
        """Cross-check the URL table against every node's store."""
        record = self.url_table.lookup(path)
        inconsistencies = []
        for node in sorted(self.brokers):
            expected = node in record.locations
            result = yield from self.execute(
                VerifyAgent(path, expected_present=expected), node)
            if not result.detail["consistent"]:
                inconsistencies.append(node)
        return inconsistencies
