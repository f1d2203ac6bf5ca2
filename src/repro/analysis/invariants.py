"""Runtime invariant verifier: URL-table / catalog / store coherence.

The distributor's routing directory (the URL table), the controller's
catalog, and the backends' physical stores describe the same reality from
three angles; replica-management work treats their coherence as a
first-class invariant, not a convention.  This pass checks, on live
objects:

* **INV001** every ``UrlRecord`` location names a known server;
* **INV002** every location actually holds the item's bytes (skipped in the
  shared-NFS configuration, where backends serve through the file server);
* **INV003** every item stored on a server is reachable through the URL
  table *and* routed to that server (no orphaned bytes);
* **INV004** no record has an empty location set (§1.2: every document is
  placed somewhere);
* **INV005** the table's entry count matches its record iteration;
* **INV006** every mapping-table entry in BOUND (or later, pre-delete)
  state holds a leased pre-forked connection;
* **INV007** connection-pool lease accounting balances: idle + busy =
  total, released <= acquired, total <= max_size, and the number of
  *leased* pooled connections (delivered to a holder, not yet released)
  equals the number of live mapping entries holding one.  ``busy_count``
  is deliberately not compared against the mapping table: a connection
  popped from the idle list rides a zero-delay event to its acquirer, so
  between two simulation events it can be busy-but-not-yet-leased;
* **INV008** every catalog item resolves through the URL table (when a
  catalog is supplied);
* **INV009** admission-control accounting balances (when the front end has
  overload control wired): ``inflight = admitted - released``, the live
  and peak inflight/queue figures never exceed the configured bounds, and
  ``submitted = admitted + shed + queued``;
* **INV010** every circuit breaker is in a declared state of the
  ``BREAKER_TRANSITIONS`` machine with probe accounting inside its bounds.

``install_invariants`` wires these checks into the simulation engine's
debug hook so they run periodically *during* a run and fail fast with
:class:`InvariantError` at the first incoherent state.
"""

from __future__ import annotations

from typing import Optional

from ..core.mapping_table import MappingState
from .violations import Violation, render_report

__all__ = ["InvariantError", "check_invariants", "verify_invariants",
           "install_invariants", "smoke_check"]


class InvariantError(AssertionError):
    """A runtime coherence invariant does not hold."""

    def __init__(self, violations: list[Violation], timeline: str = ""):
        report = render_report(violations)
        if timeline:
            report = f"{report}\n\n{timeline}"
        super().__init__(report)
        self.violations = violations
        #: flight-recorder dump (repro.obs) captured at the moment the
        #: invariant fired, when the deployment carried a tracer
        self.timeline = timeline


def _flag(out: list[Violation], rule: str, where: str, message: str) -> None:
    out.append(Violation(rule=rule, path=where, line=0, message=message,
                         pass_name="invariants"))


def check_invariants(url_table,
                     servers: Optional[dict] = None,
                     frontend=None,
                     nfs=None,
                     catalog=None) -> list[Violation]:
    """Run every applicable coherence check; returns the violations found.

    All arguments except ``url_table`` are optional so the verifier can be
    pointed at partial deployments (e.g. a bare table in a unit test).
    """
    out: list[Violation] = []

    # -- URL table <-> server stores (INV001-INV005) ----------------------
    count = 0
    routed: dict[str, set[str]] = {}
    for record in url_table.records():
        count += 1
        if not record.locations:
            _flag(out, "INV004", record.path, "record has no locations")
        for node in sorted(record.locations):
            routed.setdefault(node, set()).add(record.path)
            if servers is None:
                continue
            if node not in servers:
                _flag(out, "INV001", record.path,
                      f"location {node!r} is not a known server")
            elif nfs is None and not servers[node].holds(record.path):
                _flag(out, "INV002", record.path,
                      f"routed to {node} but {node} does not hold the bytes")
    if count != len(url_table):
        _flag(out, "INV005", "url-table",
              f"record iteration yields {count} entries but the table "
              f"reports {len(url_table)}")
    if servers is not None:
        for name in sorted(servers):
            server = servers[name]
            for path in sorted(server.store.paths()):
                if path not in routed.get(name, ()):  # orphaned bytes
                    _flag(out, "INV003", path,
                          f"stored on {name} but the URL table does not "
                          f"route it there")

    # -- catalog <-> URL table (INV008) ------------------------------------
    if catalog is not None:
        for item in catalog:
            if item.path not in url_table:
                _flag(out, "INV008", item.path,
                      "catalog item is not resolvable via the URL table")

    # -- mapping table and connection pools (INV006-INV007) ----------------
    if frontend is not None:
        mapping = getattr(frontend, "mapping", None)
        bound_entries = 0
        if mapping is not None:
            for entry in mapping.entries():
                if entry.state in (MappingState.BOUND,
                                   MappingState.FIN_RECEIVED,
                                   MappingState.HALF_CLOSED) and \
                        entry.pooled_conn is None and entry.backend:
                    _flag(out, "INV006", str(entry.client),
                          f"entry in {entry.state.value} bound to "
                          f"{entry.backend} without a pooled connection")
                if entry.pooled_conn is not None:
                    bound_entries += 1
        pools = getattr(frontend, "pools", None)
        if pools is not None:
            leased_total = 0
            for backend in sorted(pools.pools()):
                pool = pools.pools()[backend]
                where = f"pool:{backend}"
                if pool.idle_count + pool.busy_count != pool.total:
                    _flag(out, "INV007", where,
                          f"idle ({pool.idle_count}) + busy "
                          f"({pool.busy_count}) != total ({pool.total})")
                if pool.busy_count < 0:
                    _flag(out, "INV007", where,
                          f"negative busy count {pool.busy_count}")
                if pool.leased_count > pool.busy_count:
                    _flag(out, "INV007", where,
                          f"leased ({pool.leased_count}) exceeds busy "
                          f"({pool.busy_count})")
                if pool.released > pool.acquired:
                    _flag(out, "INV007", where,
                          f"released ({pool.released}) exceeds acquired "
                          f"({pool.acquired})")
                if pool.total > pool.max_size:
                    _flag(out, "INV007", where,
                          f"total ({pool.total}) exceeds max_size "
                          f"({pool.max_size})")
                leased_total += pool.leased_count
            if mapping is not None and leased_total != bound_entries:
                _flag(out, "INV007", "pools",
                      f"{leased_total} leased pooled connections but "
                      f"{bound_entries} mapping entries hold one")

    # -- overload control (INV009-INV010) ----------------------------------
    ctl = getattr(frontend, "overload", None) if frontend is not None \
        else None
    if ctl is not None:
        from ..core.overload import BREAKER_TRANSITIONS
        adm, cfg = ctl.admission, ctl.config
        where = "admission"
        if adm.inflight != adm.admitted - adm.released:
            _flag(out, "INV009", where,
                  f"inflight ({adm.inflight}) != admitted ({adm.admitted}) "
                  f"- released ({adm.released})")
        if not 0 <= adm.inflight <= cfg.max_inflight:
            _flag(out, "INV009", where,
                  f"inflight ({adm.inflight}) outside "
                  f"[0, {cfg.max_inflight}]")
        if adm.queued > cfg.max_queue:
            _flag(out, "INV009", where,
                  f"queued ({adm.queued}) exceeds max_queue "
                  f"({cfg.max_queue})")
        if adm.peak_inflight > cfg.max_inflight:
            _flag(out, "INV009", where,
                  f"peak inflight ({adm.peak_inflight}) exceeds "
                  f"max_inflight ({cfg.max_inflight})")
        if adm.peak_queue > cfg.max_queue:
            _flag(out, "INV009", where,
                  f"peak queue ({adm.peak_queue}) exceeds max_queue "
                  f"({cfg.max_queue})")
        if adm.submitted != adm.admitted + adm.shed + adm.queued:
            _flag(out, "INV009", where,
                  f"submitted ({adm.submitted}) != admitted "
                  f"({adm.admitted}) + shed ({adm.shed}) + queued "
                  f"({adm.queued})")
        for node, snap in sorted(ctl.breakers.snapshot().items()):
            breaker = ctl.breakers.breaker(node)
            where = f"breaker:{node}"
            if snap["state"] not in BREAKER_TRANSITIONS:
                _flag(out, "INV010", where,
                      f"undeclared breaker state {snap['state']!r}")
            if not 0 <= breaker.probes_in_flight <= \
                    cfg.breaker_probe_inflight:
                _flag(out, "INV010", where,
                      f"probes in flight ({breaker.probes_in_flight}) "
                      f"outside [0, {cfg.breaker_probe_inflight}]")
    return out


def verify_invariants(url_table, servers=None, frontend=None, nfs=None,
                      catalog=None) -> None:
    """Like :func:`check_invariants` but raises :class:`InvariantError`."""
    violations = check_invariants(url_table, servers=servers,
                                  frontend=frontend, nfs=nfs,
                                  catalog=catalog)
    if violations:
        raise InvariantError(violations)


def install_invariants(deployment, every: int = 200) -> None:
    """Register the coherence checks on a deployment's simulator.

    ``deployment`` is duck-typed (anything with ``sim``, ``url_table``,
    ``servers``, ``frontend``, optionally ``nfs``/``catalog`` -- i.e. a
    :class:`repro.experiments.testbed.Deployment`).  The checks then run
    every ``every`` simulation events and raise :class:`InvariantError`
    from :meth:`Simulator.run` at the first incoherent state.

    When the deployment's simulator carries a :class:`repro.obs.Tracer`,
    the raised error includes the flight recorder's timeline -- the last
    events that led up to the incoherent state.
    """
    def _check() -> None:
        try:
            verify_invariants(deployment.url_table,
                              servers=deployment.servers,
                              frontend=deployment.frontend,
                              nfs=getattr(deployment, "nfs", None),
                              catalog=getattr(deployment, "catalog", None))
        except InvariantError as err:
            tracer = deployment.sim.tracer
            if tracer is not None and not err.timeline:
                raise InvariantError(err.violations,
                                     timeline=tracer.recorder.render()) \
                    from None
            raise

    deployment.sim.add_invariant(_check, every=every)


def smoke_check(duration: float = 1.0, warmup: float = 0.25,
                n_clients: int = 4, n_objects: int = 80,
                seed: int = 42) -> list[Violation]:
    """Build a small partition-ca deployment with the debug hook enabled,
    drive it, and return any coherence violations (empty when healthy).

    This is the CLI's "invariants" pass: a live end-to-end exercise of the
    URL-table / store / pool coherence contract.
    """
    from ..experiments.testbed import ExperimentConfig, build_deployment
    from ..workload import WORKLOAD_A

    config = ExperimentConfig(scheme="partition-ca", workload=WORKLOAD_A,
                              duration=duration, warmup=warmup,
                              n_objects=n_objects, seed=seed,
                              n_client_machines=4,
                              debug_invariants=True)
    deployment = build_deployment(config)
    try:
        deployment.run(n_clients)
    except InvariantError as exc:
        return list(exc.violations)
    return check_invariants(deployment.url_table,
                            servers=deployment.servers,
                            frontend=deployment.frontend,
                            nfs=deployment.nfs,
                            catalog=deployment.catalog)
