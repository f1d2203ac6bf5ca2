"""The benchmark workloads, each run once per worker process.

Every workload is a function ``(seed, fast_path, watch, kernel_stats) ->
Run``.  It builds its inputs from ``seed`` alone, marks set-up and the
simulated run on ``watch`` (a :class:`Stopwatch`), and returns the
simulated digest the correctness checks compare.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Any, Callable, Optional

from repro.core import AutoReplicator, LoadAccountant
from repro.experiments import ExperimentConfig, testbed
from repro.experiments.bench import run_openloop_splice
from repro.mgmt import Broker, Controller
from repro.mgmt.durability import ControllerDurability
from repro.sim import Simulator
from repro.workload import WORKLOAD_A, WORKLOAD_B, WorkloadSpec

#: Closed-loop cells: 120 WebBench clients (think time 0) over 24 client
#: machines, prewarmed caches, as in the paper's Figure 2/4 testbed.
CELL_CLIENTS = 120
CELL_MACHINES = 24
CELL_DURATION = 8.0
CELL_WARMUP = 2.0

#: The Figure 4 pair runs long enough for per-class rates to settle.
FIG4_DURATION = 6.0
FIG4_WARMUP = 2.0
#: The paper's Figure 4 gains (CGI / ASP / static), in percent.
FIG4_PAPER_GAINS = {"cgi": 45.0, "asp": 42.0, "static": 58.0}

#: The §3.3 hot-spot set-up of benchmarks/test_autoreplication.py.
HOTSPOT = WorkloadSpec(
    name="hotspot",
    catalog_mix=WORKLOAD_A.catalog_mix,
    request_mix=WORKLOAD_A.request_mix,
    zipf_alpha=1.30,
    n_objects=3000,
)
HOTSPOT_CLIENTS = 60
HOTSPOT_DURATION = 8.0
HOTSPOT_WARMUP = 2.0

#: The open-loop splice stream: Poisson arrivals at a fixed simulated rate.
SPLICE_RATE = 600.0
SPLICE_DURATION = 4.0
SPLICE_PREFORK = 8


class Stopwatch:
    """Host seconds spent in set-up and in simulated runs.

    A workload may set up and run more than once (the Figure 4 pair); the
    times add up.  ``on_run`` is called just before each run starts and
    just after it ends, outside the timed intervals.
    """

    def __init__(self, on_run: Optional[Callable[[str], None]] = None):
        self.on_run = on_run
        self.setup_s = 0.0
        self.sim_s = 0.0
        self._t = 0.0

    def start_setup(self) -> None:
        self._t = time.perf_counter()

    def end_setup(self) -> None:
        self.setup_s += time.perf_counter() - self._t

    def start_run(self) -> None:
        if self.on_run is not None:
            self.on_run("start")
        self._t = time.perf_counter()

    def end_run(self) -> None:
        self.sim_s += time.perf_counter() - self._t
        if self.on_run is not None:
            self.on_run("end")


@dataclasses.dataclass
class Run:
    """One workload execution: request counts, digest, checks."""

    completed: int
    errors: int
    digest: str
    #: names of the correctness checks this run failed (empty when correct)
    failed_checks: list[str]
    #: KernelStats fast-path decisions per layer, when it was attached
    fast_path: dict[str, dict[str, int]] = dataclasses.field(
        default_factory=dict)
    #: workload-specific results reported beside the metrics
    extra: dict[str, Any] = dataclasses.field(default_factory=dict)


def _cell_config(scheme: str, workload: WorkloadSpec, seed: int,
                 fast_path: bool, duration: float, warmup: float,
                 kernel_stats: bool) -> ExperimentConfig:
    return ExperimentConfig(scheme=scheme, workload=workload, seed=seed,
                            duration=duration, warmup=warmup,
                            n_client_machines=CELL_MACHINES, prewarm=True,
                            fast_path=fast_path, kernel_stats=kernel_stats)


def _client_totals(deployment) -> tuple[int, int]:
    """All-time (warm-up included) client completions and errors."""
    completed = sum(c.stats.completed for c in deployment.rig.clients)
    return completed, deployment.rig.errors


def _summary_digest(summary: dict) -> str:
    summary = dict(summary)
    # observability keys are additive; the digest covers simulated
    # observables only, so a probed run must equal a plain one
    summary.pop("kernel_stats", None)
    summary.pop("telemetry", None)
    return json.dumps(summary, sort_keys=True, default=repr)


def _run_cell(config: ExperimentConfig, clients: int, watch: Stopwatch):
    watch.start_setup()
    deployment = testbed.build_deployment(config)
    watch.end_setup()
    watch.start_run()
    summary = deployment.run(clients)
    watch.end_run()
    return deployment, summary


def _closed_cell(scheme: str, workload: WorkloadSpec, seed: int,
                 fast_path: bool, watch: Stopwatch,
                 kernel_stats: bool) -> Run:
    config = _cell_config(scheme, workload, seed, fast_path,
                          CELL_DURATION, CELL_WARMUP, kernel_stats)
    deployment, summary = _run_cell(config, CELL_CLIENTS, watch)
    completed, errors = _client_totals(deployment)
    failed = [] if errors == 0 else [f"{errors} client errors"]
    return Run(completed, errors, _summary_digest(summary), failed,
               fast_path=_fast_path([summary.get("kernel_stats")]))


def static_partition(seed: int, fast_path: bool, watch: Stopwatch,
                     kernel_stats: bool = False) -> Run:
    return _closed_cell("partition-ca", WORKLOAD_A, seed, fast_path, watch,
                        kernel_stats)


def dynamic_replication(seed: int, fast_path: bool, watch: Stopwatch,
                        kernel_stats: bool = False) -> Run:
    return _closed_cell("replication-l4", WORKLOAD_B, seed, fast_path, watch,
                        kernel_stats)


def _fig4_classes(summary: dict) -> dict[str, float]:
    """Per-class throughput, grouped as ``figures.figure4`` groups it."""
    by_class = summary["by_class"]
    return {"cgi": by_class.get("cgi", 0.0),
            "asp": by_class.get("asp", 0.0),
            "static": by_class.get("html", 0.0) + by_class.get("image", 0.0)}


def dynamic_segregation(seed: int, fast_path: bool, watch: Stopwatch,
                        kernel_stats: bool = False) -> Run:
    completed = errors = 0
    digests = {}
    classes = {}
    summaries = []
    # both deployments stay alive until the end: a collected one would drop
    # out of the counter snapshots taken around the second run
    deployments = []
    for scheme in ("replication-l4", "partition-ca"):
        config = _cell_config(scheme, WORKLOAD_B, seed, fast_path,
                              FIG4_DURATION, FIG4_WARMUP, kernel_stats)
        deployment, summary = _run_cell(config, CELL_CLIENTS, watch)
        done, errs = _client_totals(deployment)
        completed += done
        errors += errs
        digests[scheme] = _summary_digest(summary)
        classes[scheme] = _fig4_classes(summary)
        deployments.append(deployment)
        summaries.append(summary)
    failed = [] if errors == 0 else [f"{errors} client errors"]
    gains = {}
    for klass, paper in FIG4_PAPER_GAINS.items():
        base = classes["replication-l4"][klass]
        segregated = classes["partition-ca"][klass]
        if base <= 0 or segregated < base:
            failed.append(f"fig4 {klass}: partition-ca {segregated:.1f} "
                          f"req/s below replication-l4 {base:.1f} req/s")
        gains[klass] = (segregated / base - 1.0) * 100.0 if base else 0.0
    gap = sum(abs(gains[k] - p) for k, p in FIG4_PAPER_GAINS.items()) / 3
    return Run(completed, errors, json.dumps(digests, sort_keys=True), failed,
               fast_path=_fast_path([s.get("kernel_stats")
                                     for s in summaries]),
               extra={"fig4_gain_pct": gains, "fig4_gain_gap_pp": gap})


def hotspot_replication(seed: int, fast_path: bool, watch: Stopwatch,
                        kernel_stats: bool = False) -> Run:
    config = _cell_config("partition-ca", HOTSPOT, seed, fast_path,
                          HOTSPOT_DURATION, HOTSPOT_WARMUP, kernel_stats)
    watch.start_setup()
    deployment = testbed.build_deployment(config)
    frontend = deployment.frontend
    accountant = LoadAccountant(
        {name: srv.spec.weight for name, srv in deployment.servers.items()})
    frontend.on_response = accountant.record
    controller = Controller(deployment.sim, frontend.nic,
                            deployment.url_table, deployment.doctree)
    durability = ControllerDurability().attach(controller)
    registry: dict[str, Broker] = {}
    for server in deployment.servers.values():
        controller.register_broker(Broker(deployment.sim, deployment.lan,
                                          server, frontend.nic, registry))
    replicator = AutoReplicator(
        deployment.sim, accountant, deployment.url_table, controller,
        interval=1.5, threshold=0.30, max_actions_per_interval=3)
    replicator.start()
    watch.end_setup()
    watch.start_run()
    summary = deployment.run(HOTSPOT_CLIENTS)
    watch.end_run()
    completed, errors = _client_totals(deployment)
    failed = [] if errors == 0 else [f"{errors} client errors"]
    if not replicator.history or durability.commits == 0:
        failed.append(f"no committed auto-replication action "
                      f"({len(replicator.history)} actions, "
                      f"{durability.commits} WAL commits)")
    observed = {
        "summary": json.loads(_summary_digest(summary)),
        "actions": [[a.at, a.kind, a.path, a.node]
                    for a in replicator.history],
        "wal": durability.counters(),
        "url_table_version": deployment.url_table.version,
        "served": {n: s.completed_requests
                   for n, s in sorted(deployment.servers.items())},
    }
    return Run(completed, errors,
               json.dumps(observed, sort_keys=True, default=repr), failed,
               fast_path=_fast_path([summary.get("kernel_stats")]),
               extra={"actions": len(replicator.history)})


def splice_openloop(seed: int, fast_path: bool, watch: Stopwatch,
                    kernel_stats: bool = False) -> Run:
    # run_openloop_splice builds the hosts and the distributor, preforks
    # its pool legs with a first run(), then drives the stream with a
    # second run(): set-up ends when the first returns.
    original = Simulator.run
    calls = []

    def marked_run(self, until=None):
        calls.append(until)
        if len(calls) == 1:
            original(self, until)
            watch.end_setup()
        else:
            watch.start_run()
            original(self, until)
            watch.end_run()

    stats = None
    if kernel_stats:
        from repro.obs import KernelStats
        stats = KernelStats()
    Simulator.run = marked_run
    try:
        watch.start_setup()
        try:
            result = run_openloop_splice(rate=SPLICE_RATE,
                                         duration=SPLICE_DURATION, seed=seed,
                                         fast_path=fast_path,
                                         prefork=SPLICE_PREFORK,
                                         kernel_stats=stats)
        except RuntimeError as exc:    # completions != arrivals
            return Run(0, 1, "", [str(exc)])
    finally:
        Simulator.run = original
    return Run(result["requests"], 0, result["digest"], [],
               fast_path=_fast_path([stats.report() if stats else None]))


def _fast_path(reports: list[Optional[dict]]) -> dict[str, dict[str, int]]:
    """Sum the fast-path counters of KernelStats reports (None: absent)."""
    merged: dict[str, dict[str, int]] = {}
    for report in filter(None, reports):
        for layer, counts in report["fast_path"].items():
            entry = merged.setdefault(layer, {"hits": 0, "fallbacks": 0})
            entry["hits"] += counts["hits"]
            entry["fallbacks"] += counts["fallbacks"]
    return merged


WORKLOADS: dict[str, Callable[..., Run]] = {
    "static-partition": static_partition,
    "dynamic-replication": dynamic_replication,
    "dynamic-segregation": dynamic_segregation,
    "hotspot-replication": hotspot_replication,
    "splice-openloop": splice_openloop,
}
