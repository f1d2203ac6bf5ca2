"""Same-instant ties on the fast path, checked against the oracle.

The fast path's collapses (segmented holds, in-process serves, detached
teardown bursts) change how a wait is scheduled, never its order.  Ties
between events at one instant are where a wrong schedule shows, so these
cells and scenarios put contenders on exactly those instants and require
the fast path's observables to equal the event-accurate oracle's
(``fast_path=False``).
"""

import json

from repro.cluster import Cpu
from repro.experiments import ExperimentConfig, build_deployment
from repro.net import HttpRequest, Nic
from repro.sim import Simulator
from repro.workload import (WORKLOAD_A, Trace, TraceEntry, TraceReplayer,
                            WorkloadSpec)

#: the §3.3 hot-spot request stream (Zipf alpha 1.30 over 3000 objects) on
#: a plain partition-ca cell: at seed 2 a contender asks for the front-end
#: CPU exactly at the boundary of a route's segmented parse+lookup hold
HOTSPOT = WorkloadSpec(name="hotspot",
                       catalog_mix=WORKLOAD_A.catalog_mix,
                       request_mix=WORKLOAD_A.request_mix,
                       zipf_alpha=1.30, n_objects=3000)


def hotspot_summary(fast_path: bool, seed: int) -> str:
    """The hot-spot cell's summary (``make oracle-seeds`` runs seeds 0-9)."""
    config = ExperimentConfig(scheme="partition-ca", workload=HOTSPOT,
                              seed=seed, duration=6.0, warmup=2.0,
                              n_client_machines=24, prewarm=True,
                              fast_path=fast_path)
    summary = build_deployment(config).run(60)
    return json.dumps(summary, sort_keys=True, default=repr)


def test_hotspot_cell_fast_summary_equals_oracle():
    assert hotspot_summary(True, 2) == hotspot_summary(False, 2)


# -- sites that replace a process spawn with work done in place -------------

def _deployment(fast_path: bool):
    config = ExperimentConfig(scheme="partition-ca", workload=WORKLOAD_A,
                              seed=1, duration=2.0, warmup=0.5,
                              n_objects=120, n_client_machines=2,
                              prewarm=True, fast_path=fast_path)
    return build_deployment(config)


def _static_item(server):
    return next(item for item in sorted(server.store, key=lambda i: i.path)
                if not item.ctype.is_dynamic and item.path in server.cache)


def _teardown_scenario(fast_path: bool):
    sim = Simulator(fast_path=fast_path)
    cpu = Cpu(sim, 350.0, name="fe")
    log = []

    def finishing_request():
        yield sim.timeout(0.25)
        # the response is out: fire the FIN-handling burst and return
        cpu.run_detached(0.125)
        log.append(("finished", sim.now))

    def new_connection():
        # woken at the same instant, queued behind the finishing request
        yield sim.timeout(0.25)
        yield from cpu.run(0.0625)
        log.append(("set-up", sim.now))

    sim.process(finishing_request())
    sim.process(new_connection())
    sim.run()
    core = cpu._core
    return (log, cpu.busy_seconds, cpu.bursts, core.total_wait_time,
            core.utilization())


def test_detached_teardown_waits_for_same_instant_setup():
    oracle = _teardown_scenario(False)
    assert _teardown_scenario(True) == oracle
    # the set-up burst was queued first, so it takes the idle core first
    assert dict(oracle[0])["set-up"] == 0.25 + 0.0625


def _backend_serve_scenario(fast_path: bool):
    deployment = _deployment(fast_path)
    sim, frontend = deployment.sim, deployment.frontend
    server = deployment.servers[sorted(deployment.servers)[0]]
    item = _static_item(server)
    log = []

    def spliced():
        yield sim.timeout(0.25)
        response = yield from frontend._backend_serve(
            server, HttpRequest(item.path, client_id="a"), item)
        log.append(("spliced", sim.now, response.service_time))

    def contender():
        # woken at the same instant, queued behind the spliced request
        yield sim.timeout(0.25)
        response = yield from server.serve(
            HttpRequest(item.path, client_id="b"), item)
        log.append(("contender", sim.now, response.service_time))

    sim.process(spliced())
    sim.process(contender())
    sim.run(until=1.0)
    return (log, server.cpu.busy_seconds, server.cpu.utilization(),
            server.cache.hits, server.completed_requests)


def test_in_process_backend_serve_starts_where_a_spawned_serve_would():
    oracle = _backend_serve_scenario(False)
    assert _backend_serve_scenario(True) == oracle
    # a spawned serve starts after the contender queued at that instant
    assert [entry[0] for entry in oracle[0]] == ["contender", "spliced"]


def _replay_scenario(fast_path: bool):
    deployment = _deployment(fast_path)
    sim, frontend = deployment.sim, deployment.frontend
    item = _static_item(deployment.servers[sorted(deployment.servers)[0]])
    replayer = TraceReplayer(sim, frontend.submit,
                             Trace([TraceEntry(at=0.25, url=item.path)]))
    other = Nic(sim, 100.0, name="other.nic")
    log = []

    def contender():
        # woken at the arrival instant, then once more at that instant:
        # its transfer into the front end is queued before a spawned
        # submit's first step
        yield sim.timeout(0.25)
        yield sim.timeout(0.0)
        yield from deployment.lan.transfer(other, frontend.nic, 64_000)
        log.append(("contender", sim.now))

    sim.process(contender())
    sim.run(until=1.0)
    return (log, replayer.summary(1.0), frontend.nic.rx.total_wait_time)


def test_in_process_trace_submit_starts_where_a_spawned_submit_would():
    oracle = _replay_scenario(False)
    assert _replay_scenario(True) == oracle
    # the contender's transfer got the front end's receiver first
    assert oracle[2] > 0
