"""Wall-clock benchmark harness for the kernel fast path (DESIGN.md §11).

Every stage runs the same seeded workload twice -- once on the
segment/event-accurate path (``fast_path=False``) and once on the kernel
fast path -- measures wall-clock time and scheduled-event counts, and
compares a canonical digest of the simulated results.  The digest must be
byte-identical between the two runs: the fast path buys wall-clock time
only, never a different simulation.

Stages
------
``openloop_latency``
    An open-loop request stream through the *packet-level* splicing
    distributor (§2.2's mechanism).  Responses are MSS-fragmented, so the
    segment path pays ~4 scheduled events per 1460-byte fragment (data,
    pool-leg ACK, rewritten relay, client ACK) while the fast path
    collapses each burst into one aggregated exchange -- the flow-level
    splice fast-forward.  This is the stage the >=5x acceptance target
    applies to.
``fig2_workload_a`` / ``fig3_workload_b``
    One cell of the paper's Figure 2/3 sweeps on the request-level
    testbed (partition-ca scheme).  The fast path here is the synchronous
    resource-grant/pooled-timeout path; gains are bounded by model-layer
    work, so expect ~1.1-1.4x.
``overload_episode``
    The flash-crowd + slow-disk episode with overload control on.

Run via ``repro bench`` or ``make bench``; results land in
``BENCH_kernel.json`` (stable sorted-key schema, version 1).
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import time
import tracemalloc
from typing import Callable, Optional

from ..content import ContentItem, ContentType
from ..core import SplicingDistributor, UrlTable
from ..net import Address, Host, HttpRequest, HttpResponse, Network, TcpState
from ..obs import KernelStats, attribute_profile, peak_rss_kb
from ..sim import RngStream, Simulator
from ..workload import WORKLOAD_A, WORKLOAD_B
from .testbed import ExperimentConfig, build_deployment

__all__ = ["BENCH_STAGES", "SCALES", "run_stage", "run_bench",
           "render_bench", "run_openloop_splice", "TARGET_STAGE",
           "TARGET_SPEEDUP"]

#: the acceptance target: the open-loop latency workload must run at
#: least this much faster on the fast path than on the segment path
TARGET_STAGE = "openloop_latency"
TARGET_SPEEDUP = 5.0

#: static document mix for the open-loop splicer workload: mostly small
#: pages with a heavy tail of large transfers, so the segment path's
#: per-fragment cost dominates (weights sum to 1.0)
_OPENLOOP_DOCS = (
    ("/index.html", 4 * 1024, ContentType.HTML, 0.60),
    ("/img/banner.gif", 30 * 1024, ContentType.IMAGE, 0.25),
    ("/doc/manual.html", 120 * 1024, ContentType.HTML, 0.10),
    ("/pub/release.avi", 1024 * 1024, ContentType.VIDEO, 0.05),
)

SCALES: dict[str, dict] = {
    "quick": dict(rate=250.0, openloop_duration=1.0,
                  fig_clients=15, fig_duration=2.5, fig_warmup=1.0,
                  ovl_duration=3.0, ovl_clients=6, ovl_objects=150,
                  ovl_settle=1.5),
    "default": dict(rate=400.0, openloop_duration=2.0,
                    fig_clients=60, fig_duration=6.0, fig_warmup=2.0,
                    ovl_duration=5.0, ovl_clients=10, ovl_objects=200,
                    ovl_settle=2.0),
    "full": dict(rate=600.0, openloop_duration=4.0,
                 fig_clients=120, fig_duration=10.0, fig_warmup=3.0,
                 ovl_duration=6.0, ovl_clients=10, ovl_objects=300,
                 ovl_settle=2.5),
}


# -- the open-loop packet-level workload -----------------------------------

def _openloop_schedule(rate: float, duration: float,
                       seed: int) -> list[tuple[float, str]]:
    """Precompute (arrival time, url) pairs; identical for both paths."""
    rng = RngStream(seed, "bench/openloop")
    cumulative = []
    acc = 0.0
    for path, _, _, weight in _OPENLOOP_DOCS:
        acc += weight
        cumulative.append((acc, path))
    schedule = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            break
        draw = rng.random()
        url = next(path for edge, path in cumulative if draw <= edge)
        schedule.append((t, url))
    return schedule


def run_openloop_splice(rate: float = 400.0, duration: float = 2.0,
                        seed: int = 42, fast_path: bool = False,
                        prefork: int = 8, mss: int = 1460,
                        kernel_stats: Optional[KernelStats] = None) -> dict:
    """Drive an open-loop client fleet through the splicing distributor.

    Returns a result dict whose ``"digest"`` covers every simulated
    observable (completions, bytes, segment counts, relay counters, and
    the full per-request completion timeline) and must be byte-identical
    between the segment path and the fast path -- and between a plain run
    and one probed with ``kernel_stats``.
    """
    sim = Simulator(fast_path=fast_path)
    if kernel_stats is not None:
        kernel_stats.attach(sim)
    net = Network(sim)
    table = UrlTable()
    sizes = {}
    backends = {}
    for i, name in enumerate(("s1", "s2")):
        ip = f"10.0.1.{i + 1}"
        backends[name] = Address(ip, 80)
        host = Host(net, ip)

        def app(sock, _mss=mss):
            def loop():
                while sock.state in (TcpState.ESTABLISHED,
                                     TcpState.CLOSE_WAIT):
                    payload, _ = yield sock.recv()
                    response = HttpResponse(
                        request=payload,
                        content_length=sizes[payload.url],
                        served_by=sock.local.ip)
                    sock.send_data(response, response.wire_bytes, mss=_mss)

            sim.process(loop())

        host.listen(80, app)
    for i, (path, nbytes, ctype, _) in enumerate(_OPENLOOP_DOCS):
        sizes[path] = nbytes
        owner = ("s1", "s2")[i % 2]
        table.insert(ContentItem(path, nbytes, ctype), {owner})

    dist = SplicingDistributor(sim, net, table, backends, prefork=prefork)
    ready = []
    dist.prefork_all().add_callback(lambda ev: ready.append(True))
    sim.run(until=0.05)
    assert ready, "prefork legs did not establish"
    base_events = sim.event_count
    base_segments = net.segments_sent

    client = Host(net, "10.0.9.1")
    vip = Address("10.0.0.100", 80)
    completions: list[tuple[float, int]] = []

    def one_request(url):
        sock = client.socket()
        yield sock.connect(vip)
        request = HttpRequest(url)
        sock.send(request, request.wire_bytes)
        received = 0
        payload = None
        while payload is None:          # last fragment carries the message
            payload, nbytes = yield sock.recv()
            received += nbytes
        completions.append((sim.now, received))
        yield sock.close()

    schedule = _openloop_schedule(rate, duration, seed)

    def driver():
        now = 0.0
        for t, url in schedule:
            if t > now:
                yield sim.timeout(t - now)
                now = t
            sim.process(one_request(url))

    start_time = sim.now
    wall = time.perf_counter()           # det: allow[wall-clock] -- bench
    sim.process(driver())
    sim.run(until=start_time + duration + 1.0)
    wall = time.perf_counter() - wall    # det: allow[wall-clock] -- bench
    if len(completions) != len(schedule):
        raise RuntimeError(f"openloop bench: {len(schedule)} arrivals but "
                           f"{len(completions)} completions")

    timeline = hashlib.sha256(
        json.dumps(completions).encode()).hexdigest()
    observed = {
        "completed": len(completions),
        "bytes_received": sum(n for _, n in completions),
        "segments_sent": net.segments_sent - base_segments,
        "relayed_to_server": dist.relayed_to_server,
        "relayed_to_client": dist.relayed_to_client,
        "mapping_open": len(dist.mapping),
        "idle_legs": {b: dist.idle_legs(b) for b in sorted(backends)},
        "completion_timeline_sha256": timeline,
    }
    return {
        "digest": json.dumps(observed, sort_keys=True),
        "wall_s": wall,
        "events": sim.event_count - base_events,
        "requests": len(completions),
        "sim_seconds": duration,
        "flow_forwards": net.flow_forwards,
    }


# -- request-level stages ---------------------------------------------------

def _run_cell(workload, clients: int, duration: float, warmup: float,
              seed: int, fast_path: bool,
              kernel_stats: bool = False) -> dict:
    config = ExperimentConfig(scheme="partition-ca", workload=workload,
                              duration=duration, warmup=warmup, seed=seed,
                              fast_path=fast_path, kernel_stats=kernel_stats)
    deployment = build_deployment(config)
    wall = time.perf_counter()           # det: allow[wall-clock] -- bench
    summary = deployment.run(clients)
    wall = time.perf_counter() - wall    # det: allow[wall-clock] -- bench
    # observability summaries are additive keys; strip them so the digest
    # compares only simulated observables (probe run == plain run)
    stats = summary.pop("kernel_stats", None)
    summary.pop("telemetry", None)
    out = {
        "digest": json.dumps(summary, sort_keys=True, default=repr),
        "wall_s": wall,
        "events": deployment.sim.event_count,
        "requests": summary["completed"],
        "sim_seconds": duration,
    }
    if stats is not None:
        out["kernel_stats"] = stats
    return out


def _run_overload(scale: dict, seed: int, fast_path: bool,
                  kernel_stats: bool = False) -> dict:
    # local import: repro.experiments.chaos pulls in the chaos harness
    from .chaos import run_overload_episode
    wall = time.perf_counter()           # det: allow[wall-clock] -- bench
    result = run_overload_episode(
        seed=seed, duration=scale["ovl_duration"],
        clients=scale["ovl_clients"], n_objects=scale["ovl_objects"],
        settle=scale["ovl_settle"], fast_path=fast_path,
        kernel_stats=kernel_stats)
    wall = time.perf_counter() - wall    # det: allow[wall-clock] -- bench
    out = {
        "digest": result.report(),
        "wall_s": wall,
        "events": result.events,
        "requests": result.completed,
        "sim_seconds": scale["ovl_duration"] + scale["ovl_settle"],
    }
    if result.kernel_stats is not None:
        out["kernel_stats"] = result.kernel_stats
    return out


def _stage_openloop(scale, seed, fast_path, kernel_stats=False):
    ks = KernelStats(callsites=True) if kernel_stats else None
    out = run_openloop_splice(rate=scale["rate"],
                              duration=scale["openloop_duration"],
                              seed=seed, fast_path=fast_path,
                              kernel_stats=ks)
    if ks is not None:
        out["kernel_stats"] = ks.report(top=8)
    return out


def _stage_fig2(scale, seed, fast_path, kernel_stats=False):
    return _run_cell(WORKLOAD_A, scale["fig_clients"],
                     scale["fig_duration"], scale["fig_warmup"],
                     seed, fast_path, kernel_stats=kernel_stats)


def _stage_fig3(scale, seed, fast_path, kernel_stats=False):
    return _run_cell(WORKLOAD_B, scale["fig_clients"],
                     scale["fig_duration"], scale["fig_warmup"],
                     seed, fast_path, kernel_stats=kernel_stats)


def _stage_overload(scale, seed, fast_path, kernel_stats=False):
    return _run_overload(scale, seed, fast_path, kernel_stats=kernel_stats)


BENCH_STAGES: dict[str, Callable] = {
    "openloop_latency": _stage_openloop,
    "fig2_workload_a": _stage_fig2,
    "fig3_workload_b": _stage_fig3,
    "overload_episode": _stage_overload,
}


# -- harness ---------------------------------------------------------------

def run_stage(name: str, scale: dict, seed: int) -> dict:
    """Run one stage on both paths; return its BENCH_kernel.json entry.

    A third *probe* run repeats the fast path with scheduler introspection
    (:class:`~repro.obs.telemetry.KernelStats`) attached; its digest must
    match the timed fast run -- the instrumentation's zero-perturbation
    contract, folded into ``identical`` -- and it supplies the per-stage
    event-class/callsite attribution and heap high-water.

    Memory: ``traced_peak_kb`` is the :mod:`tracemalloc` peak of the probe
    run alone, so it is this stage's own; the timed runs stay untraced.
    ``peak_rss_kb`` is ``getrusage``'s high-water mark for the whole
    process, so every stage after the largest repeats it.
    """
    fn = BENCH_STAGES[name]
    segment = fn(scale, seed, False)
    fast = fn(scale, seed, True)
    tracemalloc.start()
    try:
        probe = fn(scale, seed, True, kernel_stats=True)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    wall_seg, wall_fast = segment["wall_s"], fast["wall_s"]
    stats = probe["kernel_stats"]
    return {
        "events": {"fast": fast["events"], "segment": segment["events"]},
        "events_per_sec": {
            "fast": round(fast["events"] / wall_fast, 1),
            "segment": round(segment["events"] / wall_seg, 1)},
        "heap_high_water": stats["heap_high_water"],
        "identical": (segment["digest"] == fast["digest"]
                      and probe["digest"] == fast["digest"]),
        "kernel_stats": stats,
        "peak_rss_kb": peak_rss_kb(),
        "requests": segment["requests"],
        "sim_requests_per_sec": {
            "fast": round(fast["requests"] / wall_fast, 1),
            "segment": round(segment["requests"] / wall_seg, 1)},
        "sim_seconds": segment["sim_seconds"],
        "speedup": round(wall_seg / wall_fast, 2),
        "traced_peak_kb": traced_peak // 1024,
        "wall_s": {"fast": round(wall_fast, 4),
                   "segment": round(wall_seg, 4)},
    }


def run_bench(stages: Optional[list[str]] = None, scale: str = "default",
              seed: int = 42,
              profile: Optional[str] = None) -> dict:
    """Run the benchmark; return the BENCH_kernel.json payload.

    With ``profile`` set, the slowest stage (by segment-path wall time) is
    re-run on the fast path under :mod:`cProfile`; the pstats dump is
    written to that file and the payload gains a ``profile`` section with
    per-subsystem time attribution (sim kernel / net / splicer / cluster /
    obs / ...) -- the starting point for the next optimization round.
    """
    if stages is None:
        stages = list(BENCH_STAGES)
    unknown = [s for s in stages if s not in BENCH_STAGES]
    if unknown:
        raise ValueError(f"unknown bench stages: {unknown}; "
                         f"pick from {sorted(BENCH_STAGES)}")
    params = SCALES[scale]
    results = {name: run_stage(name, params, seed) for name in stages}
    payload = {
        "schema_version": 1,
        "scale": scale,
        "seed": seed,
        "stages": results,
        "target": {
            "min_speedup": TARGET_SPEEDUP,
            "stage": TARGET_STAGE,
            # null when the target stage was not part of this run
            "met": (results[TARGET_STAGE]["speedup"] >= TARGET_SPEEDUP and
                    results[TARGET_STAGE]["identical"])
            if TARGET_STAGE in results else None,
        },
    }
    if profile:
        slowest = max(results, key=lambda n: results[n]["wall_s"]["segment"])
        profiler = cProfile.Profile()
        profiler.enable()
        BENCH_STAGES[slowest](params, seed, True)
        profiler.disable()
        profiler.dump_stats(profile)
        payload["profile"] = {"stage": slowest, "pstats": profile,
                              "attribution": attribute_profile(profiler)}
    payload["peak_rss_kb"] = peak_rss_kb()
    return payload


def render_bench(payload: dict) -> str:
    """Terminal table for ``repro bench``."""
    from .figures import render_table
    rows = []
    for name, stage in payload["stages"].items():
        rows.append([
            name,
            stage["wall_s"]["segment"],
            stage["wall_s"]["fast"],
            f"{stage['speedup']:.2f}x",
            f"{stage['events']['segment']}/{stage['events']['fast']}",
            "yes" if stage["identical"] else "NO",
        ])
    table = render_table(
        f"Kernel fast path vs segment path (scale={payload['scale']}, "
        f"seed={payload['seed']})",
        ["stage", "segment s", "fast s", "speedup", "events seg/fast",
         "identical"],
        rows)
    target = payload["target"]
    if target["met"] is None:
        verdict = "not run (stage skipped)"
    else:
        verdict = "MET" if target["met"] else "NOT MET"
    return (f"{table}\n\ntarget: >= {target['min_speedup']:.0f}x on "
            f"{target['stage']} (fast path vs segment path) -- {verdict}")
