"""The repository benchmark: one workload, timed, checked, optionally traced.

    python3 perfbench/run.py --workload static-partition --seed 42 \\
        --seconds 30 --trace 0

Every measurement runs in a fresh single-threaded worker process
(``worker.py``) on the kernel fast path, so each timed run's peak RSS is
its own.  With ``--trace 0`` workers are started one after another for
``--seconds`` of host time; the end-to-end metrics are medians over
them, with each worker's host times scaled to a reference host speed,
measured just before and just after the worker on a fixed loop of the
benchmark's own (the unscaled medians are printed too).  With
``--trace 1`` each round is an untraced timed worker, the baseline of
the tracing overhead, and a
traced worker that records spans around every layer's entry points and
reads the layers' public counters; the per-layer metrics are medians
over the rounds.  Either way one more worker reruns the workload on the
event-accurate path (``fast_path=False``), untimed, as the oracle.

Checks (any failure exits 1 and counts every request as failed):

* every fast-path digest equals the oracle's, and the traced digest
  equals the untraced one;
* the workload's own checks: no client errors in the closed-loop cells,
  completions equal arrivals on ``splice-openloop``, at least one
  committed auto-replication action on ``hotspot-replication``, and
  ``partition-ca`` at or above ``replication-l4`` on every Figure 4 class
  on ``dynamic-segregation``.

Each metric is printed as ``metric NAME = VALUE UNIT``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The benchmark writes files only where
``--out`` (the full result) and ``--spans`` (the span dump of the first
traced worker) name them.  The metric names and units are those of
``BENCHMARK.json`` at the repository root; ``metrics.json`` names and
describes each workload and predicts which end-to-end metric each layer
metric moves.  ``BENCHMARK.json`` lists only the workloads on which the
program passes every check on every seed tried; the others still run
here, with the same checks, and ``metrics.json`` names the seeds on which
they fail.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCHMARK = json.load(_fh)
with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as _fh:
    _DESCRIBED = json.load(_fh)
#: every workload the command runs; BENCHMARK.json lists the ones on which
#: the program passes every check, and metrics.json says why the others are
#: left out of it
WORKLOADS = tuple(_DESCRIBED["workloads"])
#: metric name -> unit, as BENCHMARK.json lists them
END_TO_END = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}

#: host seconds one :func:`reference_loop` call takes at the host speed
#: the reported host times are scaled to
REFERENCE_S = 0.05
#: entries of the reference loop's table: about 12 MB of dict entries,
#: tuples and ints, several times a 2 MB per-core L2 cache, as the
#: simulator's own heap is
REFERENCE_ENTRIES = 80_000
#: random reads one reference-loop call makes
REFERENCE_READS = 100_000

#: fewest timed workers a run reports on
MIN_TIMED = 3
#: one worker may not take longer than this (host seconds)
WORKER_TIMEOUT = 60

#: metric -> span label whose mean inclusive host time per call it is
NS_PER_CALL = {
    "core.url_table.host_ns_per_lookup": "core.url_table|UrlTable.lookup",
    "workload.sampler.host_ns_per_request":
        "workload.sampler|RequestSampler.request",
    "mgmt.durability.host_ns_per_append":
        "mgmt.durability|ControllerWal.append",
}
PLACEMENT_LABELS = ("setup|full_replication", "setup|partition_by_type",
                    "setup|apply_plan")


class BenchError(Exception):
    """The benchmark could not run (not a failed correctness check)."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        help=f"one of: {', '.join(WORKLOADS)}")
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed (inputs are a function of it)")
    parser.add_argument("--seconds", type=int,
                        default=_BENCHMARK["run_seconds"],
                        help="host seconds to spend measuring (default "
                             f"{_BENCHMARK['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--metrics", default="",
                        help="comma-separated subset of metrics to report")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--spans",
                        help="with --trace 1, write the span dump (JSON "
                             "lines) of the first traced worker here")
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick one of: {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    known = PER_LAYER if args.trace else END_TO_END
    wanted = [m for m in args.metrics.split(",") if m]
    unknown = [m for m in wanted if m not in known]
    if unknown:
        parser.error(f"unknown metric(s) {', '.join(unknown)} for "
                     f"--trace {args.trace}; pick from: {', '.join(known)}")
    args.metric_names = wanted or list(known)
    if args.spans and not args.trace:
        parser.error("--spans needs --trace 1")
    return args


def run_worker(job: dict) -> dict:
    """Run ``worker.py`` on ``job`` in a fresh process; return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {job} took over {WORKER_TIMEOUT} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {job} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(results: list[dict], oracle: dict) -> list[str]:
    """Every failed check over the workers' results."""
    problems = []
    for result in results:
        for failure in result["failed_checks"]:
            problems.append(f"{result['mode']} worker: {failure}")
        if result["digest"] != oracle["digest"]:
            problems.append(f"{result['mode']} worker digest "
                            f"{result['digest'][:16]} != oracle "
                            f"{oracle['digest'][:16]}")
    problems.extend(f"oracle worker: {f}" for f in oracle["failed_checks"])
    return list(dict.fromkeys(problems))


def repeat(job_of, seconds: float, least: int) -> list:
    """Call ``job_of()`` at least ``least`` times, then again while one
    more call (as long as the slowest so far) still ends within
    ``seconds`` of the start."""
    out = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(out) >= least and elapsed + longest > seconds:
            return out
        out.append(job_of())
        longest = max(longest, time.perf_counter() - start - elapsed)


def reference_loop(table: dict) -> float:
    """Host seconds of a fixed pure-Python loop of random reads in ``table``.

    It runs none of the program's code, so no change to the program can
    move it: its time tracks only how fast the host runs Python right
    now.  Its table is larger than a core's L2 cache, as the simulator's
    heap is.  On a shared 2-vCPU Xeon VM a loop with a small working set
    (a heap of 64 generators) sped up by 2x when the host did while the
    program sped up by only 1.7x, so host times scaled by it still
    drifted with the host.
    The cyclic garbage collector is off while it runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x, total, size = 12345, 0, len(table)
        for _ in range(REFERENCE_READS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += table[x % size][1]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_speed(result: dict) -> float:
    """How fast the host ran a timed worker, relative to the reference."""
    return REFERENCE_S / result["reference_s"]


def timed_metrics(args) -> tuple[dict, list[dict]]:
    table = {i: (i, 2 * i) for i in range(REFERENCE_ENTRIES)}

    def timed_worker() -> dict:
        before = reference_loop(table)
        result = run_worker({"workload": args.workload, "seed": args.seed,
                             "mode": "timed"})
        result["reference_s"] = (before + reference_loop(table)) / 2
        return result

    results = repeat(timed_worker, args.seconds, MIN_TIMED)
    # Each worker's host seconds are scaled by REFERENCE_S over the mean
    # reference-loop time just before and just after it: the shared host's
    # speed drifts by up to 2x within a run, and the scaling takes that
    # drift out of run-to-run comparisons.  The loop runs here, not in the
    # worker, so its table never counts in the worker's peak RSS.
    # Medians, not best-of-N: single workers now and then run much faster
    # than the rest, so the fastest worker of a run spreads more from run
    # to run than the median does.
    metrics = {
        "sim_req_per_host_s": statistics.median(
            r["completed"] / (r["sim_s"] * host_speed(r)) for r in results),
        "setup_s": statistics.median(r["setup_s"] * host_speed(r)
                                     for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0
                                         for r in results),
    }
    return metrics, results


def layer_metrics(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of one round, all read from the traced worker
    but ``trace.overhead_ratio``, which needs the untraced one."""
    metrics = dict(traced["counters"])
    labels, layers = traced["labels"], traced["layers"]
    for name in PER_LAYER:
        if name.endswith(".self_s"):    # the layer's span self time
            metrics[name] = layers[name.removesuffix(".self_s")]["self_s"]
    events = metrics["sim.engine.events"]
    metrics["sim.engine.host_ns_per_event"] = (
        layers["sim.engine"]["self_s"] / events * 1e9 if events else 0.0)
    for name, label in NS_PER_CALL.items():
        entry = labels[label]
        metrics[name] = (entry["total_s"] / entry["calls"] * 1e9
                         if entry["calls"] else 0.0)
    metrics["core.mapping_table.calls"] = \
        layers["core.mapping_table"]["calls"]
    metrics["core.frontend.requests"] = \
        labels["core.frontend|Frontend.submit"]["calls"]
    bursts = labels["net.tcp|TcpSocket.send_data"]["calls"]
    metrics["net.tcp.flow_forward_ratio"] = (
        traced["raw_counters"]["tcp_flow_forwards"] / bursts
        if bursts else 0.0)
    hits = traced["fast_path"].get("cache_hit", {"hits": 0, "fallbacks": 0})
    decisions = hits["hits"] + hits["fallbacks"]
    metrics["cluster.server.fast_forward_ratio"] = (
        hits["hits"] / decisions if decisions else 0.0)
    metrics["setup.catalog_s"] = labels["setup|generate_catalog"]["total_s"]
    metrics["setup.placement_s"] = sum(labels[label]["total_s"]
                                       for label in PLACEMENT_LABELS)
    metrics["trace.overhead_ratio"] = (
        (traced["setup_s"] + traced["sim_s"])
        / (untraced["setup_s"] + untraced["sim_s"]))
    return metrics


def traced_metrics(args) -> tuple[dict, list[dict], list[dict]]:
    job = {"workload": args.workload, "seed": args.seed}
    spans = os.path.abspath(args.spans) if args.spans else None

    def one_round() -> tuple[dict, dict]:
        nonlocal spans
        untraced = run_worker(dict(job, mode="timed"))
        traced = run_worker(dict(job, mode="traced", spans=spans))
        spans = None    # only the first traced worker dumps its spans
        return untraced, traced

    rounds = repeat(one_round, args.seconds, 1)
    per_round = [layer_metrics(u, t) for u, t in rounds]
    metrics = {name: statistics.median(r[name] for r in per_round)
               for name in PER_LAYER}
    results = [r for pair in rounds for r in pair]
    return metrics, results, rounds


def self_time_table(untraced: dict, traced: dict) -> str:
    """Each layer's span self time as a share of the traced host time."""
    host = traced["setup_s"] + traced["sim_s"]
    lines = [f"self time by layer (traced host time {host:.3f} s, "
             f"untraced {untraced['setup_s'] + untraced['sim_s']:.3f} s, "
             f"{traced['spans']} spans)",
             f"  {'layer':<20} {'self_s':>9} {'share':>7} {'spans':>8} "
             f"{'calls':>8}"]
    inside = 0.0
    for layer, entry in traced["layers"].items():
        inside += entry["self_s"]
        lines.append(f"  {layer:<20} {entry['self_s']:9.4f} "
                     f"{entry['self_s'] / host:7.1%} {entry['spans']:8d} "
                     f"{entry['calls']:8d}")
    lines.append(f"  {'(outside spans)':<20} {host - inside:9.4f} "
                 f"{(host - inside) / host:7.1%}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src')}"
              "; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, results, rounds = traced_metrics(args)
        else:
            metrics, results = timed_metrics(args)
        oracle = run_worker({"workload": args.workload, "seed": args.seed,
                             "mode": "oracle"})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    problems = check(results, oracle)
    attempted = max(1, results[0]["completed"] + results[0]["errors"])
    failed = attempted if problems else results[0]["errors"]
    units = PER_LAYER if args.trace else END_TO_END
    reported = {name: {"value": metrics[name], "unit": units[name]}
                for name in args.metric_names}

    if args.trace:
        print(self_time_table(*rounds[0]))
    for name, entry in reported.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        speeds = [host_speed(r) for r in results]
        rate = statistics.median(r["completed"] / r["sim_s"]
                                 for r in results)
        setup = statistics.median(r["setup_s"] for r in results)
        print(f"unscaled medians: sim_req_per_host_s {rate:.6g} 1/s, "
              f"setup_s {setup:.6g} s; host speed {min(speeds):.3f} to "
              f"{max(speeds):.3f} of the reference")
    print(f"metric error_ratio = {failed / attempted:.6g} ratio")
    extra = results[0]["extra"]
    if "fig4_gain_gap_pp" in extra:
        gains = extra["fig4_gain_pct"]
        print(f"metric fig4_gain_gap_pp = {extra['fig4_gain_gap_pp']:.6g} "
              f"pp (gains cgi {gains['cgi']:+.1f} %, asp "
              f"{gains['asp']:+.1f} %, static {gains['static']:+.1f} %; "
              f"paper +45/+42/+58 %)")
    print(f"workers: {len(results)} measured + 1 oracle; "
          f"{attempted} simulated requests per run")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    line = {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": reported}
    if args.out:
        full = dict(line, workload=args.workload, seed=args.seed,
                    trace=args.trace, error_ratio=failed / attempted,
                    extra=extra, problems=problems, workers=results,
                    oracle=oracle)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
