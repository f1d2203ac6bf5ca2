"""Run one workload once in this fresh process and print a JSON result.

    python3 perfbench/worker.py '{"workload": "static-partition",
                                  "seed": 42, "mode": "timed"}'

Modes:

``timed``   the fast path, untraced: host times and this process's peak
            RSS are what the benchmark reports;
``oracle``  the event-accurate path (``fast_path=False``), untimed: its
            digest is the reference the others must equal;
``traced``  the fast path with span wrappers around every layer's entry
            points, the passive ``KernelStats`` observer attached, and
            each layer's public counters read just before and just after
            the simulated run (outside the timed intervals);
            ``"spans": PATH`` writes the span dump there.

``run.py`` starts one worker per measurement, so module-level state (the
``HttpRequest`` id counter, interned strings, the allocator's high-water
mark) starts the same in every timed run.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

MODES = ("timed", "oracle", "traced")


def peak_rss_kb() -> int:
    """This process's own peak resident set (``VmHWM``), in KiB.

    ``getrusage``'s ``ru_maxrss`` would not do: after ``exec`` it starts
    at the parent's high-water mark, so it reports run.py's peak whenever
    that is the larger of the two.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_job(job: dict) -> dict:
    # imported here so that a checkout without the program fails in
    # run_job, with the import error on stderr
    from workloads import WORKLOADS, Stopwatch

    mode = job["mode"]
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; pick one of {MODES}")
    workload = WORKLOADS[job["workload"]]
    hook = recorder = uninstall = None
    if mode == "traced":
        import spans
        from counters import RunCounters
        hook = RunCounters()
        recorder = spans.SpanRecorder()
        uninstall = spans.install(recorder)
    watch = Stopwatch(on_run=hook)
    try:
        run = workload(job["seed"], mode != "oracle", watch,
                       kernel_stats=mode == "traced")
    finally:
        if uninstall is not None:
            uninstall()
    out = {
        "mode": mode,
        "setup_s": watch.setup_s,
        "sim_s": watch.sim_s,
        "completed": run.completed,
        "errors": run.errors,
        "digest": hashlib.sha256(run.digest.encode()).hexdigest(),
        "failed_checks": run.failed_checks,
        "peak_rss_kb": peak_rss_kb(),
        "extra": run.extra,
    }
    if recorder is not None:
        import spans
        from counters import derive
        out["raw_counters"] = hook.totals
        out["counters"] = derive(hook.totals)
        labels = spans.label_times(recorder)
        out["labels"] = labels
        out["layers"] = spans.layer_times(labels)
        out["spans"] = len(recorder)
        out["fast_path"] = run.fast_path
        if job.get("spans"):
            spans.dump(recorder, job["spans"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run_job(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
