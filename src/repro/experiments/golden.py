"""Golden-metrics regression harness.

A reduced-scale run of the paper's headline experiments (Figures 2 and 3
plus the §5.2 URL-table overhead) collapsed into one JSON-serialisable
dict.  The numbers are fully deterministic -- the simulator is seeded and
single-threaded -- so the fixture comparison is *exact*: any drift means
model behaviour changed, and the readable diff says exactly which series
moved and by how much.

Wall-clock quantities (the §5.2 ``mean_lookup_us``) are deliberately
excluded: they measure the host, not the model.
"""

from __future__ import annotations

from .figures import figure2, figure3, url_table_overhead

__all__ = ["collect_golden_metrics", "diff_metrics", "GOLDEN_SCALE",
           "GOLDEN_OVERLOAD_SCALE"]

#: The reduced scale the golden fixture is captured at.  Small enough for
#: tier-1 (a few seconds), large enough that every scheme serves real
#: traffic through warmup + measurement windows.
GOLDEN_SCALE = {"clients": (8, 16), "duration": 3.0, "warmup": 1.0,
                "seed": 42, "n_objects": 2000, "lookups": 4000}

#: A reduced overload episode (flash crowd + slow disk against the
#: protected data plane) pinning the shed / breaker counters exactly.
GOLDEN_OVERLOAD_SCALE = {"seed": 11, "duration": 5.0, "clients": 10,
                         "n_objects": 200, "settle": 2.0}


def collect_golden_metrics() -> dict:
    """Run the reduced-scale experiments and return the golden dict."""
    scale = GOLDEN_SCALE
    f2 = figure2(clients=scale["clients"], duration=scale["duration"],
                 warmup=scale["warmup"], seed=scale["seed"])
    f3 = figure3(clients=scale["clients"], duration=scale["duration"],
                 warmup=scale["warmup"], seed=scale["seed"])
    overhead = url_table_overhead(n_objects=scale["n_objects"],
                                  lookups=scale["lookups"],
                                  seed=scale["seed"])
    import hashlib

    from ..obs import TraceSummary, telemetry_to_jsonl
    from .chaos import run_overload_episode
    # the overload episode runs traced AND telemetry-sampled: because
    # both observers are passive, the overload counters must match a
    # bare run exactly -- the fixture itself pins the zero-perturbation
    # contract -- and the span/window counts become the trace_summary /
    # telemetry_summary golden surfaces.  The telemetry windows count
    # scheduled kernel events, which the fast path's collapses change, so
    # this episode runs on the event-accurate oracle.
    ovl = run_overload_episode(**GOLDEN_OVERLOAD_SCALE, trace=True,
                               telemetry=0.5, fast_path=False)
    tel = ovl.telemetry.summary()
    return {
        "scale": {"clients": list(scale["clients"]),
                  "duration": scale["duration"],
                  "warmup": scale["warmup"],
                  "seed": scale["seed"]},
        "figure2": {
            "clients": f2["clients"],
            "series": {scheme: [round(v, 4) for v in values]
                       for scheme, values in sorted(f2["series"].items())},
        },
        "figure3": {
            "clients": f3["clients"],
            "series": {scheme: [round(v, 4) for v in values]
                       for scheme, values in sorted(f3["series"].items())},
        },
        "url_table": {
            "n_objects": overhead["n_objects"],
            "memory_bytes": overhead["memory_bytes"],
            # deterministic cache behaviour; mean_lookup_us is wall clock
            # and intentionally NOT part of the golden surface
            "cache_hit_rate": round(overhead["cache_hit_rate"], 6),
        },
        "overload": {
            "scale": dict(GOLDEN_OVERLOAD_SCALE),
            "completed": ovl.completed,
            "errors": ovl.errors,
            "shed": ovl.shed,
            "degraded": ovl.degraded,
            "timeouts": ovl.timeouts,
            "replica_retries": ovl.replica_retries,
            "breaker_opened": ovl.breaker_opened,
            "breaker_reclosed": ovl.breaker_reclosed,
            "peak_inflight": ovl.admission_peak_inflight,
            "peak_queue": ovl.admission_peak_queue,
            "survived": ovl.survived,
        },
        "trace_summary": TraceSummary.from_tracer(ovl.tracer).counts(),
        "telemetry_summary": {
            "windows": tel["windows"],
            "events_total": tel["events_total"],
            "peak_events_per_sec": round(tel["peak_events_per_sec"], 4),
            "totals": {k: tel["totals"][k] for k in sorted(tel["totals"])},
            # the sim-domain JSONL export is byte-deterministic; pinning
            # its digest pins every window record at once
            "jsonl_sha256": hashlib.sha256(
                telemetry_to_jsonl(ovl.telemetry).encode()).hexdigest(),
            "slo": [{"name": r["name"], "ok": r["ok"]}
                    for r in ovl.slo_results],
        },
    }


def diff_metrics(expected, actual, path: str = "") -> list[str]:
    """Readable recursive diff: one ``path: expected -> actual`` line per
    divergence (missing keys, extra keys, length or value mismatches)."""
    lines: list[str] = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(expected.keys() | actual.keys()):
            sub = f"{path}.{key}" if path else str(key)
            if key not in actual:
                lines.append(f"{sub}: missing from actual "
                             f"(expected {expected[key]!r})")
            elif key not in expected:
                lines.append(f"{sub}: unexpected key "
                             f"(actual {actual[key]!r})")
            else:
                lines.extend(diff_metrics(expected[key], actual[key], sub))
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            lines.append(f"{path}: length {len(expected)} -> {len(actual)}")
        for i, (e, a) in enumerate(zip(expected, actual)):
            lines.extend(diff_metrics(e, a, f"{path}[{i}]"))
    elif expected != actual:
        if (isinstance(expected, (int, float)) and
                isinstance(actual, (int, float)) and expected):
            drift = (actual - expected) / expected * 100.0
            lines.append(f"{path}: {expected!r} -> {actual!r} "
                         f"({drift:+.2f}%)")
        else:
            lines.append(f"{path}: {expected!r} -> {actual!r}")
    return lines
