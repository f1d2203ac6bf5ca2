"""Continuous telemetry: scheduler introspection + windowed time-series.

Two observers complement the per-request tracer:

``KernelStats``
    Scheduler introspection.  Installed via :meth:`KernelStats.attach`
    (``KernelStats().attach(sim)``), it counts scheduled / fired /
    cancelled events per event class, tracks the event-heap high-water
    mark and the hot-timeout pool recycling rate, and -- with
    ``callsites=True`` -- attributes every enqueue to the subsystem
    call site that scheduled it (a ``sys._getframe`` walk, so it costs
    real time and is off by default).  The fast-path layers (lan / cpu /
    disk) also report hit/fallback counts here.

``TelemetrySampler``
    A fixed-window time-series sampler.  It is driven from
    ``Simulator.step`` -- *never* by scheduled events -- so enabling it
    cannot change ``event_count`` or the timeline: a window closes when
    the first event fires at or after its edge (that event counts toward
    the next window).  Registered probes are read-only callables sampled
    at window close: gauges (instantaneous values such as utilization or
    breaker state) and cumulative sources (monotone counts such as
    completed requests, exported per window as deltas).

Both observers obey the zero-perturbation contract of the tracer: they
never create events, never mutate observed structures, and their
deterministic exports (sorted-key JSONL, Prometheus text format) are
byte-identical across runs and ``PYTHONHASHSEED`` values.  Host-side
quantities (peak RSS) are kept out of the deterministic exports and only
appear in human-facing renderings and bench reports.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .profile import classify_path, peak_rss_kb

__all__ = [
    "KernelStats",
    "TelemetryWindow",
    "TelemetrySampler",
    "telemetry_to_jsonl",
    "telemetry_to_prometheus",
    "render_top",
    "render_windows",
]


def _round(x: float) -> float:
    """Stabilize float formatting in exports (pure cosmetics: the values
    themselves are already deterministic)."""
    return round(x, 9)


def _is_engine_file(filename: str) -> bool:
    return filename.replace("\\", "/").endswith("repro/sim/engine.py")


_THIS_FILE = __file__


class KernelStats:
    """Passive scheduler introspection; see the module docstring.

    All counter structures are plain dicts keyed by event-class name,
    call-site label, or fast-path layer name -- reports iterate them
    sorted, so the output is hash-seed independent.
    """

    def __init__(self, callsites: bool = False):
        #: whether enqueues are attributed to their scheduling call site
        self.callsites_enabled = callsites
        self.scheduled: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        self.cancelled: dict[str, int] = {}
        self.callsites: dict[str, int] = {}
        self.heap_high_water = 0
        self.pool_hits = 0
        self.pool_misses = 0
        #: per-layer fast-path decisions: layer -> [hits, fallbacks]
        self.fast_path: dict[str, list[int]] = {}
        #: same-timestamp dispatch batches (calendar queue only)
        self.batches = 0
        self.batched_events = 0
        self.max_batch = 0

    def attach(self, sim: Any) -> "KernelStats":
        """Install as ``sim.kernel_stats``, before the run starts."""
        sim.kernel_stats = self
        return self

    # -- engine hooks (called from repro.sim.engine, duck-typed) ----------
    def on_scheduled(self, event: Any, heap_depth: int) -> None:
        name = type(event).__name__
        self.scheduled[name] = self.scheduled.get(name, 0) + 1
        if heap_depth > self.heap_high_water:
            self.heap_high_water = heap_depth
        if self.callsites_enabled:
            site = self._callsite()
            self.callsites[site] = self.callsites.get(site, 0) + 1

    def on_fired(self, event: Any) -> None:
        name = type(event).__name__
        self.fired[name] = self.fired.get(name, 0) + 1

    def on_cancelled(self, event: Any) -> None:
        name = type(event).__name__
        self.cancelled[name] = self.cancelled.get(name, 0) + 1

    def on_pool_recycle(self, hit: bool) -> None:
        if hit:
            self.pool_hits += 1
        else:
            self.pool_misses += 1

    def on_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_events += size
        if size > self.max_batch:
            self.max_batch = size

    def on_fast_path(self, layer: str, hit: bool) -> None:
        entry = self.fast_path.setdefault(layer, [0, 0])
        entry[0 if hit else 1] += 1

    # -- attribution ------------------------------------------------------
    def _callsite(self) -> str:
        """The nearest non-kernel frame that caused this enqueue.

        Engine-internal frames are skipped so a ``yield sim.timeout(...)``
        inside a subsystem generator is attributed to that generator, not
        to ``Timeout.__init__``.  Enqueues originating from the dispatch
        loop itself (process completions, immediate resumes) are labelled
        ``sim:engine.dispatch``.
        """
        frame = sys._getframe(1)
        while frame is not None:
            code = frame.f_code
            filename = code.co_filename
            if filename == _THIS_FILE:
                frame = frame.f_back
                continue
            if _is_engine_file(filename):
                if code.co_name in ("step", "run"):
                    return "sim:engine.dispatch"
                frame = frame.f_back
                continue
            leaf = filename.replace("\\", "/").rsplit("/", 1)[-1]
            stem = leaf[:-3] if leaf.endswith(".py") else leaf
            return f"{classify_path(filename)}:{stem}.{code.co_name}"
        return "sim:engine.dispatch"  # pragma: no cover - frame walk ended

    # -- reporting --------------------------------------------------------
    @property
    def recycle_rate(self) -> float:
        """Fraction of hot timeouts served from the recycling pool."""
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    @staticmethod
    def _top(table: dict[str, int], n: int) -> list[list]:
        ranked = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
        return [[name, count] for name, count in ranked[:n]]

    def report(self, top: int = 10) -> dict:
        """A JSON-ready summary: totals, top event classes / call sites,
        pool and fast-path efficiency.  Sorted everywhere."""
        out: dict[str, Any] = {
            "scheduled_total": sum(self.scheduled.values()),
            "fired_total": sum(self.fired.values()),
            "cancelled_total": sum(self.cancelled.values()),
            "heap_high_water": self.heap_high_water,
            "pool": {
                "hits": self.pool_hits,
                "misses": self.pool_misses,
                "recycle_rate": round(self.recycle_rate, 4),
            },
            "event_classes": self._top(self.scheduled, top),
            "batch_dispatch": {
                "batches": self.batches,
                "events": self.batched_events,
                "max": self.max_batch,
                "avg": round(self.batched_events / self.batches, 2)
                if self.batches else 0.0,
            },
            "fast_path": {
                layer: {"hits": counts[0], "fallbacks": counts[1]}
                for layer, counts in sorted(self.fast_path.items())
            },
        }
        if self.callsites_enabled:
            out["callsites"] = self._top(self.callsites, top)
        return out


@dataclass
class TelemetryWindow:
    """One closed sampling window ``[start, end)``."""

    index: int
    start: float
    end: float
    events: int
    gauges: dict[str, float]
    deltas: dict[str, float]
    #: host-side process high-water RSS at close (0 unless ``host_rss``);
    #: excluded from deterministic exports
    rss_kb: int = 0

    @property
    def span(self) -> float:
        return self.end - self.start

    @property
    def events_per_sec(self) -> float:
        # a finalize() tail can be zero-width up to float residue; a rate
        # over such a span is meaningless noise, so clamp it to zero
        return self.events / self.span if self.span > 1e-9 else 0.0

    def to_dict(self, include_host: bool = False) -> dict:
        out: dict[str, Any] = {
            "index": self.index,
            "start": _round(self.start),
            "end": _round(self.end),
            "events": self.events,
            "events_per_sec": _round(self.events_per_sec),
            "gauges": self.gauges,
            "deltas": self.deltas,
        }
        if include_host:
            out["rss_kb"] = self.rss_kb
        return out


class TelemetrySampler:
    """Fixed-window time-series over read-only probes (module docstring).

    The ring keeps the last ``ring`` windows; older windows are dropped
    (counted in ``dropped``) so a long run has bounded memory.  Summary
    totals are computed from the live cumulative sources, not the ring,
    so they cover the whole run even after windows age out.
    """

    def __init__(self, window: float = 0.5, ring: int = 256,
                 host_rss: bool = False):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        if ring < 1:
            raise ValueError(f"ring must be >= 1, got {ring!r}")
        self.window = window
        self.ring = ring
        self.host_rss = host_rss
        self.windows: list[TelemetryWindow] = []
        self.dropped = 0
        self.events_total = 0
        self._gauges: dict[str, Callable[[], float]] = {}
        self._cums: dict[str, Callable[[], float]] = {}
        self._base: dict[str, float] = {}
        self._initial: dict[str, float] = {}
        self._events_in_window = 0
        self._index = 0
        self._start = 0.0
        self._next_edge = window
        self._finalized = False

    def attach(self, sim: Any) -> "TelemetrySampler":
        """Install as ``sim.telemetry``; the first window opens now."""
        sim.telemetry = self
        self._start = sim.now
        self._next_edge = sim.now + self.window
        return self

    # -- probe registration ----------------------------------------------
    def add_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register an instantaneous read-only probe, sampled at close."""
        if name in self._gauges or name in self._cums:
            raise ValueError(f"duplicate telemetry source {name!r}")
        self._gauges[name] = fn

    def add_cumulative(self, name: str, fn: Callable[[], float]) -> None:
        """Register a monotone source; windows export its per-window delta."""
        if name in self._gauges or name in self._cums:
            raise ValueError(f"duplicate telemetry source {name!r}")
        self._cums[name] = fn
        value = float(fn())
        self._base[name] = value
        self._initial[name] = value

    # -- engine hook (called from Simulator.step, duck-typed) -------------
    def on_event(self, now: float) -> None:
        if now >= self._next_edge:
            self._close_through(now)
        self._events_in_window += 1
        self.events_total += 1

    def finalize(self, now: float) -> None:
        """Close every complete window up to ``now`` plus the partial tail.

        Idempotent; harnesses call it once after the run so the last
        window is never silently missing from exports.
        """
        if self._finalized:
            return
        self._close_through(now)
        if now > self._start or self._events_in_window:
            self._close_window(now)
        self._finalized = True

    # -- window mechanics --------------------------------------------------
    def _close_through(self, now: float) -> None:
        while self._next_edge <= now:
            self._close_window(self._next_edge)

    def _close_window(self, end: float) -> None:
        gauges = {name: _round(float(self._gauges[name]()))
                  for name in sorted(self._gauges)}
        deltas: dict[str, float] = {}
        for name in sorted(self._cums):
            current = float(self._cums[name]())
            deltas[name] = _round(current - self._base[name])
            self._base[name] = current
        win = TelemetryWindow(index=self._index, start=self._start, end=end,
                              events=self._events_in_window,
                              gauges=gauges, deltas=deltas)
        if self.host_rss:
            win.rss_kb = peak_rss_kb()
        if len(self.windows) >= self.ring:
            self.windows.pop(0)
            self.dropped += 1
        self.windows.append(win)
        self._index += 1
        self._start = end
        self._next_edge = end + self.window
        self._events_in_window = 0

    # -- read-out ----------------------------------------------------------
    def series(self, name: str) -> list[float]:
        """Per-window values of a source over the retained ring.

        Gauges yield their sampled values; cumulative sources yield
        per-second rates; ``"events_per_sec"`` is always available.
        """
        if name == "events_per_sec":
            return [w.events_per_sec for w in self.windows]
        if name in self._gauges:
            return [w.gauges[name] for w in self.windows]
        if name in self._cums:
            return [w.deltas[name] / w.span if w.span > 1e-9 else 0.0
                    for w in self.windows]
        raise KeyError(f"unknown telemetry source {name!r}")

    def summary(self) -> dict:
        """JSON-ready whole-run aggregate (sorted keys, sim-domain only)."""
        totals = {name: _round(float(self._cums[name]()) - self._initial[name])
                  for name in sorted(self._cums)}
        peak = max((w.events_per_sec for w in self.windows), default=0.0)
        last = self.windows[-1].gauges if self.windows else {}
        return {
            "window_s": self.window,
            "windows": self._index,
            "retained": len(self.windows),
            "dropped": self.dropped,
            "events_total": self.events_total,
            "peak_events_per_sec": _round(peak),
            "totals": totals,
            "last_gauges": dict(last),
        }


# -- exporters -------------------------------------------------------------

def telemetry_to_jsonl(sampler: TelemetrySampler,
                       include_host: bool = False) -> str:
    """One JSON object per line: every retained window (``"rec":
    "window"``) then the whole-run summary (``"rec": "summary"``).
    Deterministic text unless ``include_host`` adds RSS readings."""
    lines = []
    for win in sampler.windows:
        record = {"rec": "window"}
        record.update(win.to_dict(include_host))
        lines.append(json.dumps(record, sort_keys=True))
    record = {"rec": "summary"}
    record.update(sampler.summary())
    lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def _metric_name(name: str, prefix: str) -> str:
    clean = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    return f"{prefix}_{clean}"


def telemetry_to_prometheus(sampler: TelemetrySampler,
                            prefix: str = "repro") -> str:
    """Prometheus text exposition format (0.0.4).

    Cumulative sources export their whole-run totals as ``counter``
    metrics; the latest window's gauges export as ``gauge`` metrics.
    Purely sim-domain, so the text is byte-identical across runs.
    """
    summary = sampler.summary()
    lines = []

    def emit(name: str, kind: str, value: float, help_text: str) -> None:
        metric = _metric_name(name, prefix)
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} {kind}")
        lines.append(f"{metric} {value!r}" if isinstance(value, float)
                     else f"{metric} {value}")

    emit("events_total", "counter", summary["events_total"],
         "simulator events fired")
    emit("windows_total", "counter", summary["windows"],
         "telemetry windows closed")
    for name in sorted(summary["totals"]):
        emit(f"{name}_total", "counter", summary["totals"][name],
             "cumulative total over the run")
    for name in sorted(summary["last_gauges"]):
        emit(name, "gauge", summary["last_gauges"][name],
             "latest window sample")
    return "\n".join(lines) + "\n"


# -- renderers -------------------------------------------------------------

def render_windows(sampler: TelemetrySampler,
                   limit: Optional[int] = None) -> str:
    """A ``--watch``-style dump: one line per retained window."""
    windows = sampler.windows if limit is None else sampler.windows[-limit:]
    lines = []
    for win in windows:
        deltas = "  ".join(f"{k}={win.deltas[k]:g}"
                           for k in sorted(win.deltas))
        lines.append(f"[{win.start:8.2f} {win.end:8.2f})  "
                     f"ev={win.events:7d}  ev/s={win.events_per_sec:10.1f}"
                     + (f"  {deltas}" if deltas else ""))
    return "\n".join(lines)


def render_top(sampler: TelemetrySampler,
               kernel_stats: Optional[Any] = None,
               slo_results: Optional[list] = None,
               host: bool = True,
               title: str = "telemetry") -> str:
    """The final text dashboard: run totals, last-window gauges, and --
    when available -- scheduler introspection and SLO verdicts.

    ``kernel_stats`` accepts either a live :class:`KernelStats` or its
    :meth:`~KernelStats.report` dict (episode results carry the latter).
    """
    summary = sampler.summary()
    lines = [f"== {title} =="]
    lines.append(f"windows {summary['windows']} x {summary['window_s']:g}s"
                 f"   events {summary['events_total']}"
                 f"   peak {summary['peak_events_per_sec']:.0f} ev/s")
    if host:
        lines.append(f"peak rss {peak_rss_kb()} KiB")
    if summary["totals"]:
        lines.append("-- totals --")
        for name in sorted(summary["totals"]):
            lines.append(f"  {name:<28s} {summary['totals'][name]:g}")
    if summary["last_gauges"]:
        lines.append("-- gauges (last window) --")
        for name in sorted(summary["last_gauges"]):
            lines.append(f"  {name:<28s} {summary['last_gauges'][name]:g}")
    if kernel_stats is not None:
        report = (kernel_stats.report()
                  if hasattr(kernel_stats, "report") else kernel_stats)
        lines.append("-- scheduler --")
        lines.append(f"  scheduled {report['scheduled_total']}"
                     f"  fired {report['fired_total']}"
                     f"  cancelled {report['cancelled_total']}"
                     f"  heap high-water {report['heap_high_water']}"
                     f"  pool recycle {report['pool']['recycle_rate']:.1%}")
        for name, count in report["event_classes"]:
            lines.append(f"  event {name:<24s} {count}")
        for name, count in report.get("callsites", []):
            lines.append(f"  site  {name:<40s} {count}")
    if slo_results:
        lines.append("-- slo --")
        for res in slo_results:
            verdict = "PASS" if res["ok"] else "FAIL"
            value = res["value"]
            shown = f"{value:g}" if value is not None else "n/a"
            lines.append(f"  [{verdict}] {res['name']}: {res['metric']}"
                         f"={shown} {res['op']} {res['threshold']:g}")
    return "\n".join(lines)
