"""Span tracing from outside the program: wrappers around layer entry points.

:func:`install` replaces the public entry points of every layer (listed in
:data:`ENTRY_POINTS`) with wrappers that record one span per call.  A
generator entry point is timed per resumption, so its spans cover the
host work done inside the layer and never the simulated wait between
resumptions.  Spans nest through an explicit stack: each records its
name, start, end, parent span and, where the call carries an
``HttpRequest``, that request's id.  Spans stay in compact arrays until
the run ends; :func:`layer_times` and :func:`dump` read them afterwards.

The wrappers only observe: they pass every argument, return value and
exception through unchanged, so a traced run's simulated digest equals an
untraced one's.  Wrappers are installed before the system under test is
built, because several components bind entry points (``frontend.submit``,
network handlers, client processes) when they are constructed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from typing import Any, Callable, Iterable

from repro.net.http import HttpRequest

#: (layer, module, class, entry points).  ``class`` is ``None`` for
#: module-level functions and ``"*"`` for every class in the module that
#: defines the method itself.  The splicer's segment handlers are private
#: methods, but they are the calls the network makes into the layer.
#: ``Simulator.run`` is the root span of every simulated run, so its self
#: time is whatever no other wrapper covers: the engine's inlined dispatch
#: loop, but also scheduled callbacks and the frames of unwrapped process
#: generators of any layer.  It is reported as its own ``unattributed``
#: layer rather than as engine time.
ENTRY_POINTS: tuple[tuple[str, str, Any, tuple[str, ...]], ...] = (
    ("unattributed", "repro.sim.engine", "Simulator", ("run",)),
    ("sim.engine", "repro.sim.engine", "Simulator",
     ("schedule", "timeout", "process", "hot_timeout", "hot_timeout_at",
      "hot_any_of")),
    ("sim.resources", "repro.sim.resources", "Resource",
     ("request", "try_acquire", "release", "hold_segmented")),
    ("sim.resources", "repro.sim.resources", "Store",
     ("put", "get", "try_get")),
    ("net.lan", "repro.net.lan", "Lan", ("transfer",)),
    ("net.tcp", "repro.net.tcp", "TcpSocket",
     ("connect", "send", "send_data", "recv", "close", "abort")),
    ("net.tcp", "repro.net.tcp", "Network", ("send",)),
    ("net.tcp", "repro.net.tcp", "Host", ("socket", "listen")),
    ("core.splicer", "repro.core.splicer", "SplicingDistributor",
     ("prefork_all", "_on_vip_segment", "_on_dist_segment")),
    ("core.mapping_table", "repro.core.mapping_table", "MappingTable",
     ("create", "get", "transition", "bind", "close", "delete", "abort")),
    ("core.url_table", "repro.core.url_table", "UrlTable",
     ("lookup", "insert", "remove", "add_location", "remove_location")),
    ("core.frontend", "repro.core.frontend", "Frontend", ("submit",)),
    ("core.frontend", "repro.core.distributor", "ContentAwareDistributor",
     ("route", "acquire_backend", "release_backend")),
    ("core.frontend", "repro.core.l4router", "L4Router", ("route",)),
    ("core.conn_pool", "repro.core.conn_pool", "ConnectionPool",
     ("acquire", "try_acquire", "release")),
    ("cluster.server", "repro.cluster.server", "BackendServer", ("serve",)),
    ("cluster.cache", "repro.cluster.cache", "LruCache",
     ("access", "admit", "invalidate")),
    ("cluster.cpu", "repro.cluster.cpu", "Cpu", ("run", "run_pair")),
    ("cluster.disk", "repro.cluster.disk", "Disk", ("read", "write")),
    ("workload.sampler", "repro.workload.sampler", "RequestSampler",
     ("request",)),
    ("workload.webbench", "repro.workload.webbench", "WebBenchClient",
     ("_run",)),
    ("workload.webbench", "repro.workload.webbench", "WebBenchRig",
     ("record_completion", "record_error")),
    ("mgmt.controller", "repro.mgmt.controller", "Controller",
     ("execute", "replicate", "offload")),
    ("mgmt.controller", "repro.mgmt.broker", "Broker", ("deliver", "_run")),
    ("mgmt.controller", "repro.mgmt.agents", "*", ("execute",)),
    ("mgmt.durability", "repro.mgmt.durability", "ControllerWal",
     ("append",)),
    ("mgmt.durability", "repro.mgmt.durability", "ControllerDurability",
     ("take_checkpoint",)),
    ("core.loadbalance", "repro.core.loadbalance", "LoadAccountant",
     ("record",)),
    ("core.loadbalance", "repro.core.loadbalance", "AutoReplicator",
     ("rebalance_once",)),
    ("setup", "repro.experiments.testbed", None,
     ("build_deployment", "generate_catalog", "full_replication",
      "partition_by_type", "apply_plan")),
)

#: every layer name, in table order
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(e[0] for e in ENTRY_POINTS))


class SpanRecorder:
    """In-memory span store: one array per field, a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.labels: list[str] = []
        #: wrapper invocations per label (a generator counts once, however
        #: many times it resumes)
        self.calls: list[int] = []
        self.label = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("q")
        self._stack: list[int] = []

    def intern(self, label: str) -> int:
        self.labels.append(label)
        self.calls.append(0)
        return len(self.labels) - 1

    def open(self, label: int, request_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.label.append(label)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(request_id)
        self.end.append(0.0)
        self.start.append(self.clock())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)


def _request_position(fn: Callable) -> int:
    """Index in ``*args`` of a parameter named ``request``, else -1."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return -1
    return params.index("request") if "request" in params else -1


def _request_id(args: tuple, position: int) -> int:
    if 0 <= position < len(args):
        arg = args[position]
        if isinstance(arg, HttpRequest):
            return arg.request_id
    return 0


def _timed_resumptions(rec: SpanRecorder, label: int, request_id: int,
                       gen) -> Any:
    """Drive ``gen`` as ``yield from`` would, one span per resumption."""
    value = None
    error = None
    while True:
        span = rec.open(label, request_id)
        try:
            if error is None:
                out = gen.send(value)
            else:
                out, error = gen.throw(error), None
        except StopIteration as stop:
            return stop.value
        finally:
            rec.close(span)
        try:
            value = yield out
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into gen, as yield from does
            error = exc


def _wrap(rec: SpanRecorder, label: str, fn: Callable) -> Callable:
    index = rec.intern(label)
    position = _request_position(fn)
    calls = rec.calls

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            calls[index] += 1
            inner = fn(*args, **kwargs)
            outer = _timed_resumptions(rec, index,
                                       _request_id(args, position), inner)
            # process names default to the generator's name
            outer.__name__ = inner.__name__
            return outer
        return generator_wrapper

    @functools.wraps(fn)
    def call_wrapper(*args, **kwargs):
        calls[index] += 1
        span = rec.open(index, _request_id(args, position))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if isinstance(result, HttpRequest):    # RequestSampler.request
            rec.request[span] = result.request_id
        return result
    return call_wrapper


def _targets(module, cls_name, methods) -> Iterable[tuple[Any, str, str]]:
    """(owner, attribute, qualified name) for one ENTRY_POINTS row."""
    if cls_name is None:
        for name in methods:
            yield module, name, name
        return
    if cls_name == "*":
        classes = [obj for obj in vars(module).values()
                   if inspect.isclass(obj)
                   and obj.__module__ == module.__name__]
    else:
        classes = [getattr(module, cls_name)]
    for cls in classes:
        for name in methods:
            if name in vars(cls):
                yield cls, name, f"{cls.__name__}.{name}"


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap every entry point; returns a function that restores them."""
    restore = []
    for layer, module_name, cls_name, methods in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        for owner, attr, qualname in _targets(module, cls_name, methods):
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(rec, f"{layer}|{qualname}", original))
            restore.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
    return uninstall


def label_times(rec: SpanRecorder) -> dict[str, dict[str, float]]:
    """Per label: spans, calls, inclusive seconds and self seconds.

    A span's self time is its duration minus the time its child spans
    cover; children never overlap because spans nest on one stack.
    """
    n = len(rec)
    duration = [rec.end[i] - rec.start[i] for i in range(n)]
    covered = [0.0] * n
    parent = rec.parent
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += duration[i]
    out = {label: {"spans": 0, "calls": rec.calls[k], "total_s": 0.0,
                   "self_s": 0.0}
           for k, label in enumerate(rec.labels)}
    labels = rec.labels
    for i in range(n):
        entry = out[labels[rec.label[i]]]
        entry["spans"] += 1
        entry["total_s"] += duration[i]
        entry["self_s"] += duration[i] - covered[i]
    return out


def layer_times(per_label: dict[str, dict[str, float]]
                ) -> dict[str, dict[str, float]]:
    """Sum :func:`label_times` over the labels of each layer."""
    out = {layer: {"spans": 0, "calls": 0, "self_s": 0.0}
           for layer in LAYERS}
    for label, entry in per_label.items():
        layer = out[label.split("|", 1)[0]]
        layer["spans"] += entry["spans"]
        layer["calls"] += entry["calls"]
        layer["self_s"] += entry["self_s"]
    return out


def dump(rec: SpanRecorder, path: str) -> None:
    """Write every span as one JSON object per line (times in seconds
    from the recorder's creation)."""
    origin = rec.origin
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(rec)):
            fh.write(json.dumps({
                "span": i,
                "name": rec.labels[rec.label[i]],
                "start": rec.start[i] - origin,
                "end": rec.end[i] - origin,
                "parent": rec.parent[i],
                "request_id": rec.request[i] or None,
            }) + "\n")
