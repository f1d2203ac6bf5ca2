"""Gate-dominance analysis (GATE001-004): fixtures and mutation tests."""

import ast

from repro.analysis.deep import analyze_source
from repro.analysis.deep.gates import GATES, analyze_gates


def codes(src: str) -> list[tuple[str, int]]:
    tree = ast.parse(src)
    return [(v.rule, v.line) for v in analyze_gates(tree, "fixture.py")]


# -- GATE001: tracer ---------------------------------------------------

TRACER_GUARDED = '''
class Node:
    def __init__(self, tracer=None):
        self.tracer = tracer
    def handle(self):
        if self.tracer is not None:
            self.tracer.point("a", "b")
'''


def test_gate001_unguarded_tracer_use():
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self):\n"
        "        self.tracer.point('a', 'b')\n"
    ) == [("GATE001", 5)]


def test_gate001_guarded_is_clean():
    assert codes(TRACER_GUARDED) == []


def test_gate001_mutation_removing_guard_trips():
    """Deleting the dominating guard from a clean snippet fires GATE001."""
    mutated = TRACER_GUARDED.replace(
        "        if self.tracer is not None:\n    ", "    ")
    assert mutated != TRACER_GUARDED
    assert [c for c, _ in codes(mutated)] == ["GATE001"]


def test_gate001_alias_and_early_return():
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self):\n"
        "        tracer = self.tracer\n"
        "        if tracer is None:\n"
        "            return\n"
        "        tracer.begin('s', 'x')\n"
    ) == []


def test_gate001_witness_variable():
    # span being non-None proves the tracer was non-None when it was made
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self):\n"
        "        span = None\n"
        "        if self.tracer is not None:\n"
        "            span = self.tracer.begin('s', 'x')\n"
        "        self.work()\n"
        "        if span is not None:\n"
        "            self.tracer.end(span)\n"
    ) == []


def test_gate001_not_optional_in_this_class():
    # a class that always constructs its tracer has no gate to check
    assert codes(
        "class Node:\n"
        "    def __init__(self):\n"
        "        self.tracer = Tracer()\n"
        "    def handle(self):\n"
        "        self.tracer.point('a', 'b')\n"
    ) == []


def test_gate001_boolop_inline_guard():
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self, ok):\n"
        "        if self.tracer is not None and ok:\n"
        "            self.tracer.point('a', 'b')\n"
    ) == []


def test_gate001_guard_inside_with_body():
    """The with-head node must scan only the context managers, not the
    body -- otherwise guarded uses inside the body are re-scanned with
    the with-entry facts and false-positive."""
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self, pool):\n"
        "        with pool as p:\n"
        "            for item in p.work():\n"
        "                if self.tracer is not None:\n"
        "                    self.tracer.point('a', item)\n"
    ) == []


def test_gate001_unguarded_use_in_with_still_flagged():
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self, pool):\n"
        "        with pool as p:\n"
        "            self.tracer.point('a', 'b')\n"
    ) == [("GATE001", 6)]


def test_gate001_gate_use_in_context_manager_expr_flagged():
    assert codes(
        "class Node:\n"
        "    def __init__(self, tracer=None):\n"
        "        self.tracer = tracer\n"
        "    def handle(self):\n"
        "        with self.tracer.begin('s', 'x') as span:\n"
        "            pass\n"
    ) == [("GATE001", 5)]


# -- GATE002: overload control and friends -----------------------------

def test_gate002_unguarded_overload():
    assert codes(
        "class Node:\n"
        "    def __init__(self, overload=None):\n"
        "        self.overload = overload\n"
        "    def shed(self):\n"
        "        return self.overload.config.retry_after\n"
    ) == [("GATE002", 5)]


def test_gate002_conditional_expression_guard():
    assert codes(
        "class Node:\n"
        "    def __init__(self, overload=None):\n"
        "        self.overload = overload\n"
        "    def shed(self):\n"
        "        return (self.overload.config.retry_after\n"
        "                if self.overload is not None else 0.0)\n"
    ) == []


# -- GATE003: fast-path fallback ---------------------------------------

def test_gate003_fast_path_without_fallback():
    found = codes(
        "class Node:\n"
        "    def run(self):\n"
        "        if self.sim.fast_path:\n"
        "            return self._fast()\n")
    assert [c for c, _ in found] == ["GATE003"]


def test_gate003_with_fallback_is_clean():
    assert codes(
        "class Node:\n"
        "    def run(self):\n"
        "        if self.sim.fast_path:\n"
        "            return self._fast()\n"
        "        return self._slow()\n"
    ) == []


def test_gate003_mutation_removing_fallback_trips():
    good = ("class Node:\n"
            "    def run(self):\n"
            "        if self.sim.fast_path:\n"
            "            return self._fast()\n"
            "        return self._slow()\n")
    assert codes(good) == []
    mutated = good.replace("        return self._slow()\n", "")
    assert [c for c, _ in codes(mutated)] == ["GATE003"]


# -- GATE004: use under a known-None gate ------------------------------

def test_gate004_use_in_none_branch():
    found = codes(
        "class Node:\n"
        "    def __init__(self, overload=None):\n"
        "        self.overload = overload\n"
        "    def handle(self):\n"
        "        if self.overload is None:\n"
        "            self.overload.breakers.on_dispatch('b')\n")
    assert [c for c, _ in found] == ["GATE004"]


# -- registry ----------------------------------------------------------

def test_registry_is_one_table():
    attrs = [spec.attr for spec in GATES]
    assert "tracer" in attrs and "overload" in attrs
    assert len(attrs) == len(set(attrs))


def test_pragma_suppresses_gate_finding():
    src = ("class Node:\n"
           "    def __init__(self, tracer=None):\n"
           "        self.tracer = tracer\n"
           "    def handle(self):\n"
           "        self.tracer.point('a', 'b')  # det: allow[gate001]\n")
    assert analyze_source(src, "fixture.py") == []


# -- kernel telemetry plane gates (DESIGN §15) -------------------------

def test_kernel_stats_unguarded_hook_call_trips():
    found = codes(
        "class Simulator:\n"
        "    def __init__(self, kernel_stats=None):\n"
        "        self.kernel_stats = kernel_stats\n"
        "    def _enqueue(self, event):\n"
        "        self.kernel_stats.on_scheduled(event, 1)\n")
    assert [c for c, _ in found] == ["GATE002"]


def test_kernel_stats_alias_guard_is_clean():
    # the engine's actual idiom: snapshot to a local, guard, call
    assert codes(
        "class Simulator:\n"
        "    def __init__(self, kernel_stats=None):\n"
        "        self.kernel_stats = kernel_stats\n"
        "    def _enqueue(self, event):\n"
        "        ks = self.kernel_stats\n"
        "        if ks is not None:\n"
        "            ks.on_scheduled(event, 1)\n"
    ) == []


def test_kernel_stats_consumer_read_needs_no_guard():
    # report()/attribute reads are post-run consumer API, not hot hooks
    assert codes(
        "class Simulator:\n"
        "    def __init__(self, kernel_stats=None):\n"
        "        self.kernel_stats = kernel_stats\n"
        "    def summarize(self):\n"
        "        return self.kernel_stats.heap_high_water\n"
    ) == []


def test_telemetry_unguarded_on_event_trips():
    found = codes(
        "class Simulator:\n"
        "    def __init__(self):\n"
        "        self.telemetry = None\n"
        "    def step(self, when):\n"
        "        self.telemetry.on_event(when)\n")
    assert [c for c, _ in found] == ["GATE002"]


def test_telemetry_mutation_removing_guard_trips():
    good = ("class Simulator:\n"
            "    def __init__(self):\n"
            "        self.telemetry = None\n"
            "    def step(self, when):\n"
            "        tel = self.telemetry\n"
            "        if tel is not None:\n"
            "            tel.on_event(when)\n")
    assert codes(good) == []
    mutated = good.replace("        if tel is not None:\n"
                           "            tel.on_event(when)\n",
                           "        tel.on_event(when)\n")
    assert [c for c, _ in codes(mutated)] == ["GATE002"]


def test_telemetry_gates_registered():
    by_attr = {spec.attr: spec for spec in GATES}
    assert by_attr["kernel_stats"].api is not None
    assert "on_scheduled" in by_attr["kernel_stats"].api
    assert by_attr["telemetry"].api is not None
    assert "on_event" in by_attr["telemetry"].api


# -- observers held on the simulator -----------------------------------

# ConnectionPool's idiom: the tracer lives on ``self.sim``
POOL_GUARDED = '''
class ConnectionPool:
    def __init__(self, sim, backend):
        self.sim = sim
        self.backend = backend
    def release(self, conn):
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.point("pool", "release", node=self.backend)
'''

# Resource.hold's idiom before the fast-path report moved into
# Simulator.note_fast_path: a local ``sim`` and a kernel-stats alias
HOLD_GUARDED = '''
class Resource:
    def __init__(self, sim):
        self.sim = sim
    def hold(self, duration, layer=None):
        sim = self.sim
        req = self.try_acquire()
        ks = sim.kernel_stats
        if ks is not None and layer is not None:
            ks.on_fast_path(layer, req is not None)
        yield sim.hot_timeout(duration)
'''


def test_sim_held_observers_guarded_are_clean():
    assert codes(POOL_GUARDED) == []
    assert codes(HOLD_GUARDED) == []


def test_unguarded_self_sim_tracer_trips():
    mutated = POOL_GUARDED.replace(
        "        tracer = self.sim.tracer\n"
        "        if tracer is not None:\n"
        "            tracer.point(",
        "        self.sim.tracer.point(")
    assert mutated != POOL_GUARDED
    assert codes(mutated) == [("GATE001", 7)]


def test_unguarded_sim_kernel_stats_alias_trips():
    mutated = HOLD_GUARDED.replace("if ks is not None and layer is not None",
                                   "if layer is not None")
    assert mutated != HOLD_GUARDED
    assert codes(mutated) == [("GATE002", 10)]


def test_foreign_sim_tracer_needs_a_guard():
    # the durability recovery idiom: ``<name>.sim.<gate>`` in a function
    src = ("def trace_done(controller):\n"
           "    tracer = controller.sim.tracer\n"
           "    if tracer is not None:\n"
           "        tracer.point('recovery', 'done')\n")
    assert codes(src) == []
    assert codes("def trace_done(controller):\n"
                 "    controller.sim.tracer.point('recovery', 'done')\n"
                 ) == [("GATE001", 2)]


def test_callback_registered_under_sim_tracer_guard_is_clean():
    # the front end wires its transition hook only when tracing is on
    src = ("class Frontend:\n"
           "    def __init__(self, sim):\n"
           "        self.sim = sim\n"
           "        if sim.tracer is not None:\n"
           "            self.mapping.on_transition = self._trace\n"
           "    def _trace(self, entry, old, new):\n"
           "        self.sim.tracer.point('splice', 'x')\n")
    assert codes(src) == []
    unguarded = src.replace("        if sim.tracer is not None:\n    ", "")
    assert codes(unguarded) == [("GATE001", 6)]


def test_real_pool_mutation_trips():
    """Dropping a guard from the shipped ConnectionPool fires GATE001."""
    import pathlib

    import repro.core.conn_pool as mod
    src = pathlib.Path(mod.__file__).read_text()
    tree = ast.parse(src)
    assert analyze_gates(tree, "conn_pool.py") == []
    guarded = ("        if self.sim.tracer is not None:\n"
               "            self.sim.tracer.point(\"pool\", \"release\"")
    assert guarded in src
    mutated = src.replace(guarded, "        self.sim.tracer.point("
                                   "\"pool\", \"release\"")
    rules = [v.rule for v in analyze_gates(ast.parse(mutated),
                                           "conn_pool.py")]
    assert rules == ["GATE001"]
