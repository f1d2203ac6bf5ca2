"""Observers live on the Simulator, never in a component's signature.

The tracer, the kernel stats and the telemetry sampler each attach with
``observer.attach(sim)``; every instrumented component reads
``sim.<observer>`` at the site.  This guard parses the component
packages and fails when a function takes an observer parameter (a
dataclass field is a constructor parameter too) or a class keeps its own
``self.tracer`` copy, so the threading cannot grow back one constructor
at a time.
"""

import ast
from pathlib import Path

import repro

OBSERVERS = ("tracer", "kernel_stats", "telemetry")
PACKAGES = ("core", "cluster", "net", "mgmt", "chaos", "workload")
ROOT = Path(repro.__file__).resolve().parent


def _modules():
    for package in PACKAGES:
        yield from sorted((ROOT / package).rglob("*.py"))


def _findings(source: str, where: str) -> list[str]:
    tree = ast.parse(source, filename=where)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                if arg.arg in OBSERVERS:
                    out.append(f"{where}:{node.lineno} {node.name}() takes "
                               f"'{arg.arg}'")
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name) and \
                        stmt.target.id in OBSERVERS:
                    out.append(f"{where}:{stmt.lineno} {node.name} has a "
                               f"'{stmt.target.id}' field")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if isinstance(t, ast.Attribute) and t.attr == "tracer" \
                        and isinstance(t.value, ast.Name) \
                        and t.value.id == "self":
                    out.append(f"{where}:{node.lineno} assigns self.tracer")
    return out


def test_guard_scans_every_component_package():
    modules = list(_modules())
    for package in PACKAGES:
        assert any(p.parent.name == package for p in modules), package


def test_no_component_takes_an_observer():
    found = [f for path in _modules()
             for f in _findings(path.read_text(),
                                str(path.relative_to(ROOT.parent)))]
    assert found == []


def test_guard_catches_each_form():
    found = _findings(
        "import dataclasses\n"
        "class Pool:\n"
        "    def __init__(self, sim, tracer=None):\n"
        "        self.tracer = tracer\n"
        "def helper(*, kernel_stats):\n"
        "    pass\n"
        "@dataclasses.dataclass\n"
        "class Targets:\n"
        "    telemetry: object = None\n", "sample.py")
    assert len(found) == 4
    assert any("__init__() takes 'tracer'" in f for f in found)
    assert any("assigns self.tracer" in f for f in found)
    assert any("helper() takes 'kernel_stats'" in f for f in found)
    assert any("Targets has a 'telemetry' field" in f for f in found)
