"""Gate-dominance analysis (GATE001-004).

The repo's opt-in subsystems -- tracing, overload control, loss
injection, NFS backends, lifecycle hooks -- are all wired as optional
attributes that are ``None`` when disabled.  The determinism contract
requires every dereference of such a *gate* to be dominated by a
``gate is not None`` check (or an equivalent witness, see below).  This
pass proves that on the per-function CFG: the fact set reaching a node
under must-intersection contains ``nn:<gate>`` exactly when every path
from entry passes a true edge of a null check.

Rules
-----
GATE001   tracer API call (``point``/``begin``/``end``/``new_trace``)
          not dominated by a tracer guard.
GATE002   other gated subsystem (overload control, retry budget, NFS,
          loss RNG, lifecycle hook) dereferenced without its guard.
GATE003   ``fast_path`` branch whose false edge falls off the function
          exit -- i.e. no reachable slow-path fallback for the
          operation.
GATE004   gate dereferenced where it is *known* ``None`` (dominated by
          the guard's false edge).

Registering a new gated subsystem is one line in :data:`GATES`.

Precision notes
---------------
* A field is only treated as a gate inside classes where it can
  actually be ``None`` (some assignment of ``None``, a parameter that
  defaults to ``None``, or an ``Optional`` annotation).
  ``OverloadControl.retry_budget`` is constructed unconditionally and
  is exempt; ``FailoverPair.retry_budget`` is optional and checked.
* The observers in :data:`SIM_OBSERVERS` live on the simulator, which
  sets each to ``None`` until it is attached: ``sim.<gate>``,
  ``self.sim.<gate>`` and ``<name>.sim.<gate>`` are always-optional
  references to that gate, in any class or function.
* Locals are tracked as gate aliases when every assignment to them
  copies a gate attribute (``tracer = self.tracer``); parameters named
  after a gate are aliases too, and a parameter *without* a ``None``
  default is assumed non-null at entry (the caller's obligation).
* Witness variables: a local assigned only ``None`` and
  ``<gate>.method(...)`` results (the ``span = tracer.begin(...)``
  idiom) is a witness -- ``witness is not None`` implies the gate is
  non-null.
* Callback-under-gate: a method registered as a callback only where a
  gate is known non-null (``self.mapping.on_transition =
  self._trace_splice`` under ``if tracer is not None``) is re-analyzed
  with that gate fact at entry, provided the class never calls it
  directly.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Optional

from ..violations import Violation
from .cfg import Cfg, Edge, Node, build_cfg, conditions, solve, walk_scoped

__all__ = ["GateSpec", "GATES", "FAST_PATH_ATTR", "analyze_gates"]


@dataclasses.dataclass(frozen=True)
class GateSpec:
    """One gated subsystem: the attribute that holds it and what counts
    as a guarded use."""

    attr: str
    rule: str
    #: member names whose access is flagged; ``None`` flags any member
    #: access (consumer-only members can be left out, e.g. reading
    #: ``tracer.events`` after a run needs no gate).
    api: Optional[tuple[str, ...]] = None
    #: the gate itself is callable (lifecycle hooks): flag direct calls
    callable_gate: bool = False
    describe: str = ""


#: The registry.  New gated subsystems (compiled scheduler backend,
#: sweep engine, ...) add one line here.
GATES: tuple[GateSpec, ...] = (
    GateSpec("tracer", "GATE001",
             api=("point", "begin", "end", "new_trace"),
             describe="tracer"),
    GateSpec("overload", "GATE002", describe="overload control"),
    GateSpec("retry_budget", "GATE002", describe="retry budget"),
    GateSpec("nfs", "GATE002", describe="NFS backend"),
    GateSpec("_loss_rng", "GATE002", describe="loss injection"),
    GateSpec("on_transition", "GATE002", callable_gate=True,
             describe="transition hook"),
    GateSpec("on_response", "GATE002", callable_gate=True,
             describe="response hook"),
    GateSpec("on_progress", "GATE002", callable_gate=True,
             describe="sweep progress hook"),
    # management-plane durability (DESIGN §14): the WAL plumbing is a
    # classic None-gated subsystem; only its *mutating* API needs the
    # guard (post-run reads of counters/open intents are consumer-only)
    GateSpec("durability", "GATE002",
             api=("log_intent", "log_dispatch", "log_apply", "log_commit",
                  "log_abort", "boundary", "maybe_checkpoint", "attach",
                  "take_checkpoint"),
             describe="controller durability (WAL)"),
    GateSpec("lease", "GATE002", describe="distributor lease"),
    GateSpec("recover_state", "GATE002", callable_gate=True,
             describe="takeover state-recovery hook"),
    GateSpec("crash_plan", "GATE002", describe="crash-point plan"),
    # kernel telemetry plane (DESIGN §15): both observers hang off the
    # simulator as None-gated hooks; only the hot-loop probe API needs
    # the guard (post-run reads of reports/series are consumer-only)
    GateSpec("kernel_stats", "GATE002",
             api=("on_scheduled", "on_fired", "on_cancelled",
                  "on_pool_recycle", "on_fast_path"),
             describe="kernel scheduler introspection"),
    GateSpec("telemetry", "GATE002",
             api=("on_event", "add_gauge", "add_cumulative", "finalize"),
             describe="telemetry sampler"),
)

FAST_PATH_ATTR = "fast_path"

#: gates held by the simulator (``Simulator.__init__`` sets them to None)
SIM_OBSERVERS = frozenset({"tracer", "kernel_stats", "telemetry"})

_GATE_BY_ATTR = {g.attr: g for g in GATES}


def _is_sim(expr: ast.expr) -> bool:
    """``sim``, or ``<name>.sim`` (``self.sim`` included)."""
    if isinstance(expr, ast.Name):
        return expr.id == "sim"
    return (isinstance(expr, ast.Attribute) and expr.attr == "sim"
            and isinstance(expr.value, ast.Name))


def _is_none(expr: ast.AST) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is None


def _param_table(func: ast.FunctionDef | ast.AsyncFunctionDef,
                 ) -> dict[str, Optional[ast.expr]]:
    """Parameter name -> default expression (``None`` entry when the
    parameter has no default)."""
    args = func.args
    table: dict[str, Optional[ast.expr]] = {}
    positional = args.posonlyargs + args.args
    defaults: list[Optional[ast.expr]] = (
        [None] * (len(positional) - len(args.defaults))
        + list(args.defaults))
    for a, d in zip(positional, defaults):
        table[a.arg] = d
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        table[a.arg] = d
    return table


def _class_optional_attrs(cls: ast.ClassDef) -> frozenset[str]:
    """Gate attributes that can be ``None`` on instances of ``cls``."""
    optional: set[str] = set()
    assigned: set[str] = set()
    # class-level (dataclass-style) fields
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            if name in _GATE_BY_ATTR:
                assigned.add(name)
                ann = ast.unparse(stmt.annotation)
                if (stmt.value is not None and _is_none(stmt.value)) or \
                        "Optional" in ann or "None" in ann:
                    optional.add(name)
    for func in cls.body:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _param_table(func)
        for sub in walk_scoped(func):
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(sub, ast.Assign):
                targets, value = sub.targets, sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                targets, value = [sub.target], sub.value
            for t in targets:
                if not (isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                        and t.attr in _GATE_BY_ATTR):
                    continue
                assigned.add(t.attr)
                if value is None or _is_none(value):
                    optional.add(t.attr)
                elif isinstance(value, ast.Name) and value.id in params:
                    default = params[value.id]
                    if default is not None and _is_none(default):
                        optional.add(t.attr)
    # a gate attribute never assigned in the class is not this class's
    # gate (inherited always-set fields would false-positive otherwise)
    return frozenset(optional & assigned)


class _FuncEnv:
    """Name resolution for one function: which expressions refer to
    which gate, plus witness variables."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                 optional_attrs: frozenset[str]):
        self.func = func
        self.optional_attrs = optional_attrs
        self.params = _param_table(func)
        self.aliases: dict[str, str] = {}    # local/param name -> gate
        self.witnesses: dict[str, str] = {}  # witness name -> gate
        self.entry_facts: set[str] = set()
        self._discover()

    # -- reference classification ------------------------------------------
    def gate_of_attr(self, expr: ast.Attribute) -> Optional[str]:
        """Gate key when ``expr`` is a gate attribute reference.

        ``self.<gate>`` counts where this class can leave it ``None``;
        a *foreign* object's field is that class's contract
        (``ctl.retry_budget`` on an ``OverloadControl`` is always set;
        the enclosing ``ctl`` access is itself checked as a use of the
        ``overload`` gate).  The exception is the simulator's observers,
        optional on every simulator (:data:`SIM_OBSERVERS`)."""
        if expr.attr not in _GATE_BY_ATTR:
            return None
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            return expr.attr if expr.attr in self.optional_attrs else None
        if expr.attr in SIM_OBSERVERS and _is_sim(expr.value):
            return expr.attr
        return None

    def key_of(self, expr: ast.AST) -> Optional[str]:
        """Fact key for a guardable expression: the gate name, or
        ``w:<name>`` for a witness variable."""
        if isinstance(expr, ast.Attribute):
            return self.gate_of_attr(expr)
        if isinstance(expr, ast.Name):
            if expr.id in self.aliases:
                return self.aliases[expr.id]
            if expr.id in self.witnesses:
                return f"w:{expr.id}"
        return None

    def _discover(self) -> None:
        for name in self.params:
            if name in _GATE_BY_ATTR:
                self.aliases[name] = name
                default = self.params[name]
                if default is None:
                    # required parameter: the caller must pass a live
                    # instance (e.g. obs exporters)
                    self.entry_facts.add(f"nn:{name}")
        # local assignment census
        assigns: dict[str, list[ast.expr]] = {}
        for sub in walk_scoped(self.func):
            if isinstance(sub, ast.Assign):
                for t in sub.targets:
                    if isinstance(t, ast.Name):
                        assigns.setdefault(t.id, []).append(sub.value)
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None \
                    and isinstance(sub.target, ast.Name):
                assigns.setdefault(sub.target.id, []).append(sub.value)
        # phase 1 -- aliases (``tracer = self.tracer``); phase 2 --
        # witnesses (``span = tracer.begin(...)``), which may reference
        # aliases discovered in phase 1 regardless of name order
        for name, values in sorted(assigns.items()):
            if name in self.aliases:
                continue
            gates = set()
            other = False
            for v in values:
                if _is_none(v):
                    continue
                g = self.gate_of_attr(v) \
                    if isinstance(v, ast.Attribute) else None
                if g is not None:
                    gates.add(g)
                else:
                    other = True
            if not other and len(gates) == 1:
                self.aliases[name] = gates.pop()
        for name, values in sorted(assigns.items()):
            if name in self.aliases:
                continue
            witness_gates = set()
            other = False
            for v in values:
                if _is_none(v):
                    continue
                g = None
                if isinstance(v, ast.Call) and \
                        isinstance(v.func, ast.Attribute):
                    g = self.key_of(v.func.value)
                if g is not None and not g.startswith("w:"):
                    witness_gates.add(g)
                else:
                    other = True
            if not other and len(witness_gates) == 1:
                self.witnesses[name] = witness_gates.pop()

    def implied_gate(self, key: str) -> Optional[str]:
        """Gate implied non-null by fact ``nn:<key>``."""
        if key.startswith("w:"):
            return self.witnesses.get(key[2:])
        return key


_Facts = frozenset


def _cond_facts(env: _FuncEnv, expr: ast.expr, pol: bool) -> set[str]:
    """Facts established when atomic condition ``expr`` == ``pol``."""
    if isinstance(expr, ast.Compare) and len(expr.ops) == 1 and \
            isinstance(expr.ops[0], (ast.Is, ast.IsNot)) and \
            _is_none(expr.comparators[0]):
        key = env.key_of(expr.left)
        if key is None:
            return set()
        is_none_when_true = isinstance(expr.ops[0], ast.Is)
        if is_none_when_true == pol:
            return {f"null:{key}"}
        return {f"nn:{key}"}
    key = env.key_of(expr)  # bare truthiness: ``if self.tracer:``
    if key is not None:
        return {f"nn:{key}"} if pol else {f"null:{key}"}
    return set()


def _edge_facts(env: _FuncEnv, edge: Edge,
                facts: _Facts) -> Optional[_Facts]:
    if edge.test is None:
        return facts
    gained: set[str] = set()
    for expr, pol in conditions(edge.test, edge.polarity or False):
        gained |= _cond_facts(env, expr, pol)
    if not gained:
        return facts
    # a gained fact supersedes its opposite
    drop = {("null:" + f[3:]) if f.startswith("nn:") else ("nn:" + f[5:])
            for f in gained}
    return frozenset((set(facts) - drop) | gained)


def _kill(facts: set[str], key: str) -> None:
    facts.discard(f"nn:{key}")
    facts.discard(f"null:{key}")


def _transfer(env: _FuncEnv, node: Node, facts: _Facts) -> _Facts:
    out = set(facts)
    if node.kind == "loop" and node.stmt is not None and \
            isinstance(node.stmt, (ast.For, ast.AsyncFor)):
        for sub in ast.walk(node.stmt.target):
            if isinstance(sub, ast.Name):
                key = env.key_of(sub)
                if key is not None:
                    _kill(out, key)
        return frozenset(out)
    stmt = node.stmt
    if node.kind != "stmt" or stmt is None:
        return facts
    targets: list[tuple[ast.expr, Optional[ast.expr]]] = []
    if isinstance(stmt, ast.Assign):
        targets = [(t, stmt.value) for t in stmt.targets]
    elif isinstance(stmt, ast.AnnAssign):
        targets = [(stmt.target, stmt.value)]
    elif isinstance(stmt, ast.AugAssign):
        targets = [(stmt.target, None)]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [(item.optional_vars, None) for item in stmt.items
                   if item.optional_vars is not None]
    for target, value in targets:
        for t in ast.walk(target) if isinstance(target, ast.Tuple) \
                else [target]:
            key = None
            if isinstance(t, ast.Name):
                key = env.key_of(t)
                if key is not None and value is not None and \
                        env.key_of(value) == key:
                    continue  # re-alias of the same gate: facts survive
                if key is not None:
                    _kill(out, key)
            elif isinstance(t, ast.Attribute):
                key = env.gate_of_attr(t)
                if key is None:
                    continue
                if value is not None and env.key_of(value) == key:
                    continue
                _kill(out, key)
                if value is not None and _is_none(value):
                    out.add(f"null:{key}")
                elif isinstance(value, (ast.Call, ast.Lambda)) or (
                        isinstance(value, ast.Constant)
                        and value.value is not None):
                    out.add(f"nn:{key}")
    return frozenset(out)


@dataclasses.dataclass
class _Finding:
    rule: str
    line: int
    message: str


class _UseScanner:
    """Walk one node's expressions, tracking short-circuit facts inside
    the expression itself (``x is not None and x.f()``), flagging gate
    uses not covered by the facts."""

    def __init__(self, env: _FuncEnv, class_methods: frozenset[str]):
        self.env = env
        self.class_methods = class_methods
        self.findings: list[_Finding] = []
        #: bare ``self.<method>`` references (callback registrations)
        #: with the nn-gates that held there
        self.method_refs: list[tuple[str, frozenset[str]]] = []
        #: methods the class calls directly (vetoes callback grants)
        self.direct_calls: set[str] = set()

    # -- fact queries -------------------------------------------------------
    def _known_nonnull(self, gate: str, facts: _Facts) -> bool:
        if f"nn:{gate}" in facts:
            return True
        for fact in facts:
            if fact.startswith("nn:w:") and \
                    self.env.implied_gate(fact[3:]) == gate:
                return True
        return False

    def _flag_use(self, gate: str, member: Optional[str], line: int,
                  facts: _Facts) -> None:
        spec = _GATE_BY_ATTR[gate]
        if spec.api is not None and member is not None and \
                member not in spec.api:
            return
        if self._known_nonnull(gate, facts):
            return
        what = f"{gate}.{member}" if member is not None else f"{gate}(...)"
        if f"null:{gate}" in facts:
            self.findings.append(_Finding(
                "GATE004", line,
                f"'{what}' used where {spec.describe} is known to be "
                f"None"))
        else:
            self.findings.append(_Finding(
                spec.rule, line,
                f"'{what}' not dominated by a '{gate} is not None' "
                f"guard ({spec.describe} is optional)"))

    # -- traversal ----------------------------------------------------------
    def scan(self, tree: ast.AST, facts: _Facts) -> None:
        self._visit(tree, facts, in_call_func=False)

    def _visit(self, node: ast.AST, facts: _Facts,
               in_call_func: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return  # separate scope, analyzed on its own
        if isinstance(node, ast.BoolOp):
            pol = isinstance(node.op, ast.And)
            acc = facts
            for operand in node.values:
                self._visit(operand, acc, False)
                extra = _cond_facts(self.env, operand, pol)
                for expr, p in conditions(operand, pol):
                    extra |= _cond_facts(self.env, expr, p)
                if extra:
                    acc = frozenset(set(acc) | extra)
            return
        if isinstance(node, ast.IfExp):
            self._visit(node.test, facts, False)
            true_f = _edge_facts(
                self.env, Edge(0, 0, test=node.test, polarity=True), facts)
            false_f = _edge_facts(
                self.env, Edge(0, 0, test=node.test, polarity=False), facts)
            self._visit(node.body, true_f or facts, False)
            self._visit(node.orelse, false_f or facts, False)
            return
        if isinstance(node, ast.Call):
            func = node.func
            key = self.env.key_of(func)
            if key is not None and not key.startswith("w:") and \
                    _GATE_BY_ATTR[key].callable_gate:
                self._flag_use(key, None, node.lineno, facts)
            if isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id == "self" and \
                    func.attr in self.class_methods:
                self.direct_calls.add(func.attr)
            self._visit(func, facts, in_call_func=True)
            for arg in node.args:
                self._visit(arg, facts, False)
            for kw in node.keywords:
                self._visit(kw.value, facts, False)
            return
        if isinstance(node, ast.Attribute):
            inner = node.value
            gate = self.env.key_of(inner)
            if gate is not None and not gate.startswith("w:"):
                self._flag_use(gate, node.attr, node.lineno, facts)
            if not in_call_func and isinstance(inner, ast.Name) and \
                    inner.id == "self" and \
                    node.attr in self.class_methods and \
                    isinstance(node.ctx, ast.Load):
                held = frozenset(
                    f[3:] for f in facts
                    if f.startswith("nn:") and not f.startswith("nn:w:"))
                self.method_refs.append((node.attr, held))
            self._visit(inner, facts, False)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, facts, False)


def _fast_path_findings(cfg: Cfg) -> list[_Finding]:
    """GATE003: a ``fast_path`` branch whose false edge reaches the
    function exit without executing anything -- no slow-path fallback."""
    out: list[_Finding] = []
    for node in cfg.nodes:
        if node.kind != "test" or node.expr is None or \
                not isinstance(node.stmt, ast.If):
            continue
        mentions = any(
            (isinstance(sub, ast.Attribute) and sub.attr == FAST_PATH_ATTR)
            or (isinstance(sub, ast.Name) and sub.id == FAST_PATH_ATTR)
            for sub in walk_scoped(node.expr))
        if not mentions:
            continue
        for edge in cfg.succs[node.index]:
            if edge.exc or edge.polarity is not False:
                continue
            cur = edge.dst
            seen = set()
            while cfg.nodes[cur].kind == "merge" and cur not in seen:
                seen.add(cur)
                nxt = [e.dst for e in cfg.succs[cur] if not e.exc]
                if len(nxt) != 1:
                    break
                cur = nxt[0]
            if cfg.nodes[cur].kind == "exit":
                out.append(_Finding(
                    "GATE003", node.line,
                    "fast_path branch has no slow-path fallback: the "
                    "non-fast edge falls off the function exit"))
    return out


def _analyze_function(func: ast.FunctionDef | ast.AsyncFunctionDef,
                      optional_attrs: frozenset[str],
                      class_methods: frozenset[str],
                      extra_entry_facts: frozenset[str] = frozenset(),
                      ) -> tuple[list[_Finding],
                                 list[tuple[str, frozenset[str]]],
                                 set[str]]:
    env = _FuncEnv(func, optional_attrs)
    cfg = build_cfg(func)
    entry = frozenset(env.entry_facts) | extra_entry_facts
    ins = solve(
        cfg, entry,
        transfer=lambda node, facts: _transfer(env, node, facts),
        edge_transfer=lambda edge, facts: _edge_facts(env, edge, facts),
        meet=lambda a, b: a & b)
    scanner = _UseScanner(env, class_methods)
    for node in cfg.nodes:
        if node.index not in ins:
            continue  # unreachable
        for root in node.scan_roots():
            scanner.scan(root, ins[node.index])
    findings = scanner.findings + _fast_path_findings(cfg)
    return findings, scanner.method_refs, scanner.direct_calls


def analyze_gates(tree: ast.Module, path: str) -> list[Violation]:
    """Run the gate-dominance pass over one module."""
    findings: dict[str, list[_Finding]] = {}  # func id -> findings

    def run_scope(funcs: list[ast.FunctionDef | ast.AsyncFunctionDef],
                  optional_attrs: frozenset[str],
                  class_methods: frozenset[str]) -> None:
        refs: dict[str, list[frozenset[str]]] = {}
        direct: set[str] = set()
        by_name: dict[str, ast.AST] = {}
        for func in funcs:
            fid = f"{func.lineno}:{func.name}"
            by_name.setdefault(func.name, func)
            f, method_refs, direct_calls = _analyze_function(
                func, optional_attrs, class_methods)
            findings[fid] = f
            direct |= direct_calls
            for name, held in method_refs:
                refs.setdefault(name, []).append(held)
        # callback-under-gate: re-analyze methods only ever referenced
        # (registered) where a gate was known non-null
        for name, held_sets in sorted(refs.items()):
            if name in direct or name not in by_name:
                continue
            granted = frozenset.intersection(*held_sets)
            granted = frozenset(g for g in granted
                                if g in optional_attrs or g in SIM_OBSERVERS)
            if not granted:
                continue
            func = by_name[name]
            fid = f"{func.lineno}:{func.name}"
            entry = frozenset(f"nn:{g}" for g in granted)
            f, _, _ = _analyze_function(
                func, optional_attrs, class_methods,  # type: ignore[arg-type]
                extra_entry_facts=entry)
            findings[fid] = f

    top_funcs = [n for n in tree.body
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    run_scope(top_funcs, frozenset(g.attr for g in GATES), frozenset())

    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [n for n in cls.body
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        run_scope(methods, _class_optional_attrs(cls),
                  frozenset(m.name for m in methods))

    out = []
    for flist in findings.values():
        for f in flist:
            out.append(Violation(rule=f.rule, path=path, line=f.line,
                                 message=f.message, pass_name="deep"))
    return sorted(set(out), key=lambda v: (v.line, v.rule, v.message))
