"""Regression tests for real findings fixed by `repro check --deep`.

Each test pins one data-plane bug the whole-program analyzer surfaced:
an ungated overload read in the shed path (GATE002), an admission slot
leaked when instrumentation raises (LEAK003), and a mapping entry
stranded by a raising transition hook (LEAK002).
"""

import pytest

from repro.cluster import (BackendServer, distributor_spec,
                           paper_testbed_specs)
from repro.core import ContentAwareDistributor, OverloadConfig, UrlTable
from repro.net import HttpRequest, Lan, Nic
from repro.sim import Simulator


def make_dist(overload=None):
    sim = Simulator()
    lan = Lan(sim)
    specs = paper_testbed_specs()[:2]
    servers = {s.name: BackendServer(sim, lan, s) for s in specs}
    dist = ContentAwareDistributor(sim, lan, distributor_spec(), servers,
                                   UrlTable(), overload=overload)
    return sim, dist, Nic(sim, 100, name="client")


class _Span:
    def __init__(self):
        self.trace_id = 1
        self.end = None


class BoomOnAdmissionTracer:
    """A tracer whose admission point raises -- instrumentation must
    never be able to leak an admission slot."""

    def new_trace(self):
        return 1

    def begin(self, *args, **kwargs):
        return _Span()

    def end(self, span, **kwargs):
        span.end = 0.0

    def point(self, kind, name, **kwargs):
        if kind == "admission":
            raise RuntimeError("tracer exploded")


def test_shed_without_overload_control_returns_default_retry_after():
    # GATE002 fix: _shed must not dereference self.overload unguarded
    sim, dist, client_nic = make_dist(overload=None)
    outcome = dist._shed(HttpRequest("/x.html"), 0.0, "overload/shed")
    assert outcome.shed
    assert outcome.response.status == 503
    assert outcome.retry_after == 0.0


def test_admission_slot_released_when_tracer_raises():
    # LEAK003 fix: the slot is released even when the "admitted" trace
    # point raises before the serve begins
    sim, dist, client_nic = make_dist(overload=OverloadConfig())
    sim.tracer = BoomOnAdmissionTracer()
    errors = []

    def go():
        try:
            yield sim.process(dist.submit(HttpRequest("/x.html"),
                                          client_nic))
        except RuntimeError as exc:
            errors.append(str(exc))

    sim.process(go())
    sim.run()
    assert errors == ["tracer exploded"]
    assert dist.overload.admission.inflight == 0
    assert dist.inflight == 0


def test_raising_transition_hook_does_not_strand_mapping_entry():
    # LEAK002 fix: the ESTABLISHED transition runs under the RST
    # handler, so a raising lifecycle hook leaves the table clean
    sim, dist, client_nic = make_dist(overload=None)

    def hook(entry, old, new):
        if new.name == "ESTABLISHED":
            raise RuntimeError("hook rejected transition")

    dist.mapping.on_transition = hook
    errors = []

    def go():
        try:
            yield sim.process(dist.submit(HttpRequest("/x.html"),
                                          client_nic))
        except RuntimeError as exc:
            errors.append(str(exc))

    sim.process(go())
    sim.run()
    assert errors == ["hook rejected transition"]
    assert len(dist.mapping) == 0
