"""Trace <-> metrics consistency.

The tracer and the MetricSet observe the same decisions through
independent channels: every shed/retry/breaker event increments a counter
*and* (when tracing is on) appends a point event.  These tests pin the two
views to each other -- a drift means one channel lies -- and pin the
zero-perturbation contract: tracing must not change a single counter.
"""

import pytest

from repro.experiments import ExperimentConfig, build_deployment
from repro.experiments.chaos import run_overload_episode
from repro.workload import WORKLOAD_A

pytestmark = pytest.mark.trace

#: Mirrors GOLDEN_OVERLOAD_SCALE so the episode exercised here is the
#: same one the golden fixture pins.
SCALE = {"seed": 11, "duration": 5.0, "clients": 10, "n_objects": 200,
         "settle": 2.0}


@pytest.fixture(scope="module")
def episode():
    return run_overload_episode(**SCALE, trace=True)


class TestOverloadCounters:
    def test_shed_points_match_counters(self, episode):
        tracer = episode.tracer
        assert len(tracer.find_events(kind="shed", name="shed")) == \
            episode.shed
        assert len(tracer.find_events(kind="shed", name="degraded")) == \
            episode.degraded
        assert episode.shed >= 1  # the flash crowd must overrun admission

    def test_retry_points_match_counter(self, episode):
        tracer = episode.tracer
        retries = tracer.find_events(kind="retry", name="replica-retry")
        assert len(retries) == episode.replica_retries

    def test_breaker_transitions_match_board(self, episode):
        tracer = episode.tracer
        transitions = tracer.find_events(kind="breaker")
        opened = [e for e in transitions if e.name.endswith("->open")]
        reclosed = [e for e in transitions
                    if e.name == "half-open->closed"]
        assert len(opened) == episode.breaker_opened
        assert len(reclosed) == episode.breaker_reclosed
        assert episode.breaker_opened >= 1  # the slow disk must trip one

    def test_decision_points_carry_machine_readable_reasons(self, episode):
        tracer = episode.tracer
        for kind in ("shed", "breaker"):
            events = tracer.find_events(kind=kind)
            assert events, f"no {kind} events in the overload episode"
            for event in events:
                assert event.attrs.get("reason"), \
                    f"{kind}/{event.name} missing reason"

    def test_request_spans_all_closed(self, episode):
        open_spans = [s for s in episode.tracer.spans if s.open]
        assert open_spans == []


class TestStatusCounters:
    def test_request_span_statuses_match_status_counters(self):
        exp = ExperimentConfig(scheme="partition-ca", workload=WORKLOAD_A,
                               seed=5, n_objects=150, duration=2.0,
                               warmup=0.5, n_client_machines=4, trace=True)
        deployment = build_deployment(exp)
        deployment.rig.start_clients(6)
        deployment.sim.run(until=2.0)
        deployment.rig.stop_clients()
        deployment.sim.run(until=2.5)

        from_spans: dict = {}
        for span in deployment.sim.tracer.find_spans(kind="request"):
            if span.status and span.status.isdigit():
                from_spans[span.status] = from_spans.get(span.status, 0) + 1
        counters = deployment.frontend.metrics.snapshot()["counters"]
        from_counters = {name.split("/", 1)[1]: count
                        for name, count in counters.items()
                        if name.startswith("status/")}
        assert from_spans == from_counters
        assert from_spans.get("200", 0) > 0


class TestZeroPerturbation:
    def test_traced_run_matches_untraced_counters_exactly(self):
        kw = {"seed": 3, "duration": 2.5, "clients": 6, "n_objects": 100,
              "settle": 1.0}
        traced = run_overload_episode(**kw, trace=True)
        plain = run_overload_episode(**kw, trace=False)
        for field in ("completed", "errors", "error_statuses", "shed",
                      "degraded", "timeouts", "replica_retries",
                      "budget_denied", "admission_peak_inflight",
                      "admission_peak_queue", "raw_peak_inflight",
                      "pool_peak_waiting", "breaker_opened",
                      "breaker_reclosed", "breakers_all_closed",
                      "open_nodes", "stuck_clients"):
            assert getattr(traced, field) == getattr(plain, field), field
        assert plain.tracer is None
        assert traced.tracer is not None and traced.tracer.events
