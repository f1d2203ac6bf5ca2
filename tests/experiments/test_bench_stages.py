"""Bench harness: per-stage kernel-stats probe, RSS/heap recording, and
profile attribution (DESIGN §15).

The wall-clock speedups themselves are excluded from tier-1 (host
noise); what is pinned here is the *shape* of the payload and the
probe's zero-perturbation digest check at a tiny scale.
"""

import cProfile

import pytest

from repro.experiments.bench import (SCALES, run_openloop_splice, run_stage)
from repro.obs import KernelStats, attribute_profile

pytestmark = pytest.mark.telemetry

#: A below-"quick" scale so the three runs per stage stay in tier-1
#: budget.
TINY = dict(SCALES["quick"], rate=100.0, openloop_duration=0.4,
            fig_clients=4, fig_duration=1.0, fig_warmup=0.5,
            ovl_duration=2.0, ovl_clients=4, ovl_objects=120,
            ovl_settle=1.0)


class TestStageEntry:
    @pytest.fixture(scope="class")
    def entry(self):
        return run_stage("fig2_workload_a", TINY, seed=42)

    def test_probe_run_keeps_identical_true(self, entry):
        assert entry["identical"] is True

    def test_stage_records_rss_and_heap_high_water(self, entry):
        assert entry["peak_rss_kb"] > 0
        assert entry["heap_high_water"] >= 1
        assert entry["heap_high_water"] == \
            entry["kernel_stats"]["heap_high_water"]

    def test_stage_attributes_event_classes_and_callsites(self, entry):
        stats = entry["kernel_stats"]
        classes = dict(stats["event_classes"])
        assert classes, "probe run must attribute event classes"
        assert stats["callsites"], "probe run must attribute callsites"
        top_site = stats["callsites"][0][0]
        assert ":" in top_site

    def test_fast_path_layer_counters_present(self, entry):
        # the request-level fast path is the grant/pooled-timeout path
        assert "cpu" in entry["kernel_stats"]["fast_path"]

    def test_traced_peak_is_the_stages_own(self, entry):
        # tracemalloc over the probe run only: unlike the process-wide
        # peak_rss_kb, it does not carry one stage's peak into the next
        openloop = run_stage("openloop_latency", TINY, seed=42)
        assert entry["traced_peak_kb"] > 0
        assert openloop["traced_peak_kb"] > 0
        assert openloop["traced_peak_kb"] != entry["traced_peak_kb"]


class TestOpenloopProbe:
    def test_kernel_stats_probe_does_not_change_digest(self):
        plain = run_openloop_splice(rate=100.0, duration=0.4,
                                    fast_path=True)
        probed = run_openloop_splice(rate=100.0, duration=0.4,
                                     fast_path=True,
                                     kernel_stats=KernelStats(
                                         callsites=True))
        assert probed["digest"] == plain["digest"]
        assert probed["events"] == plain["events"]


class TestProfileAttribution:
    def test_bench_profile_section_shape(self):
        profiler = cProfile.Profile()
        profiler.enable()
        run_openloop_splice(rate=100.0, duration=0.3, fast_path=True)
        profiler.disable()
        out = attribute_profile(profiler)
        assert set(out) == {"total_s", "subsystems", "top_functions"}
        for bucket in out["subsystems"].values():
            assert set(bucket) == {"calls", "tottime_s", "share"}
