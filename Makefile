PYTHON ?= python
PYTHONPATH := src

.PHONY: verify test check check-deep chaos-smoke chaos chaos-overload \
	trace telemetry telemetry-smoke golden bench bench-smoke \
	oracle-seeds bench-queues sweep sweep-smoke recover recover-smoke

## The full tier-1 gate: unit/integration tests, the repro.analysis
## correctness passes, and the chaos smoke episodes.
verify: test check chaos-smoke

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

check:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro check

## Whole-program gate/leak/stale-state analysis only (fast, static).
check-deep:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro check --deep

chaos-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q -m chaos_smoke

## The full fault-injection acceptance run (20 seeded episodes).
chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro chaos --seed 1 --episodes 20

## The flash-crowd + slow-disk overload episode (graceful degradation).
chaos-overload:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro overload --seed 1

## The traced overload episode: trace summary + per-request waterfall.
trace:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro trace --seed 1

## The telemetry dashboard for the overload episode (DESIGN §15):
## windowed series, scheduler introspection, SLO verdicts.
telemetry:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro top --seed 1

## CI smoke: the telemetry test battery (sampler/SLO consistency,
## byte-determinism, probe zero-perturbation).
telemetry-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q -m telemetry

## Kernel fast-path wall-clock benchmark (writes BENCH_kernel.json).
## Not part of tier-1: wall-clock numbers are host-dependent.
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench --output BENCH_kernel.json

## CI smoke: every bench stage at reduced scale, asserting the fast
## path is byte-identical to the segment path.  The wall-clock speedup
## target is NOT asserted (CI hosts are slow and noisy) -- --smoke
## makes the exit code equivalence-only.
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench --scale quick \
		--smoke --output .bench-smoke.json

## CI: the fast path against the event-accurate oracle on the hot-spot
## cell (Zipf 1.30, partition-ca, 60 clients) for seeds 0-9: identical
## summaries, or the next fast-path drift fails here.
oracle-seeds:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q \
		benchmarks/test_oracle_seeds.py

## Scheduler queue microbenchmark: heap vs calendar backend on pure
## scheduling mixes, with a cross-backend dispatch-order digest check
## (writes BENCH_queues.json).
bench-queues:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/perf/profile_queues.py \
		--out BENCH_queues.json

## Run the checked-in sweep spec across 4 workers (DESIGN §13); the
## merged report is byte-identical regardless of the worker count.
sweep:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro sweep \
		--spec specs/sweep_smoke.json --workers 4 --out sweeps

## CI smoke: same spec, 2 workers, fresh output root.
sweep-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro sweep \
		--spec specs/sweep_smoke.json --workers 2 --out .sweep-smoke

## Exhaustive crash-point exploration: crash the controller at every
## WAL/dispatch boundary of the scripted episode, prove each converges.
recover:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro recover --explore

## CI smoke: a bounded shard of the exploration (first 12 boundaries).
recover-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro recover --explore \
		--limit 12

## Regenerate the golden fixtures (metrics + recovery) after a reviewed
## model change.
golden:
	REPRO_UPDATE_GOLDEN=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		tests/integration/test_golden_metrics.py \
		tests/integration/test_recovery_golden.py -q
