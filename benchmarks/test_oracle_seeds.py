"""The fast path against the event-accurate oracle on the hot-spot cell.

Tier-1 checks one seed of this cell
(``tests/experiments/test_oracle_ties.py``); ``make oracle-seeds`` runs
seeds 0-9 so that a fast-path schedule drifting from the oracle fails CI
instead of waiting for a benchmark run.  Run it from the repository root
(``python -m pytest`` puts the root on ``sys.path``).
"""

import pytest

from tests.experiments.test_oracle_ties import hotspot_summary


@pytest.mark.parametrize("seed", range(10))
def test_hotspot_cell_fast_summary_equals_oracle(seed):
    assert hotspot_summary(True, seed) == hotspot_summary(False, seed)
