"""The runtime invariant verifier: clean deployments pass, seeded
incoherence in every direction is caught, and the engine hook fires."""

import pytest

from repro.analysis import (InvariantError, check_invariants, smoke_check,
                            verify_invariants)
from repro.core.mapping_table import MappingState
from repro.experiments import ExperimentConfig, build_deployment
from repro.net.packet import Address
from repro.sim import Simulator
from repro.workload import WORKLOAD_A


@pytest.fixture()
def deployment():
    config = ExperimentConfig(scheme="partition-ca", workload=WORKLOAD_A,
                              duration=1.0, warmup=0.25, n_objects=60,
                              n_client_machines=2, seed=7)
    return build_deployment(config)


def check(dep):
    return check_invariants(dep.url_table, servers=dep.servers,
                            frontend=dep.frontend, nfs=dep.nfs,
                            catalog=dep.catalog)


def rules(violations):
    return sorted({v.rule for v in violations})


def test_freshly_built_deployment_is_coherent(deployment):
    assert check(deployment) == []


# -- seeded incoherence ------------------------------------------------------
def test_dangling_location_flagged(deployment):
    """A URL-table record pointing at a node that does not exist."""
    record = next(iter(deployment.url_table.records()))
    record.locations = record.locations | {"ghost-node"}
    assert "INV001" in rules(check(deployment))


def test_location_without_bytes_flagged(deployment):
    """The table routes to a server whose store lost the copy."""
    record = next(iter(deployment.url_table.records()))
    node = sorted(record.locations)[0]
    deployment.servers[node].store.remove(record.item.path)
    assert "INV002" in rules(check(deployment))


def test_orphaned_store_item_flagged(deployment):
    """Bytes on a server the URL table does not route there."""
    record = next(iter(deployment.url_table.records()))
    holders = set(record.locations)
    stranger = sorted(set(deployment.servers) - holders)[0]
    deployment.servers[stranger].store.add(record.item)
    assert "INV003" in rules(check(deployment))


def test_empty_location_set_flagged(deployment):
    record = next(iter(deployment.url_table.records()))
    record.locations = frozenset()
    assert "INV004" in rules(check(deployment))


def test_catalog_item_missing_from_table_flagged(deployment):
    from repro.content import ContentItem, ContentType
    phantom = ContentItem(path="/phantom/x.html", ctype=ContentType.HTML,
                          size_bytes=100)
    found = check_invariants(deployment.url_table,
                             servers=deployment.servers,
                             frontend=deployment.frontend,
                             catalog=list(deployment.catalog) + [phantom])
    assert "INV008" in rules(found)


def test_bound_entry_without_lease_flagged(deployment):
    mapping = deployment.frontend.mapping
    entry = mapping.create(Address("client", 9999), now=0.0)
    mapping.transition(entry, MappingState.ESTABLISHED)
    mapping.bind(entry, object(), "node-1")
    entry.pooled_conn = None          # the defect: lease lost, still BOUND
    assert "INV006" in rules(check(deployment))
    mapping.abort(entry.client)


def test_pool_lease_imbalance_flagged(deployment):
    pools = deployment.frontend.pools
    backend = sorted(pools.pools())[0]
    pool = pools.pools()[backend]
    pool._leased[10**9] = object()    # a lease no mapping entry holds
    found = check(deployment)
    assert "INV007" in rules(found)


def test_pool_release_overflow_flagged(deployment):
    pools = deployment.frontend.pools
    backend = sorted(pools.pools())[0]
    pool = pools.pools()[backend]
    pool.released = pool.acquired + 1
    found = [v for v in check(deployment) if v.rule == "INV007"]
    assert any("released" in v.message for v in found)


def test_verify_invariants_raises(deployment):
    record = next(iter(deployment.url_table.records()))
    record.locations = record.locations | {"ghost-node"}
    with pytest.raises(InvariantError) as exc:
        verify_invariants(deployment.url_table, servers=deployment.servers)
    assert any(v.rule == "INV001" for v in exc.value.violations)


# -- the engine debug hook ---------------------------------------------------
def test_engine_runs_invariants_every_n_events():
    sim = Simulator()
    calls = []
    sim.add_invariant(lambda: calls.append(sim.now), every=3)

    def ticker():
        for _ in range(9):
            yield sim.timeout(1.0)

    sim.process(ticker())
    sim.run()
    assert len(calls) == 3   # 9 events / every 3


def test_engine_propagates_invariant_failure():
    sim = Simulator()

    def bomb():
        raise InvariantError([])

    def one_tick():
        yield sim.timeout(1.0)

    sim.add_invariant(bomb, every=1)
    sim.process(one_tick())
    with pytest.raises(InvariantError):
        sim.run()


def test_add_invariant_rejects_bad_interval():
    with pytest.raises(ValueError):
        Simulator().add_invariant(lambda: None, every=0)


# -- live end-to-end ---------------------------------------------------------
def test_live_deployment_stays_coherent_under_load():
    """Satellite: a driven partition-ca run with debug_invariants=True
    (checks firing during the simulation) finishes with zero violations."""
    assert smoke_check(duration=0.6, warmup=0.2, n_clients=3,
                       n_objects=60) == []
