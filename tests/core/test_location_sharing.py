"""Location sets are shared immutable values, changed only by replacement.

One ``frozenset`` per distinct holder set is shared by the placement plan,
every URL-table record and every doc-tree file with those holders (under
full replication, one set for the whole catalog).  Writers replace a
path's set instead of mutating it, so a change to one path can never leak
into the others that share it.
"""

import pytest

from repro.core import apply_plan, full_replication
from repro.core.placement import PlacementPlan
from repro.experiments.testbed import ExperimentConfig, build_deployment
from repro.workload import WORKLOAD_B


def deployment(scheme: str):
    return build_deployment(ExperimentConfig(
        scheme=scheme, workload=WORKLOAD_B, n_objects=150, prewarm=False))


@pytest.fixture
def replicated():
    return deployment("replication-l4")


class _NullServer:
    def place(self, item):
        pass


def shared_set(dep):
    return next(iter(dep.url_table.records())).locations


class TestSharing:
    def test_full_replication_shares_one_set(self, replicated):
        records = list(replicated.url_table.records())
        assert len(records) == 150
        assert len({id(r.locations) for r in records}) == 1
        for record in records:
            node = replicated.doctree.file(record.path)
            assert node.locations is record.locations

    def test_partition_has_no_more_objects_than_values(self):
        dep = deployment("partition-ca")
        sets = [r.locations for r in dep.url_table.records()]
        sets += [node.locations for _path, node in dep.doctree.walk()]
        assert len({id(s) for s in sets}) <= len({frozenset(s) for s in sets})

    def test_plan_loaded_from_json_shares_too(self, replicated, tmp_path):
        names = sorted(replicated.servers)
        full_replication(replicated.catalog, names).save(tmp_path / "p.json")
        plan = PlacementPlan.load(tmp_path / "p.json")
        servers = {name: _NullServer() for name in names}
        table, tree = apply_plan(plan, replicated.catalog, servers)
        records = list(table.records())
        assert len({id(r.locations) for r in records}) == 1
        assert tree.file(records[0].path).locations is records[0].locations


class TestCopyOnWrite:
    """A write to one path of a full-replication table changes that path
    only: every other path still holds the shared set."""

    def others_untouched(self, dep, path, shared):
        for record in dep.url_table.records():
            if record.path != path:
                assert record.locations is shared
        for other, node in dep.doctree.walk():
            if other != path:
                assert node.locations is shared

    def test_url_table_add_location(self, replicated):
        shared = shared_set(replicated)
        path = sorted(r.path for r in replicated.url_table.records())[0]
        replicated.url_table.add_location(path, "extra-node")
        assert replicated.url_table.locations(path) == shared | {"extra-node"}
        assert "extra-node" not in shared
        self.others_untouched(replicated, path, shared)

    def test_url_table_remove_location(self, replicated):
        shared = shared_set(replicated)
        path = sorted(r.path for r in replicated.url_table.records())[-1]
        node = sorted(shared)[0]
        replicated.url_table.remove_location(path, node)
        assert replicated.url_table.locations(path) == shared - {node}
        assert node in shared
        self.others_untouched(replicated, path, shared)

    def test_doctree_add_location(self, replicated):
        shared = shared_set(replicated)
        path = replicated.doctree.files()[0]
        replicated.doctree.add_location(path, "extra-a", "extra-b")
        assert replicated.doctree.locations_of(path) == \
            shared | {"extra-a", "extra-b"}
        self.others_untouched(replicated, path, shared)

    def test_doctree_remove_location(self, replicated):
        shared = shared_set(replicated)
        path = replicated.doctree.files()[-1]
        node = sorted(shared)[-1]
        replicated.doctree.remove_location(path, node)
        assert replicated.doctree.locations_of(path) == shared - {node}
        self.others_untouched(replicated, path, shared)

    def test_plan_add_replica(self, replicated):
        plan = full_replication(replicated.catalog, sorted(replicated.servers))
        paths = sorted(plan.locations)
        shared = plan.locations[paths[0]]
        plan.add_replica(paths[0], "extra-node")
        assert plan.nodes_for(paths[0]) == shared | {"extra-node"}
        assert all(plan.locations[p] is shared for p in paths[1:])


class TestImmutable:
    def test_record_set_rejects_in_place_add(self, replicated):
        record = next(iter(replicated.url_table.records()))
        with pytest.raises(AttributeError):
            record.locations.add("x")

    def test_file_node_and_plan_sets_reject_in_place_writes(self, replicated):
        node = replicated.doctree.file(replicated.doctree.files()[0])
        with pytest.raises(AttributeError):
            node.locations.discard(sorted(node.locations)[0])
        plan = full_replication(replicated.catalog, sorted(replicated.servers))
        with pytest.raises(AttributeError):
            next(iter(plan.locations.values())).add("x")

    def test_accessors_return_private_copies(self, replicated):
        shared = shared_set(replicated)
        path = replicated.doctree.files()[0]
        for copy in (replicated.url_table.locations(path),
                     replicated.doctree.locations_of(path)):
            assert type(copy) is set
            copy.add("evil")
        assert "evil" not in shared
        plan = full_replication(replicated.catalog, sorted(replicated.servers))
        copy = plan.nodes_for(path)
        copy.add("evil")
        assert "evil" not in plan.locations[path]
