"""benchmarks/perf/profile_placement_memory.py: per-layer bytes per object.

The microbenchmark itself runs at the paper's 8,700 objects (``make
bench-memory``); here its measuring function runs at 150 and only the
shape of the result and its file handling are pinned.
"""

import importlib.util
import json
import os

import pytest

from repro.experiments.testbed import SCHEMES

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                      "benchmarks", "perf", "profile_placement_memory.py")


@pytest.fixture(scope="module")
def profile():
    spec = importlib.util.spec_from_file_location(
        "profile_placement_memory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def written(profile, tmp_path_factory):
    out = tmp_path_factory.mktemp("memory") / "memory.json"
    assert profile.main(["--objects", "150", "--output", str(out)]) == 0
    return out


def test_result_shape(profile, written):
    payload = json.loads(written.read_text())
    assert payload["config"] == {"objects": 150, "seed": 42,
                                 "workload": "B"}
    assert set(payload["schemes"]) == set(SCHEMES)
    layers = {layer for layer, _ in profile.LAYERS} | {"other"}
    for cell in payload["schemes"].values():
        per = cell["bytes_per_object"]
        assert set(per) == layers
        for layer in ("url_table", "doctree", "stores", "catalog"):
            assert per[layer] > 0
        assert cell["total_bytes_per_object"] == \
            pytest.approx(sum(per.values()), abs=1.0)
        assert cell["build_peak_bytes_per_object"] >= \
            cell["total_bytes_per_object"]


def test_written_with_sorted_keys(written):
    text = written.read_text()
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"


def test_no_file_without_output(profile, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(profile, "measure", lambda n, seed: {
        "config": {"objects": n, "seed": seed, "workload": "B"},
        "host": {}, "schemes": {}})
    assert profile.main(["--objects", "150"]) == 0
    assert os.listdir(tmp_path) == []
