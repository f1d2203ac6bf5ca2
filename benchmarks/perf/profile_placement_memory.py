#!/usr/bin/env python
"""Per-layer memory of a built deployment (DESIGN §3, EXPERIMENTS §5.2).

§5.2 puts the distributor's URL table at about 260 KB for the site's
8,700 objects, roughly 30 B per object, as a C structure in the kernel
would pay it (``UrlTable.memory_footprint_bytes`` models that).  This
microbenchmark measures what the Python structures actually hold.  It
builds one deployment per placement scheme under :mod:`tracemalloc` and
charges every block still live after ``build_deployment`` to the layer
whose module allocated it -- the innermost traced frame that belongs to
one of:

* ``plan``      -- ``core/placement.py`` (the shared location sets);
* ``url_table`` -- ``core/url_table.py`` (levels, records, names);
* ``doctree``   -- ``content/doctree.py`` (directories, file nodes);
* ``stores``    -- ``cluster/store.py`` (each node's local store);
* ``caches``    -- ``cluster/cache.py`` (the prewarmed memory caches);
* ``catalog``   -- ``content/`` item generation (shared by every layer);

and everything else to ``other``.  Each is reported as bytes per catalog
object, beside the traced total and the traced peak of the build itself.
Every scheme is measured in a fresh interpreter, so process-wide caches
(``split_path``'s, for one) are charged to each scheme alike whatever
order they run in.  Byte counts depend on the interpreter build, not on
host speed.

    PYTHONPATH=src python benchmarks/perf/profile_placement_memory.py \\
        --objects 8700 --output BENCH_memory.json

The result is printed as a table; it is written as sorted-key JSON only
where ``--output`` names a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from repro.experiments.testbed import (  # noqa: E402
    SCHEMES, ExperimentConfig, build_deployment)
from repro.workload import WORKLOAD_B  # noqa: E402

#: layer -> the module path suffixes whose allocations it holds; checked
#: in this order against each frame, innermost frame first
LAYERS = (
    ("plan", ("repro/core/placement.py",)),
    ("url_table", ("repro/core/url_table.py",)),
    ("doctree", ("repro/content/doctree.py",)),
    ("stores", ("repro/cluster/store.py",)),
    ("caches", ("repro/cluster/cache.py",)),
    ("catalog", ("repro/content/catalog.py", "repro/content/model.py")),
)
#: traced frames per allocation: deep enough to see past the stdlib
#: (dataclasses, OrderedDict) to the repro frame that asked for the block
NFRAMES = 4


def _layer_of(traceback: tracemalloc.Traceback, cache: dict) -> str:
    key = tuple(frame.filename for frame in traceback)
    layer = cache.get(key)
    if layer is None:
        layer = "other"
        for filename in reversed(key):           # innermost frame first
            name = filename.replace(os.sep, "/")
            match = next((lay for lay, suffixes in LAYERS
                          if name.endswith(suffixes)), None)
            if match is not None:
                layer = match
                break
        cache[key] = layer
    return layer


def measure_scheme(scheme: str, n_objects: int, seed: int) -> dict:
    """Build one deployment under tracemalloc; bytes per object by layer."""
    tracemalloc.start(NFRAMES)
    try:
        deployment = build_deployment(ExperimentConfig(
            scheme=scheme, workload=WORKLOAD_B, seed=seed,
            n_objects=n_objects))
        snapshot = tracemalloc.take_snapshot()
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = {layer: 0 for layer, _ in LAYERS}
    held["other"] = 0
    cache: dict = {}
    for trace in snapshot.traces:
        held[_layer_of(trace.traceback, cache)] += trace.size
    return {
        "bytes_per_object": {layer: round(size / n_objects, 1)
                             for layer, size in held.items()},
        "build_peak_bytes_per_object": round(build_peak / n_objects, 1),
        "total_bytes_per_object": round(sum(held.values()) / n_objects, 1),
    }


def _measure_fresh(scheme: str, n_objects: int, seed: int) -> dict:
    """:func:`measure_scheme` in a new interpreter."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from profile_placement_memory import measure_scheme; "
            "print(json.dumps(measure_scheme(sys.argv[2], int(sys.argv[3]), "
            "int(sys.argv[4]))))")
    out = subprocess.run(
        [sys.executable, "-c", code, HERE, scheme, str(n_objects),
         str(seed)], check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def measure(n_objects: int = 8700, seed: int = 42,
            schemes: tuple[str, ...] = SCHEMES) -> dict:
    """Per-layer bytes per catalog object for each scheme."""
    return {
        "config": {"objects": n_objects, "seed": seed,
                   "workload": WORKLOAD_B.name},
        "host": {"platform": platform.platform(),
                 "python": platform.python_version()},
        "schemes": {scheme: _measure_fresh(scheme, n_objects, seed)
                    for scheme in schemes},
    }


def render(payload: dict) -> str:
    layers = [layer for layer, _ in LAYERS] + ["other"]
    config = payload["config"]
    lines = [f"bytes per catalog object after build_deployment "
             f"({config['objects']} objects, workload "
             f"{config['workload']}, seed {config['seed']})",
             f"{'scheme':<17}" + "".join(f"{lay:>10}" for lay in layers)
             + f"{'total':>10}{'peak':>10}"]
    for scheme, cell in payload["schemes"].items():
        per = cell["bytes_per_object"]
        lines.append(f"{scheme:<17}"
                     + "".join(f"{per[lay]:>10.1f}" for lay in layers)
                     + f"{cell['total_bytes_per_object']:>10.1f}"
                     + f"{cell['build_peak_bytes_per_object']:>10.1f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="per-layer memory of a built deployment")
    parser.add_argument("--objects", type=int, default=8700,
                        help="catalog objects (default 8700, §5.2's site)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--output", default=None,
                        help="write the result as sorted-key JSON here")
    args = parser.parse_args(argv)
    if args.objects < 1:
        parser.error("--objects must be >= 1")
    payload = measure(args.objects, args.seed)
    print(render(payload))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
