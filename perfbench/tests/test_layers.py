"""The layer map covers every module, and attribution conserves time."""

import json
from pathlib import Path

import pytest

import layers
import run as bench

ROOT = Path(__file__).resolve().parents[2]
REPRO = ROOT / "src" / "repro"


def test_every_module_maps_to_one_named_layer():
    modules = sorted(p.relative_to(REPRO).as_posix() for p in REPRO.rglob("*.py"))
    unmapped = [m for m in modules if layers.module_layer(m) is None]
    assert unmapped == [], f"modules without a layer rule: {unmapped}"
    for rel in modules:
        assert layers.module_layer(rel) in layers.LAYERS


def test_rules_name_existing_code():
    for rel in layers.FILE_LAYERS:
        assert (REPRO / rel).is_file(), rel
    for pkg in layers.PACKAGE_LAYERS:
        assert (REPRO / pkg / "__init__.py").is_file(), pkg


def test_file_rule_wins_over_package_rule():
    assert layers.module_layer("simkit/core.py") == "simkit.core"
    assert layers.module_layer("simkit/host.py") == "simkit"
    assert layers.module_layer("newpkg/mod.py") is None


def test_should_move_map_names_real_layers_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]} | {"no_change"}
    assert set(layers.SHOULD_MOVE) == set(layers.LAYERS)
    for moves in layers.SHOULD_MOVE.values():
        for metric, names in moves.items():
            assert metric in metrics
            assert set(names) <= workloads


def _classify(filename):
    return {"a.py": "simkit.core", "b.py": "core", "bench.py": layers.HARNESS}.get(filename)


def test_builtin_time_is_charged_to_callers_by_edge_time():
    a, b, root = ("a.py", 1, "f"), ("b.py", 1, "g"), ("bench.py", 1, "main")
    heap = ("~", 0, "<built-in method _heapq.heappush>")
    helper = ("/usr/lib/python3/x.py", 3, "helper")
    stats = {
        root: (1, 1, 0.5, 10.0, {}),
        a: (1, 1, 2.0, 5.0, {root: (1, 1, 2.0, 5.0)}),
        b: (1, 1, 1.0, 4.0, {root: (1, 1, 1.0, 4.0)}),
        # 3 s under a, 1 s under b
        heap: (4, 4, 4.0, 4.0, {a: (3, 3, 3.0, 3.0), b: (1, 1, 1.0, 1.0)}),
        # foreign chain: helper <- heap's callers are not used; helper <- b
        helper: (2, 2, 0.5, 0.5, {b: (2, 2, 0.5, 0.5)}),
    }
    totals = layers.attribute(stats, _classify)
    assert totals["simkit.core"] == pytest.approx(2.0 + 3.0)
    assert totals["core"] == pytest.approx(1.0 + 1.0 + 0.5)
    assert totals[layers.HARNESS] == pytest.approx(0.5)
    assert sum(totals.values()) == pytest.approx(sum(row[2] for row in stats.values()))


def test_orphan_and_cyclic_foreign_time_goes_to_harness():
    x, y = ("/lib/x.py", 1, "x"), ("/lib/y.py", 1, "y")
    stats = {
        x: (1, 1, 1.0, 2.0, {y: (1, 1, 1.0, 2.0)}),
        y: (1, 1, 1.0, 2.0, {x: (1, 1, 1.0, 1.0)}),
    }
    totals = layers.attribute(stats, _classify)
    assert totals[layers.HARNESS] == pytest.approx(2.0)


def test_per_layer_metric_names_are_valid_and_unique():
    names = bench.per_layer_names(["workload.ops"])
    assert len(names) == len(set(names))
    for name in names:
        assert len(name) <= 64 and name[0].isalnum()
