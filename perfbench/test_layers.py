"""Tests of the benchmark's layer map and self-time attribution.

Run with ``python3 -m pytest perfbench/test_layers.py``.
"""

import json
from pathlib import Path

import pytest

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_every_module_maps_to_exactly_one_layer():
    for module in layers.tree_modules(SRC):
        found = layers.layer_matches(module)
        assert found, f"{module} belongs to no layer"
        longest = max(len(entry) for _layer, entry in found)
        owners = {layer for layer, entry in found if len(entry) == longest}
        assert len(owners) == 1, f"{module} is claimed by {sorted(owners)}"


def test_every_entry_names_a_module():
    modules = layers.tree_modules(SRC)
    for layer, entries in layers.LAYERS.items():
        for entry in entries:
            assert any(layers._matches(entry, m) for m in modules), (
                f"{layer}: {entry} matches no module under src/repro")


def test_unmapped_module_raises():
    with pytest.raises(layers.UnmappedModule):
        layers.layer_of_module("repro.newpackage.thing")
    with pytest.raises(layers.UnmappedModule):
        layers.layer_of_module("repro.fabric.newmodule")


def test_specific_entries_win():
    assert layers.layer_of_module("repro.core.offload") == "offload"
    assert layers.layer_of_module("repro.core.backends.ioat") == "offload"
    assert layers.layer_of_module("repro.core.endpoint") == "core"
    assert layers.layer_of_module("repro.fabric.network") == "fabric.network"


def test_builtin_self_time_is_charged_to_the_calling_layer():
    kernel = (str(SRC / "repro/simkernel/scheduler.py"), 1, "run")
    mem = (str(SRC / "repro/memory/buffers.py"), 1, "copy_bytes")
    helper = ("/usr/lib/python3/heapq.py", 1, "helper")
    builtin = ("~", 0, "<built-in method builtins.len>")
    top = ("perfbench/worker.py", 1, "main")
    stats = {
        kernel: (1, 1, 2.0, 9.0, {top: (1, 1, 2.0, 9.0)}),
        mem: (1, 1, 1.0, 3.0, {kernel: (1, 1, 1.0, 3.0)}),
        # 3 s of len(): 1 s from the kernel, 2 s from a stdlib helper
        builtin: (3, 3, 3.0, 3.0, {kernel: (1, 1, 1.0, 1.0),
                                   helper: (2, 2, 2.0, 2.0)}),
        # the helper is called by memory (3/4 of its time) and the kernel
        helper: (2, 2, 0.4, 2.4, {mem: (1, 1, 0.3, 1.8),
                                  kernel: (1, 1, 0.1, 0.6)}),
        top: (1, 1, 0.5, 10.0, {}),
    }
    got = layers.self_seconds(stats, SRC)
    assert got["simkernel"] == pytest.approx(2.0 + 1.0 + 0.5 + 0.1)
    assert got["memory"] == pytest.approx(1.0 + 1.5 + 0.3)
    assert got[layers.HARNESS] == pytest.approx(0.5)
    assert sum(got.values()) == pytest.approx(6.9)


def test_metric_definitions_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    defs = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
    for section in ("end_to_end", "per_layer"):
        assert [m["name"] for m in spec[section]] == list(defs[section]), section
    per_layer = {m["name"] for m in spec["per_layer"]}
    for layer in layers.LAYERS:
        assert f"{layer}.self_pct" in per_layer
