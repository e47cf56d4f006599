"""Footprint gate: a fabric run loads only the fabric.

Fabric buffers hold no bytes, so a fabric world needs neither numpy nor the
Open-MX hardware model (hosts, NICs, skbuffs, DMA engines, byte-holding
regions).  A fresh interpreter in which numpy cannot be imported runs every
fabric collective and both fabric soaks; each run must end sanitizer-clean
without having loaded any hardware module.  The package ``repro`` still
offers the testbed entry points, resolved on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: modules (and packages, with their submodules) a fabric run must not load
HARDWARE = ("repro.cluster", "repro.core.driver", "repro.ethernet.nic",
            "repro.ethernet.skbuff", "repro.memory.buffers", "repro.ioat")

#: 3 B takes the byte-wise reduction; 40 KiB spans three 16 KiB cells
SIZES = (3, 40 * 1024)

_FABRIC_RUNS = r"""
import dataclasses, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError

import repro.fabric.mpi, repro.fabric.sweep, repro.faults.soak
from repro.fabric.mpi import launch_fabric_world
from repro.fabric.sweep import (CELL_MAX_EVENTS, COLLECTIVES,
                                collective_body, make_topology)
from repro.faults.soak import fabric_soak_suite, run_fabric_soak
from repro.mpi.collectives import ALLREDUCE_ALGOS

findings = {}
for collective in COLLECTIVES:
    algos = ALLREDUCE_ALGOS if collective == "allreduce" else ("auto",)
    for algo in algos:
        for size in SIZES:
            world = launch_fabric_world(make_topology("fat_tree2", 8),
                                        backend="ioat")
            world.run_spmd(collective_body(collective, size, algo),
                           max_events=CELL_MAX_EVENTS)
            try:
                world.finish()
                found = []
            except AssertionError as exc:
                found = [str(exc)]
            findings[f"{collective}/{algo}/{size}"] = found
for spec in fabric_soak_suite("footprint"):
    report = run_fabric_soak(dataclasses.replace(spec, rounds=1))
    findings[f"soak/{spec.name}"] = report["sanitizer"]
loaded = sorted(name for name, mod in sys.modules.items() if mod is not None)
print(json.dumps({"findings": findings, "modules": loaded}))
"""


def test_fabric_runs_load_neither_numpy_nor_the_hardware_model():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", f"SIZES = {SIZES!r}\n{_FABRIC_RUNS}"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    runs = out["findings"]
    # 5 collectives with one algo, allreduce with three, two sizes each;
    # plus the two soaks
    assert len(runs) == (5 + 3) * len(SIZES) + 2
    assert {name: f for name, f in runs.items() if f} == {}
    loaded = [m for m in out["modules"]
              if m == "numpy" or m.startswith("numpy.")
              or any(m == h or m.startswith(h + ".") for h in HARDWARE)]
    assert loaded == []


def test_package_names_resolve():
    from repro import build_testbed
    from repro.cluster.testbed import build_testbed as direct

    assert build_testbed is direct
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
