"""The examples that drive the wire's fault hook and trace run clean.

``fault_injection.py`` arms a loss hook on the wire and checks the payload
survives; ``offload_timeline.py --trace`` records the wire and the traced
bottom-half dispatch into a Perfetto file.  Each runs in a fresh
interpreter, as from a shell.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.obs.trace import validate_trace_file

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(repro.__file__).resolve().parent.parent


def _run_example(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / name), *args], cwd=cwd,
        env=env, capture_output=True, text=True)


def test_fault_injection_example(tmp_path):
    proc = _run_example("fault_injection.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "data INTACT" in proc.stdout


def test_offload_timeline_example_writes_a_valid_trace(tmp_path):
    trace = tmp_path / "fig56.json"
    proc = _run_example("offload_timeline.py", "--trace", str(trace),
                        cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert validate_trace_file(trace) == []
