"""The committed ``results/*.json`` reports are what the code produces.

The byte-identity gate of refactors, as a tier-1 test: each report is
rebuilt by the command that writes it, with no sweep cache, in a
temporary directory, and must match the committed file byte for byte.  A
change that moves one of them has to regenerate the file and say why.

The commands run in a fresh interpreter, as they do from a shell: the
campaigns' sanitizers record a backtrace per acquired resource, and
pytest's deep stack would make that more than twice as slow in-process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(repro.__file__).resolve().parent.parent


#: committed report -> the command that writes it (to ./results/)
COMMANDS = {
    "faults_soak.json": ["repro.reporting.experiments", "faults_soak"],
    "fabric_sweep.json": ["repro.reporting.experiments", "fabric_sweep",
                          "--quick"],
    "faults_campaign.json": ["repro.reporting.experiments", "faults_campaign"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_committed_report_is_reproduced(name, tmp_path):
    command = COMMANDS[name]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", *command, "--no-cache"], cwd=tmp_path,
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = tmp_path / "results" / name
    assert out.read_bytes() == (ROOT / "results" / name).read_bytes(), (
        f"results/{name} no longer matches what `python -m "
        f"{' '.join(command)}` writes")
