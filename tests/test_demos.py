"""Every walkthrough in ``demos/`` runs cleanly and prints the stdout pinned for it."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The sha256 of each demo's stdout, which is deterministic: a demo whose
# output changes, or a new demo, fails until its hash is pinned here.
STDOUT_SHA256 = {
    "01_lattice_arithmetic.py": "125a4d6a49206f0a5036475ad8050638a54c7ea0987267727ea0308205369678",
    "02_chern_formulas.py": "cefc200cf526a8d472a34be0a26e9934b8e6d6b59528058cc6e35a0c96f83b7c",
    "03_enumerate_families.py": "4a9ab32f8b61140c838910cd7b68bf8fb5b337030d7e72ee0d523d472cea9215",
    "04_verify_against_tables.py": "89d9f408459a79d92961e59f5d5f6db7b647b8651b54e8c833da6e1fb536d723",
    "05_export_formats.py": "44e7ff0e4d54051c7d441af8ca48b039b4ce78361da01dcfcc7e6d0e6ac90afc",
}


@pytest.mark.parametrize(
    "demo,stdout_sha256",
    [(path, STDOUT_SHA256.get(path.name)) for path in DEMOS],
    ids=[path.name for path in DEMOS],
)
def test_demo_runs_without_errors(demo, stdout_sha256):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == stdout_sha256
