"""Every demo script runs to completion against the source tree, and prints
what it printed when its output was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout
DEMO_STDOUT_SHA256 = {
    "01_group_arithmetic.py":
        "3d9992ab72ed2a8f61e3260919991288accf17e199748412b4426890d649d736",
    "02_classical_sequence.py":
        "1a2980e008bb4099deb28c71fd4130861e7334b441ced04c0ef07fcdcd8d47af",
    "03_group_toeplitz.py":
        "fd4b9c2b0b127c40e8fbb837b36645f79beacf5ce03def1a14552fb2d3146d75",
    "04_exact_measures.py":
        "0a450c1406310dc08d6392614dcf8ddb1c494bcb9336c5433f1929e8108bbed0",
    "05_odometer_fibers.py":
        "d24c82aa8cbf70cb74317cff062e0f7d98402e0b289443a437f80e26babe0923",
    "06_independence.py":
        "cb2659914654b1659b5211603ec36a25b3b69698bd4347dc01496d58a46e94ba",
    "07_pullback.py":
        "c238ef473ea06756baaa8f8ed2efe5b0ea17eba2e0919392342b47e87deeeaf5",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        DEMO_STDOUT_SHA256[demo.name], proc.stdout
