"""The demos that exercise canonical form, sums, products, volumes,
measures, expected determinants and the command line run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "00_exterior_powers.py",
    "01_zonotope_calculus.py",
    "02_products_and_volumes.py",
    "03_j_volumes.py",
    "04_expected_determinants.py",
    "05_measures_and_transforms.py",
    "06_cli_tour.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    # The CLI tour writes its JSON files under a fresh temporary directory.
    # Warnings are errors, as in the suite, also in the CLI processes a demo starts.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path),
               PYTHONWARNINGS="error")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
