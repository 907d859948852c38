"""The demos that exercise canonical form, sums, products, volumes,
measures and expected determinants run to completion."""

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
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
