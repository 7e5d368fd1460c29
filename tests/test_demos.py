"""Every demo script runs to completion against this checkout's symchain."""

import subprocess
import sys
from pathlib import Path

import pytest

from checkout import checkout_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "demo",
    ["dirac_comparison", "exact_linear_algebra", "lattice_field_theory", "mechanical_chain"],
)
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
