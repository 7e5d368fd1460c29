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


def test_mechanical_chain_prints_each_generator_dense():
    """The demo expands each generator's (index, value) pairs to the row count of the level it was read off."""
    result = subprocess.run(
        [sys.executable, str(DEMOS / "mechanical_chain.py")],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert result.returncode == 0, result.stderr
    assert [line for line in result.stdout.splitlines() if "from v = " in line] == [
        "  level 2: x + y   [null-vector]  from v = (0, 0, 1, 0, 0, 0, -1)",
        "  level 3: p_x + p_y   [null-vector]  from v = (0, 0, 0, 1, 1, 0, 0, 1)",
        "  level 4: z   [truncated-null-vector]  from v = (1, 1, 0, 0, 0, 0, 0, 0, -1)",
    ]
