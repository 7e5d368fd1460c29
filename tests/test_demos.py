"""Every demo script runs to completion against this checkout's symchain and prints its pinned bytes."""

import hashlib
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import symchain
from checkout import checkout_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# sha256 of each demo's full stdout
STDOUT_SHA256 = {
    "dirac_comparison": "18490ae4d9edd0d7012b2d1c8ac55af520dd9070f512c615eb68647535fedefe",
    "lattice_field_theory": "81cd5ccf13e3cc3142ecdecde544c2cfea031115b78826854ec57261f7ac2a86",
    "mechanical_chain": "e7699e167e12eb20307668b5283f919bfe91b7e2e9fc944fa4a8ab4866839b85",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == sorted(path.stem for path in DEMOS.glob("*.py"))


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == STDOUT_SHA256[demo]


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


def test_dirac_demo_claims_all_second_class_only_when_it_holds(monkeypatch, capsys):
    """With first-class constraints, as in gauge_pair, the demo prints their count instead."""
    load = symchain.load_model
    monkeypatch.setattr(symchain, "load_model", lambda path: load(Path(path).with_name("gauge_pair.model")))
    runpy.run_path(str(DEMOS / "dirac_comparison.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "rank 0 of 2 constraints: 2 first-class" in out.splitlines()
    assert "second-class" not in out
