import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from checkout import checkout_env
from symchain import ChainOptions, LatticeSpec, build_schwinger, compare_spans, consistency_algorithm, run_chain
from symchain.cli import main
from symchain.reports import render_tree
from test_byte_identity import reference_text

MODELS = Path(__file__).resolve().parent.parent / "models"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "symchain", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=checkout_env(),
    )


def test_analyze_mechanical_fixture():
    result = run_cli("analyze", str(MODELS / "example2.model"))
    assert result.returncode == 0
    assert "det(F^(4)) = 16" in result.stdout
    assert "truncations: level 3" in result.stdout
    assert "p_x + p_y" in result.stdout


def test_analyze_free_particle():
    result = run_cli("analyze", str(MODELS / "free_particle.model"))
    assert result.returncode == 0
    assert "constraints: none" in result.stdout


def test_analyze_max_level_exit_code():
    result = run_cli("analyze", "--max-level", "2", str(MODELS / "example2.model"))
    assert result.returncode == 3
    assert "max-level-reached" in result.stdout


def test_analyze_exhausted_exit_code_and_oracle_check():
    result = run_cli(
        "analyze", "--no-truncation", str(MODELS / "example2.model"), "--format", "tree"
    )
    assert result.returncode == 2
    tree = json.loads(result.stdout)
    assert tree["termination"]["kind"] == "exhausted"
    assert tree["warnings"]
    # the mandatory oracle cross-check reports the missing direction
    assert tree["comparison"] is not None
    assert tree["comparison"]["equal"] is False
    assert tree["comparison"]["oracle_only"] == ["z"]


def test_analyze_input_error():
    result = run_cli("analyze", str(MODELS / "does_not_exist.model"))
    assert result.returncode == 1
    assert "error:" in result.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--bogus", str(MODELS / "example2.model")], "unrecognized arguments: --bogus"),
        (["analyze", "--max-level", "x", str(MODELS / "example2.model")], "invalid int value: 'x'"),
        (["compare"], "the following arguments are required: model"),
    ],
    ids=["unknown-flag", "non-int-max-level", "missing-model"],
)
def test_usage_errors_exit_1_not_the_exhausted_code(argv, message):
    result = run_cli(*argv)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("usage: symchain")
    assert message in result.stderr


@pytest.mark.parametrize("flag, start", [("--help", "usage: symchain"), ("--version", "symchain 0.1.0\n")])
def test_help_and_version_exit_0(flag, start):
    result = run_cli(flag)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith(start)


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_unreadable_model_file_messages(tmp_path, command):
    missing = run_cli(command, "missing.model", cwd=tmp_path)
    assert (missing.returncode, missing.stdout) == (1, "")
    assert missing.stderr == "error: [Errno 2] No such file or directory: 'missing.model'\n"
    (tmp_path / "folder.model").mkdir()
    folder = run_cli(command, "folder.model", cwd=tmp_path)
    assert (folder.returncode, folder.stdout) == (1, "")
    assert folder.stderr == "error: [Errno 21] Is a directory: 'folder.model'\n"


def test_a_byte_order_mark_is_skipped_and_bad_utf8_is_an_input_error(tmp_path):
    plain = run_cli("analyze", str(MODELS / "example2.model"))
    marked = tmp_path / "bom.model"
    marked.write_bytes(b"\xef\xbb\xbf" + (MODELS / "example2.model").read_bytes())
    result = run_cli("analyze", str(marked))
    assert (result.returncode, result.stdout, result.stderr) == (0, plain.stdout, "")
    bad = tmp_path / "bad.model"
    bad.write_bytes(b"model bad\nzeta q p\nc p 0\nH \xff\n")
    result = run_cli("analyze", str(bad))
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_analyze_rejects_bad_model(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("model bad\nzeta x x\nc 0 0\nH 0\n")
    result = run_cli("analyze", str(bad))
    assert result.returncode == 1
    assert "line 2" in result.stderr


def test_analyze_deeply_nested_expressions(tmp_path):
    deep = tmp_path / "deep.model"
    deep.write_text("model deep\nzeta q p\nc p 0\nH " + "(" * 400 + "1/2*p^2" + ")" * 400 + "\n")
    result = run_cli("analyze", str(deep))
    assert result.returncode == 1
    assert result.stderr.startswith("error: line 4: parentheses nested too deeply")
    assert "Traceback" not in result.stderr
    deep.write_text("model deep\nzeta q p\nc p 0\nH " + "-" * 3000 + "1/2*p^2\n")
    result = run_cli("analyze", str(deep))
    assert result.returncode == 0
    assert result.stderr == ""


def test_reports_are_byte_deterministic():
    for fmt in ("text", "tree"):
        a = run_cli("analyze", "--format", fmt, str(MODELS / "example2.model"))
        b = run_cli("analyze", "--format", fmt, str(MODELS / "example2.model"))
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0


def test_tree_output_is_lossless():
    result = run_cli("analyze", "--format", "tree", str(MODELS / "example2.model"))
    tree = json.loads(result.stdout)
    assert tree["model"] == "example2"
    assert tree["zeta"] == ["x", "y", "z", "p_x", "p_y", "p_z"]
    assert tree["multipliers"] == ["lam1"]
    assert [c["level"] for c in tree["constraints"]] == [1, 2, 3, 4]
    assert {c["origin"] for c in tree["constraints"]} == {
        "primary", "null-vector", "truncated-null-vector",
    }
    assert all("raw" in c and "expr" in c and "generator" in c for c in tree["constraints"])
    assert tree["truncations"] == [3]
    assert tree["termination"] == {"kind": "nonsingular", "level": 4, "determinant": "16"}
    assert tree["span_fingerprint"]
    assert tree["warnings"] == []
    steps = [(rec["level"], rec["truncated"]) for rec in tree["eigenvectors"]]
    assert steps == [(1, False), (2, False), (3, False), (3, True), (4, False)]
    for rec in tree["eigenvectors"]:
        for cand in rec["candidates"]:
            assert cand["classification"] in {"new", "redundant"}


def test_compare_equal_and_exit_codes(tmp_path):
    result = run_cli("compare", str(MODELS / "example2.model"))
    assert result.returncode == 0
    assert "span comparison: equal" in result.stdout

    # an altered model may or may not keep the verdict; the command must
    # stay deterministic per verdict either way
    trivial = tmp_path / "trivial.model"
    trivial.write_text("model trivial\nzeta q p\nc p 0\nH 0\nprimary p\n")
    result2 = run_cli("compare", str(trivial))
    assert result2.returncode in (0, 4)
    result3 = run_cli("compare", str(trivial))
    assert result2.returncode == result3.returncode
    assert result2.stdout == result3.stdout


def test_compare_unequal_exit_code():
    # with truncation disabled the chain misses the last level, so the
    # spans genuinely differ
    result = run_cli("compare", "--no-truncation", str(MODELS / "example2.model"))
    assert result.returncode == 4
    assert "span comparison: unequal" in result.stdout
    assert "oracle-only: z" in result.stdout


def test_gauge_pair_spans_agree_but_the_chain_exhausts():
    # both constraints are first class: the oracle closes on {p_y, p_x},
    # and the chain finds the same span but ends exhausted
    result = run_cli("compare", str(MODELS / "gauge_pair.model"))
    assert result.returncode == 0
    assert "span comparison: equal" in result.stdout
    assert run_cli("analyze", str(MODELS / "gauge_pair.model")).returncode == 2


def test_compare_schwinger():
    result = run_cli("compare", str(MODELS / "schwinger_n3.model"))
    assert result.returncode == 0
    assert "span comparison: equal" in result.stdout
    assert result.stdout.count("consistency") >= 9


def test_lattice_generation(tmp_path):
    out = tmp_path / "gen.model"
    result = run_cli("lattice", "schwinger", "--sites", "3", "--spacing", "1",
                     "--out", str(out))
    assert result.returncode == 0
    text = out.read_text()
    assert text.startswith("model schwinger_n3\n")
    assert (MODELS / "schwinger_n3.model").read_text() == text


def test_lattice_rejects_even_central():
    result = run_cli("lattice", "schwinger", "--sites", "4")
    assert result.returncode == 1
    assert "odd" in result.stderr


def test_lattice_analyze_chains_into_compare():
    result = run_cli("lattice", "schwinger", "--sites", "3", "--analyze")
    assert result.returncode == 0
    assert "span comparison: equal" in result.stdout


def test_lattice_default_output_name(tmp_path):
    result = run_cli("lattice", "schwinger", "--sites", "3", cwd=tmp_path)
    assert result.returncode == 0
    assert (tmp_path / "schwinger_n3.model").exists()


def test_compare_deep_chain_closes_without_an_oracle_cap(tmp_path):
    # shift chain p_33 -> p_32 -> ... -> p_1 -> q_1 -> ... -> q_33: the
    # oracle closes after 66 passes, and the chain needs 66 levels
    k = 33
    qs = [f"q_{i}" for i in range(1, k + 1)]
    ps = [f"p_{i}" for i in range(1, k + 1)]
    h = " + ".join(f"p_{i}*q_{i + 1}" for i in range(1, k)) + " + q_1^2"
    model = tmp_path / "shift33.model"
    model.write_text(
        f"model shift33\nzeta {' '.join(qs + ps)}\nc {' '.join(ps + ['0'] * k)}\n"
        f"H {h}\nprimary p_{k}\n"
    )
    result = run_cli("compare", str(model))
    assert result.returncode == 4
    assert "max-level-reached" in result.stdout
    assert "Traceback" not in result.stderr
    result = run_cli("compare", "--max-level", "70", str(model))
    assert result.returncode == 0
    assert "span comparison: equal" in result.stdout


def test_lattice_zero_denominator_spacing_is_an_input_error(tmp_path):
    result = run_cli("lattice", "schwinger", "--spacing", "1/0", cwd=tmp_path)
    assert result.returncode == 1
    assert "error:" in result.stderr
    assert "--spacing" in result.stderr
    assert "Traceback" not in result.stderr


CUBIC_H = "model cubic\nzeta x y p_x p_y\nc p_x p_y 0 0\nH p_x^2 + x^3 + y*p_y\n"


def test_compare_cubic_hamiltonian(tmp_path):
    model = tmp_path / "cubic.model"
    model.write_text(CUBIC_H + "primary p_y\n")
    result = run_cli("compare", str(model), "--format", "tree")
    assert result.returncode == 0
    tree = json.loads(result.stdout)
    assert tree["termination"]["kind"] == "exhausted"
    assert tree["comparison"]["equal"] is True


def test_compare_nonlinear_primary_is_an_input_error(tmp_path):
    model = tmp_path / "nonlinear.model"
    model.write_text(CUBIC_H + "primary p_y^2\n")
    result = run_cli("compare", str(model))
    assert result.returncode == 1
    assert result.stderr.startswith("error: constraint gradient is not constant; ")
    assert "Traceback" not in result.stderr


def test_compare_nonlinear_c_is_an_input_error(tmp_path):
    model = tmp_path / "nonlinear_c.model"
    model.write_text("model nonlinear_c\nzeta q p\nc q*p 0\nH p^2\nprimary q\n")
    result = run_cli("compare", str(model))
    assert result.returncode == 1
    assert result.stderr.startswith("error: the symplectic tensor has non-constant entries")
    assert "Traceback" not in result.stderr


def test_compare_example2_with_shuffled_coordinates(tmp_path):
    """The oracle's bracket comes from f, not from the order of zeta."""
    model = tmp_path / "shuffled.model"
    model.write_text(
        "model shuffled\nzeta x p_x y p_y z p_z\nc p_x 0 p_y 0 p_z 0\n"
        "H x*z + y*z + p_x*p_y\nprimary p_z\n"
    )
    result = run_cli("compare", str(model))
    assert result.returncode == 0
    assert "span comparison: equal" in result.stdout


def test_compare_degenerate_f_with_primaries_is_an_input_error(tmp_path):
    model = tmp_path / "degenerate.model"
    model.write_text(
        "model degenerate\nzeta x y p_x p_y\nc p_x 0 0 0\nH p_x^2 + x*y + p_y^2\nprimary p_y\n"
    )
    result = run_cli("compare", str(model))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: the consistency oracle needs a nondegenerate base tensor f, but f has rank 2 of 4\n"
    )


def test_analyze_accepts_a_tab_after_a_keyword(tmp_path):
    model = tmp_path / "tab.model"
    model.write_text("model tab\nzeta\tx p\nc p 0\nH 1/2*p^2\n")
    result = run_cli("analyze", str(model))
    assert result.returncode == 0
    assert result.stderr == ""
    assert "phase space: x p" in result.stdout


@pytest.mark.parametrize("primaries", ["primary 1\n", "primary p\nprimary p + 1\n"])
@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_inconsistent_primaries_are_an_input_error(tmp_path, command, primaries):
    model = tmp_path / "inconsistent.model"
    model.write_text("model inconsistent\nzeta x p\nc p 0\nH 1/2*p^2\n" + primaries)
    result = run_cli(command, str(model))
    # the last primary, after the four header lines, brings 1 into the span
    line = 4 + primaries.count("\n")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        f"error: line {line}: primary constraints are inconsistent: their span holds the constant 1\n"
    )


def _in_process(argv):
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.getvalue()


def test_main_called_twice_in_one_process():
    """The parser is built once per process; no flag carries into the next call."""
    model = str(MODELS / "example2.model")
    calls = [
        ["compare", "--no-truncation", "--max-level", "2", "--format", "tree", model],
        ["analyze", model],
    ]
    for argv in calls:
        fresh = run_cli(*argv)
        assert _in_process(argv) == (fresh.returncode, fresh.stdout)


class _WriteSizes(io.StringIO):
    """A text stream that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["tree", "text"])
def test_lattice_report_is_streamed_while_it_renders(monkeypatch, fmt):
    """At N=51 the tree is about 3.6 MB and the text report about 0.45 MB; no write holds more than 64 KiB."""
    stdout = _WriteSizes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["lattice", "schwinger", "--sites", "51", "--analyze", "--format", fmt]) == 0
    monkeypatch.undo()
    model = build_schwinger(LatticeSpec(sites=51))
    report = run_chain(model, ChainOptions(max_level=12))
    oracle = consistency_algorithm(model)
    parts = (report, compare_spans(report, oracle.constraints), oracle)
    expected = render_tree(*parts) if fmt == "tree" else reference_text(*parts)
    assert stdout.getvalue() == expected
    assert len(expected) > 300_000
    assert max(stdout.sizes) <= 64 * 1024


def test_a_reader_that_stops_early_ends_the_report_not_the_run():
    """The N=21 tree is larger than a pipe holds, so the writes after the reader has gone fail."""
    argv = ["lattice", "schwinger", "--sites", "21", "--analyze", "--format", "tree"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "symchain", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=checkout_env(),
    )
    assert proc.stdout.read(100).startswith(b'{\n  "model": ')
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
