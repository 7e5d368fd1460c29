import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import symchain
from symchain import reports
from checkout import checkout_env


def test_every_export_resolves():
    for name in symchain.__all__:
        assert hasattr(symchain, name), name


def test_exports_are_exactly_the_public_names():
    bound = {
        name
        for name, obj in vars(symchain).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert sorted(symchain.__all__) == sorted(bound)
    assert len(set(symchain.__all__)) == len(symchain.__all__)


def test_the_pairing_convention_is_gone():
    # the oracle reads its bracket off the base tensor f; the bracket on
    # explicit (q, p) pairs is a test-side reference (tests/brackets.py)
    for name in ("CanonicalPairing", "derive_pairing", "poisson_bracket"):
        assert not hasattr(symchain, name), name
        assert not hasattr(symchain.dirac, name), name


def test_find_new_constraints_is_gone():
    # run_chain classifies its candidates in one private path; tests
    # build the reference from polyref's bordered F, sympy's null basis and EchelonBasis
    assert not hasattr(symchain, "find_new_constraints")
    assert not hasattr(symchain.chain, "find_new_constraints")


def test_the_gradient_format_is_gone():
    # grad(H) is one (vec, scale) pair per component, summed by linalg._combine, and the
    # oracle builds its multiplier conditions over the working table without a substitution
    assert not hasattr(symchain.chain, "_Gradient")
    for path in sorted(Path(symchain.__file__).parent.glob("*.py")):
        assert ".substitute(" not in path.read_text(), path.name


def test_surface_without_a_program_caller_is_gone():
    # the CLI, the demos and perfbench need none of these; tests use polyref and sympy
    for name in ("substitute", "evaluate", "constant_value", "is_constant", "constant", "linear_coefficients"):
        assert not hasattr(symchain.Expression, name), name
    for name in ("linear_expression", "FieldSet"):
        assert not hasattr(symchain, name), name
        assert not hasattr(symchain.expressions, name) and not hasattr(symchain.lattice, name), name
    assert not hasattr(reports, "report_tree")
    # the CLI streams the text report through write_text; tests join its pieces
    assert not hasattr(reports, "render_text")
    assert not hasattr(symchain.LatticeSpec, "block_slice")
    assert not hasattr(symchain.EchelonBasis, "__len__")
    assert not hasattr(symchain.ConstraintMatrix, "second_class_count")
    # absorb is the one way rows enter the kernel; nothing builds with unary minus, ** or int - Expression
    for name in ("add", "insert"):
        assert not hasattr(symchain.linalg.SparseEchelon, name), name
    for name in ("__neg__", "__pow__", "__rsub__"):
        assert not hasattr(symchain.Expression, name), name
    # EchelonBasis.rref is the one reduced row-echelon form; sympy's is the tests' reference
    assert not hasattr(symchain, "rref") and not hasattr(symchain.linalg, "rref")


def test_dense_views_share_one_kernel_call():
    # the dense-matrix layer is gone: every elimination is a SparseEchelon that its caller fills by absorb
    for name in ("null_space_and_determinant", "_columns", "_sparse"):
        assert not hasattr(symchain.linalg, name), name


def test_the_dense_matrix_layer_is_gone():
    # the tests' references are polyref's bordered F, sympy, and SparseEchelon driven directly;
    # classify returns C's rows and det C, and the lattice builds from D's sparse rows
    deleted = (
        "RationalMatrix", "rank", "determinant", "left_null_space", "_eliminated", "_rows",
        "assemble_extended_matrix", "difference_matrix",
    )
    for name in deleted:
        assert name not in symchain.__all__ and not hasattr(symchain, name), name
        for module in (symchain.linalg, symchain.chain, symchain.lattice):
            assert not hasattr(module, name), (module.__name__, name)


def test_tuple_elimination_helpers_are_gone():
    # the elimination state is a SparseEchelon: absorb, copy, null_basis
    for name in ("_absorb", "_null_basis", "_dense"):
        assert not hasattr(symchain.linalg, name)


def test_elimination_speaks_only_ints_below_the_expression_boundary():
    # SparseEchelon takes int vectors; the rational views are built by its callers
    for name in ("remainder", "reduced_rows"):
        assert not hasattr(symchain.linalg.SparseEchelon, name), name
    assert not hasattr(symchain.chain, "_base_columns")
    # only linalg calls the kernel's own steps, and only expressions holds an EchelonBasis' kernel
    steps = ("_eliminate(", "_back_substitute(", "_normalized(", "_null_vector(")
    package = Path(symchain.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        if path.name == "linalg.py":
            assert all(step in text for step in steps)
        else:
            assert not any(step in text for step in steps), path.name
        if path.name != "expressions.py":
            assert "._kernel" not in text, path.name


def test_the_affine_form_layout_lives_in_expressions():
    # expressions alone converts between an Expression, int monomial sums and the integer affine form;
    # the chain, the oracle and the lattice call its conversions and index no monomial themselves
    assert not hasattr(symchain.expressions, "_linear_part")
    assert not hasattr(symchain.EchelonBasis, "_add_sums")
    package = Path(symchain.__file__).parent
    for name in ("chain.py", "dirac.py", "lattice.py"):
        text = (package / name).read_text()
        for needle in ("_linear_part", "mono[0]", "Fraction(s, den"):
            assert needle not in text, (name, needle)


def test_import_loads_no_unused_stdlib_machinery():
    # records are namedtuples, annotations stay strings, files open with open()
    code = (
        "import sys, symchain, symchain.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=checkout_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_a_model_refuses_assignment_to_its_fields_and_properties(example2):
    # FirstOrderModel has an instance __dict__ for its cached integer view, and stays immutable
    for name in (*symchain.FirstOrderModel._fields, "multiplier_names", "working"):
        value = getattr(example2, name)
        with pytest.raises(AttributeError):
            setattr(example2, name, value)
        assert getattr(example2, name) == value
