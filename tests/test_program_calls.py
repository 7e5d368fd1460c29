"""Every public callable in ``src/symchain`` is called by a program.

The programs are the CLI, the demos and perfbench.  The test runs them in
one process under ``sys.setprofile`` and records every code object entered;
a public function, method, property or constructor of the package whose
code never runs has no program caller, and ``src/`` keeps only what one calls.
Operator methods such as ``__add__`` count as public methods too.  The
exempt dunders are the constructors (``__init__``, ``__new__``), which
count under the class's own name, and the protocol methods ``__eq__``,
``__hash__`` and ``__repr__``, which keep the type's equality, hashing and
debug view consistent whether or not a program reads them.
"""

import importlib
import inspect
import io
import pkgutil
import runpy
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import symchain
import symchain.cli

ROOT = Path(__file__).resolve().parents[1]

# kept without a program caller by decision: the derivative is the
# reference the tests' brackets and the Legendre-transform checks read
NOT_CALLED_ON_PURPOSE = {"Expression.differentiate"}

# not checked; the module docstring says why
EXEMPT_DUNDERS = {"__init__", "__new__", "__eq__", "__hash__", "__repr__"}

MODEL_ERRORS = {
    "parse": "model bad\nzeta q p\nc p 0\nH p^^2\n",
    "unknown-variable": "model bad\nzeta q p\nc p 0\nH r^2\n",
    "dependent-primaries": "model bad\nzeta q p\nc p 0\nH 1/2*p^2\nprimary p\nprimary 2*p\n",
    "unknown-keyword": "model bad\nzeta q p\nc p 0\nH 1/2*p^2\nbogus p\n",
}


def _public_code():
    """Each public callable defined in the package, by qualified name, with its code object."""
    found = {}
    for info in pkgutil.iter_modules(symchain.__path__):
        module = importlib.import_module(f"symchain.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[name] = obj.__code__
            elif inspect.isclass(obj):
                found.update(_class_code(obj))
    return found


def _class_code(cls):
    """The constructor, public and operator methods and properties of ``cls``, by qualified name."""
    found = {}
    for base in cls.__mro__:
        # a record's constructor is its own __new__ or that of the namedtuple it extends
        ctor = vars(base).get("__new__") or vars(base).get("__init__")
        if ctor is not None:
            func = getattr(ctor, "__func__", ctor)
            if inspect.isfunction(func):
                found[cls.__name__] = func.__code__
            break
    for name, attr in vars(cls).items():
        dunder = name.startswith("__") and name.endswith("__")
        if name in EXEMPT_DUNDERS or (name.startswith("_") and not dunder):
            continue
        func = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
        if inspect.isfunction(func):
            found[f"{cls.__name__}.{name}"] = func.__code__
    return found


def _run_programs(tmp_path):
    cli = symchain.cli.main
    for model in sorted((ROOT / "models").glob("*.model")):
        for command in ("analyze", "compare"):
            for fmt in ("text", "tree"):
                cli([command, "--format", fmt, str(model)])
    example2 = str(ROOT / "models" / "example2.model")
    cli(["lattice", "schwinger", "--sites", "3", "--out", str(tmp_path / "n3.model")])
    cli(["lattice", "schwinger", "--sites", "3", "--analyze"])
    cli(["lattice", "schwinger", "--sites", "4", "--scheme", "forward", "--spacing", "1/2",
         "--out", str(tmp_path / "n4.model")])
    cli(["analyze", "--no-truncation", example2])
    cli(["analyze", "--max-level", "1", example2])
    for kind, text in MODEL_ERRORS.items():
        path = tmp_path / f"{kind}.model"
        path.write_text(text)
        assert cli(["analyze", str(path)]) == 1, kind
    assert cli(["lattice", "schwinger", "--spacing", "1/0", "--analyze"]) == 1
    assert cli(["compare"]) == 1
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    bench = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    clock = lambda: 0.0  # noqa: E731
    bench["run_lattice"](bench["lattice_pool"](1, 1)[0], clock)
    bench["run_deep_chain"](bench["deep_chain_pool"](1, 1)[0], clock)
    bench["run_model_file"](bench["model_batch_pool"](1, 1, str(tmp_path))[0], clock)


def test_every_public_callable_has_a_program_caller(tmp_path):
    public = _public_code()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            _run_programs(tmp_path)
        finally:
            sys.setprofile(None)
    never = sorted(name for name, code in public.items() if code not in entered)
    assert never == sorted(NOT_CALLED_ON_PURPOSE)
