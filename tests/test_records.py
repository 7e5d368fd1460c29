"""The contract of symchain's immutable records.

Each record builds from positional and keyword arguments, fills its
defaults, prints a fixed ``repr``, compares and hashes by value, refuses
assignment to any field, and validates where it did before.
"""

from fractions import Fraction

import pytest

from symchain import (
    Candidate,
    ChainOptions,
    ChainReport,
    Constraint,
    ConstraintMatrix,
    Expression,
    FirstOrderModel,
    LatticeSpec,
    OracleResult,
    SecondOrderLagrangian,
    SiteStencil,
    SpanVerdict,
    Termination,
    VarTable,
)
from symchain.chain import LevelRecord
from symchain.dirac import MultiplierCondition

Z = VarTable(["x", "p"])
X = Expression.variable(Z, "x")
P = Expression.variable(Z, "p")
COORDS = VarTable(["x"])
XDOT = Expression.variable(SecondOrderLagrangian.full_table(COORDS), "xdot")
PRIMARY = Constraint(1, P, P, "primary")
END = Termination("exhausted", 1)
C = (P, Expression.zero(Z))

# (class, positional args, keyword args, repr)
CASES = [
    (
        Constraint,
        (1, P, 2 * P, "primary"),
        dict(level=1, expr=P, raw=2 * P, origin="primary"),
        "Constraint(level=1, expr=Expression('p'), raw=Expression('2*p'), origin='primary', generator=None)",
    ),
    (
        Candidate,
        ((1, 0), X, "new"),
        dict(vector=(1, 0), value=X, classification="new"),
        "Candidate(vector=(1, 0), value=Expression('x'), classification='new')",
    ),
    (
        LevelRecord,
        (1, False, (2, 3), ()),
        dict(level=1, truncated=False, shape=(2, 3), candidates=()),
        "LevelRecord(level=1, truncated=False, shape=(2, 3), candidates=())",
    ),
    (
        Termination,
        ("nonsingular", 2),
        dict(kind="nonsingular", level=2),
        "Termination(kind='nonsingular', level=2, determinant=None)",
    ),
    (
        ChainOptions,
        (),
        {},
        "ChainOptions(max_level=12, allow_truncation=True)",
    ),
    (
        ChainReport,
        ("m", ("x", "p"), ("lam1",), (), (), (), END),
        dict(
            model_name="m",
            zeta_names=("x", "p"),
            multiplier_names=("lam1",),
            constraints=(),
            levels=(),
            truncations=(),
            termination=END,
        ),
        "ChainReport(model_name='m', zeta_names=('x', 'p'), multiplier_names=('lam1',), "
        "constraints=(), levels=(), truncations=(), "
        "termination=Termination(kind='exhausted', level=1, determinant=None), warnings=())",
    ),
    (
        MultiplierCondition,
        (PRIMARY, X),
        dict(constraint=PRIMARY, condition=X),
        "MultiplierCondition(constraint=Constraint(level=1, expr=Expression('p'), raw=Expression('p'), "
        "origin='primary', generator=None), condition=Expression('x'))",
    ),
    (
        OracleResult,
        ((PRIMARY,), ()),
        dict(constraints=(PRIMARY,), multiplier_conditions=()),
        "OracleResult(constraints=(Constraint(level=1, expr=Expression('p'), raw=Expression('p'), "
        "origin='primary', generator=None),), multiplier_conditions=())",
    ),
    (
        ConstraintMatrix,
        (None, 0, (), None),
        dict(matrix=None, rank=0, first_class=(), determinant=None),
        "ConstraintMatrix(matrix=None, rank=0, first_class=(), determinant=None)",
    ),
    (
        SpanVerdict,
        (False, (X,), ()),
        dict(equal=False, only_in_first=(X,), only_in_second=()),
        "SpanVerdict(equal=False, only_in_first=(Expression('x'),), only_in_second=())",
    ),
    (
        LatticeSpec,
        (3,),
        dict(sites=3),
        "LatticeSpec(sites=3, spacing=Fraction(1, 1), scheme='central')",
    ),
    (
        SiteStencil,
        (1, (("A0", "I", Fraction(1)),)),
        dict(site=1, terms=(("A0", "I", Fraction(1)),)),
        "SiteStencil(site=1, terms=(('A0', 'I', Fraction(1, 1)),))",
    ),
    (
        SecondOrderLagrangian,
        (COORDS, XDOT * XDOT),
        dict(coordinates=COORDS, lagrangian=XDOT * XDOT),
        "SecondOrderLagrangian(coordinates=VarTable(x), lagrangian=Expression('xdot^2'))",
    ),
    (
        FirstOrderModel,
        ("m", Z, list(C), X * P, [P]),
        dict(name="m", zeta=Z, c=C, hamiltonian=X * P, primaries=(P,)),
        "FirstOrderModel('m', 2 coordinates, 1 primaries)",
    ),
]


# a chain null vector as Candidate.vector and Constraint.generator hold it: its nonzero (index, int) pairs
PAIRS = ((0, 1), (3, -2))
PAIR_CASES = [
    (
        Candidate,
        (PAIRS, X, "new"),
        dict(vector=PAIRS, value=X, classification="new"),
        "Candidate(vector=((0, 1), (3, -2)), value=Expression('x'), classification='new')",
    ),
    (
        Constraint,
        (2, X, 2 * X, "null-vector", PAIRS),
        dict(level=2, expr=X, raw=2 * X, origin="null-vector", generator=PAIRS),
        "Constraint(level=2, expr=Expression('x'), raw=Expression('2*x'), origin='null-vector', "
        "generator=((0, 1), (3, -2)))",
    ),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, text",
    CASES + PAIR_CASES,
    ids=[case[0].__name__ for case in CASES] + [f"{case[0].__name__}_pairs" for case in PAIR_CASES],
)
def test_record_contract(cls, args, kwargs, text):
    positional, keyword = cls(*args), cls(**kwargs)
    assert repr(positional) == repr(keyword) == text
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    for field in cls._fields:
        value = getattr(positional, field)
        with pytest.raises(AttributeError):
            setattr(positional, field, value)


def test_model_record(example2):
    assert repr(example2) == "FirstOrderModel('example2', 6 coordinates, 1 primaries)"
    m = FirstOrderModel("m", Z, C, X * P)
    assert m == ("m", Z, C, X * P, ()) and m.primaries == () and m.multiplier_names == ()
    name, zeta, c, h, primaries = example2
    assert example2[0] == name == "example2" and c == example2.c and primaries == example2.primaries
    assert example2.multiplier_names == ("lam1",)
    assert example2.working == zeta.extended(["lam1"])
    assert {example2: 1}[example2] == 1
    for prop in ("multiplier_names", "working"):
        with pytest.raises(AttributeError):
            setattr(example2, prop, ())


def test_record_defaults():
    assert ChainOptions() == ChainOptions(12, True)
    assert (ChainOptions().max_level, ChainOptions().allow_truncation) == (12, True)
    assert Termination("nonsingular", 3).determinant is None
    assert Constraint(1, P, P, "primary").generator is None
    assert ChainReport("m", (), (), (), (), (), END).warnings == ()
    spec = LatticeSpec(3)
    assert spec.spacing == Fraction(1) and type(spec.spacing) is Fraction
    assert spec.scheme == "central"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ChainOptions(max_level=0), "max_level must be >= 1"),
        (lambda: ChainOptions(0, True), "max_level must be >= 1"),
        (lambda: LatticeSpec(2), "need at least 3 lattice sites"),
        (lambda: LatticeSpec(3, Fraction(0)), "lattice spacing must be positive"),
        (lambda: LatticeSpec(3, scheme="x"), "unknown scheme 'x'"),
        (lambda: LatticeSpec(4), "the central scheme needs an odd number of sites"),
        (lambda: LatticeSpec(5.0), "lattice sites must be an int, not 5.0"),
        (lambda: LatticeSpec(3, 0.1), "lattice spacing must be an int or a Fraction, not 0.1"),
        (lambda: LatticeSpec(3, "1/2"), "lattice spacing must be an int or a Fraction, not '1/2'"),
        (
            lambda: SecondOrderLagrangian(COORDS, X),
            "Lagrangian must live over coordinates + velocities",
        ),
        # each model check in turn; the input also breaks every check after it
        (lambda: FirstOrderModel("m", COORDS, (), XDOT, [XDOT]), "phase space must have an even number of coordinates"),
        (lambda: FirstOrderModel("m", VarTable(["x", "lam1"]), (), XDOT), "variable name 'lam1' is reserved"),
        (lambda: FirstOrderModel("m", Z, (P,), XDOT, [XDOT]), "expected 2 coefficient entries, got 1"),
        (lambda: FirstOrderModel("m", Z, (P, XDOT), XDOT, [XDOT]), "coefficient entry uses a foreign VarTable"),
        (lambda: FirstOrderModel("m", Z, C, XDOT, [XDOT]), "Hamiltonian uses a foreign VarTable"),
        (lambda: FirstOrderModel("m", Z, C, X, [XDOT]), "primary constraint uses a foreign VarTable"),
        (lambda: FirstOrderModel("m", Z, C, X, [P, 2 * P]), "primary constraints are linearly dependent"),
    ],
)
def test_record_validation_texts(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "record, valid, invalid, message",
    [
        (ChainOptions(), dict(max_level=3), dict(max_level=0), "max_level must be >= 1"),
        (LatticeSpec(3), dict(sites=5), dict(sites=2), "need at least 3 lattice sites"),
        (
            SecondOrderLagrangian(COORDS, XDOT * XDOT),
            dict(lagrangian=2 * XDOT),
            dict(lagrangian=X),
            "Lagrangian must live over coordinates + velocities",
        ),
        (
            FirstOrderModel("m", Z, C, X * P),
            dict(name="n"),
            dict(zeta=COORDS),
            "phase space must have an even number of coordinates",
        ),
    ],
    ids=["ChainOptions", "LatticeSpec", "SecondOrderLagrangian", "FirstOrderModel"],
)
def test_replace_and_make_validate(record, valid, invalid, message):
    """namedtuple's _replace and _make build through the record's own checks."""
    cls = type(record)
    fields = record._asdict()
    for build in (lambda: record._replace(**invalid), lambda: cls._make({**fields, **invalid}.values())):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
    replaced = record._replace(**valid)
    assert type(replaced) is cls
    assert replaced == cls(**{**fields, **valid}) == cls._make({**fields, **valid}.values())
