from fractions import Fraction

import pytest

from symchain import (
    ChainOptions,
    LatticeSpec,
    RationalMatrix,
    build_schwinger,
    compare_spans,
    consistency_algorithm,
    difference_matrix,
    map_constraint_to_sites,
    run_chain,
)
from symchain.chain import _span
from symchain import Expression
from polyref import to_sympy


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(sites=2)
    with pytest.raises(ValueError):
        LatticeSpec(sites=4, scheme="central")
    with pytest.raises(ValueError):
        LatticeSpec(sites=3, spacing=Fraction(0))
    with pytest.raises(ValueError):
        LatticeSpec(sites=3, scheme="upwind")
    LatticeSpec(sites=4, scheme="forward")  # even sites fine off-center


def test_central_difference_matrix():
    d = difference_matrix(LatticeSpec(sites=3, spacing=Fraction(1)))
    assert d == RationalMatrix(
        [
            [0, Fraction(1, 2), Fraction(-1, 2)],
            [Fraction(-1, 2), 0, Fraction(1, 2)],
            [Fraction(1, 2), Fraction(-1, 2), 0],
        ]
    )
    # antisymmetry and annihilation of constants
    assert RationalMatrix(zip(*d.to_rows())) == RationalMatrix([[-x for x in row] for row in d.to_rows()])
    for i in range(3):
        assert sum(d.row(i)) == 0


def test_forward_difference_matrix():
    d = difference_matrix(LatticeSpec(sites=3, spacing=Fraction(1, 2), scheme="forward"))
    assert d.row(0) == (Fraction(-2), Fraction(2), Fraction(0))
    for i in range(3):
        assert sum(d.row(i)) == 0


def test_build_counts_and_structure():
    m = build_schwinger(LatticeSpec(sites=3))
    assert m.name == "schwinger_n3"
    assert len(m.zeta) == 18
    assert len(m.primaries) == 3
    assert len(m.multiplier_names) == 3
    assert [str(p) for p in m.primaries] == ["pi0_1", "pi0_2", "pi0_3"]
    # field positions carry the momenta; momentum positions carry zero
    assert [str(e) for e in m.c[:9]] == [
        "pi0_1", "pi0_2", "pi0_3", "pi1_1", "pi1_2", "pi1_3",
        "piphi_1", "piphi_2", "piphi_3",
    ]
    assert all(e.is_zero() for e in m.c[9:])


def test_hamiltonian_vanishes_at_zero_configuration():
    m = build_schwinger(LatticeSpec(sites=5))
    zero = {name: 0 for name in m.zeta.names}
    assert to_sympy(m.hamiltonian).subs(zero) == 0


def expected_stencils(m, spec):
    """The published per-site constraint forms with the derivative as D."""
    zeta = m.zeta
    n = spec.sites
    d = difference_matrix(spec)

    def var(name, i):
        return Expression.variable(zeta, f"{name}_{i + 1}")

    def dvar(name, i):
        acc = Expression.zero(zeta)
        for j in range(n):
            if d.entry(i, j):
                acc = acc + d.entry(i, j) * var(name, j)
        return acc

    levels = {1: [], 2: [], 3: [], 4: []}
    for i in range(n):
        levels[1].append(var("pi0", i))
        levels[2].append(dvar("pi1", i) + var("piphi", i) + dvar("phi", i) + var("A1", i))
        levels[3].append(var("pi1", i))
        levels[4].append(
            -var("piphi", i) - dvar("phi", i) - 2 * var("A1", i) + var("A0", i)
        )
    return levels


@pytest.mark.parametrize("sites", [3, 5])
def test_chain_matches_published_stencils_per_level(sites):
    spec = LatticeSpec(sites=sites)
    m = build_schwinger(spec)
    report = run_chain(m)
    assert report.termination.kind == "nonsingular"
    assert report.truncations == (3,)
    assert len(report.constraints) == 4 * sites
    expected = expected_stencils(m, spec)
    for level in range(1, 5):
        got = [c.expr for c in report.constraints if c.level == level]
        assert len(got) == sites
        assert _span(got)[1] == _span(expected[level])[1]


def test_chain_oracle_span_agreement():
    for sites in (3, 5):
        m = build_schwinger(LatticeSpec(sites=sites))
        report = run_chain(m)
        res = consistency_algorithm(m)
        assert len(res.constraints) == 4 * sites
        assert compare_spans(report, res.constraints).equal


def test_forward_scheme_chain():
    # the forward scheme loses exact antisymmetry of D (and allows even
    # site counts) but the chain structure is unchanged
    m = build_schwinger(LatticeSpec(sites=4, scheme="forward"))
    report = run_chain(m)
    res = consistency_algorithm(m)
    assert len(report.constraints) == 16
    assert report.num_levels() == 4
    assert report.truncations == (3,)
    assert report.termination.kind == "nonsingular"
    assert compare_spans(report, res.constraints).equal


@pytest.mark.parametrize("sites", [3, 5, 7, 9, 11, 13])
def test_central_unit_spacing_determinant_is_a_power_of_two(sites):
    report = run_chain(build_schwinger(LatticeSpec(sites=sites)))
    assert report.termination.kind == "nonsingular"
    assert report.termination.determinant == 2 ** (4 * sites - 2)


@pytest.mark.parametrize(
    "spec",
    [
        LatticeSpec(sites=6, scheme="forward"),
        LatticeSpec(sites=8, scheme="forward"),
        LatticeSpec(sites=5, spacing=Fraction(1, 2)),
        LatticeSpec(sites=7, spacing=Fraction(3, 7)),
        LatticeSpec(sites=3, spacing=Fraction(3, 7)),
    ],
    ids=lambda spec: f"{spec.scheme}_{spec.sites}_{spec.spacing}",
)
def test_one_four_level_chain_per_site(spec):
    # the continuum's single chain, truncated at level 3, once per site
    # (forward N=4 is test_forward_scheme_chain)
    m = build_schwinger(spec)
    report = run_chain(m)
    assert len(report.constraints) == 4 * spec.sites
    assert report.num_levels() == 4
    assert report.truncations == (3,)
    assert report.termination.kind == "nonsingular"
    assert compare_spans(report, consistency_algorithm(m).constraints).equal


def test_stencil_mapping():
    spec = LatticeSpec(sites=3)
    m = build_schwinger(spec)
    res = consistency_algorithm(m)
    by_level = {}
    for c in res.constraints:
        by_level.setdefault(c.level, []).append(c)

    for c in by_level[2]:
        st = map_constraint_to_sites(c, spec)
        assert st is not None
        kinds = {(block, kind) for block, kind, _ in st.terms}
        assert kinds == {("A1", "I"), ("phi", "D"), ("pi1", "D"), ("piphi", "I")}

    for i, c in enumerate(by_level[3]):
        st = map_constraint_to_sites(c, spec)
        assert st is not None
        assert st.describe() == f"pi1 @ site {i + 1}"

    for c in by_level[4]:
        st = map_constraint_to_sites(c, spec)
        assert st is not None
        kinds = {(block, kind) for block, kind, _ in st.terms}
        assert kinds == {("A0", "I"), ("A1", "I"), ("phi", "D"), ("piphi", "I")}

    # single-variable constraint maps to itself
    st = map_constraint_to_sites(by_level[1][0], spec)
    assert st.describe() == "pi0 @ site 1"


def test_stencil_mapping_falls_back_on_multi_site():
    spec = LatticeSpec(sites=3)
    m = build_schwinger(spec)
    two_sites = Expression.variable(m.zeta, "pi0_1") + Expression.variable(m.zeta, "piphi_2")
    assert map_constraint_to_sites(two_sites, spec) is None


def test_model_file_roundtrip(tmp_path):
    from symchain import load_model, save_model

    m = build_schwinger(LatticeSpec(sites=3, spacing=Fraction(1, 2)))
    path = tmp_path / "lat.model"
    save_model(m, path)
    assert load_model(path) == m
