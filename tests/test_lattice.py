from fractions import Fraction

import pytest

from symchain import (
    ChainOptions,
    LatticeSpec,
    SiteStencil,
    build_schwinger,
    compare_spans,
    consistency_algorithm,
    map_constraint_to_sites,
    run_chain,
)
from symchain.chain import _span
from symchain.lattice import _BLOCKS, _difference_row, _solve_stencil
from symchain import Expression, FirstOrderModel, VarTable, parse_expression
from polyref import degree, linear_coefficients, to_sympy


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


def difference_rows(spec):
    """D as dense Fraction rows, read off ``_difference_row``."""
    return [[_difference_row(spec, i).get(j, Fraction(0)) for j in range(spec.sites)] for i in range(spec.sites)]


def test_central_difference_matrix():
    d = difference_rows(LatticeSpec(sites=3, spacing=Fraction(1)))
    assert d == [
        [0, Fraction(1, 2), Fraction(-1, 2)],
        [Fraction(-1, 2), 0, Fraction(1, 2)],
        [Fraction(1, 2), Fraction(-1, 2), 0],
    ]
    # antisymmetry and annihilation of constants
    assert [list(col) for col in zip(*d)] == [[-x for x in row] for row in d]
    for i in range(3):
        assert sum(d[i]) == 0


def test_forward_difference_matrix():
    d = difference_rows(LatticeSpec(sites=3, spacing=Fraction(1, 2), scheme="forward"))
    assert d[0] == [Fraction(-2), Fraction(2), Fraction(0)]
    for i in range(3):
        assert sum(d[i]) == 0


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
    d = difference_rows(spec)

    def var(name, i):
        return Expression.variable(zeta, f"{name}_{i + 1}")

    def dvar(name, i):
        acc = Expression.zero(zeta)
        for j in range(n):
            if d[i][j]:
                acc = acc + d[i][j] * var(name, j)
        return acc

    levels = {1: [], 2: [], 3: [], 4: []}
    for i in range(n):
        levels[1].append(var("pi0", i))
        levels[2].append(dvar("pi1", i) + var("piphi", i) + dvar("phi", i) + var("A1", i))
        levels[3].append(var("pi1", i))
        levels[4].append(var("A0", i) - var("piphi", i) - dvar("phi", i) - 2 * var("A1", i))
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
        assert _span(got).rref() == _span(expected[level]).rref()


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
        st = map_constraint_to_sites(c.expr, spec)
        assert st is not None
        kinds = {(block, kind) for block, kind, _ in st.terms}
        assert kinds == {("A1", "I"), ("phi", "D"), ("pi1", "D"), ("piphi", "I")}

    for i, c in enumerate(by_level[3]):
        st = map_constraint_to_sites(c.expr, spec)
        assert st is not None
        assert st.describe() == f"pi1 @ site {i + 1}"

    for c in by_level[4]:
        st = map_constraint_to_sites(c.expr, spec)
        assert st is not None
        kinds = {(block, kind) for block, kind, _ in st.terms}
        assert kinds == {("A0", "I"), ("A1", "I"), ("phi", "D"), ("piphi", "I")}

    # single-variable constraint maps to itself
    st = map_constraint_to_sites(by_level[1][0].expr, spec)
    assert st.describe() == "pi0 @ site 1"


def test_stencil_mapping_falls_back_on_multi_site():
    spec = LatticeSpec(sites=3)
    m = build_schwinger(spec)
    two_sites = Expression.variable(m.zeta, "pi0_1") + Expression.variable(m.zeta, "piphi_2")
    assert map_constraint_to_sites(two_sites, spec) is None


def test_stencil_mapping_rejects_a_foreign_table():
    """A form over a longer table, or over 6N other names, is refused, not mapped."""
    spec = LatticeSpec(sites=3)
    over_working = parse_expression("pi0_1 + lam1", build_schwinger(spec).working)
    foreign = parse_expression("v6 + v0", VarTable([f"v{i}" for i in range(18)]))
    for expr in (over_working, foreign):
        with pytest.raises(ValueError, match="^constraint must live over the lattice's zeta table$"):
            map_constraint_to_sites(expr, spec)
    # the same names over the spec's own table: A0 + phi at site 1 is two blocks, each at one site
    assert map_constraint_to_sites(parse_expression("phi_1 + A0_1", spec.zeta()), spec).describe() == (
        "A0 + phi @ site 1"
    )


def _full_scan(expr, spec):
    """The site mapping by trying every site in turn, each block checked entry by entry."""
    if degree(expr) > 1:
        return None
    coeffs, const = linear_coefficients(expr)
    if const != 0:
        return None
    d = difference_rows(spec)
    for site in range(spec.sites):
        drow, terms = d[site], []
        for k, block in enumerate(_BLOCKS):
            target = coeffs[k * spec.sites : (k + 1) * spec.sites]
            j = next(j for j, x in enumerate(drow) if j != site and x)
            beta = target[j] / drow[j]
            alpha = target[site] - beta * drow[site]
            if any(target[i] != alpha * (i == site) + beta * drow[i] for i in range(spec.sites)):
                break
            terms += [(block, kind, x) for kind, x in (("I", alpha), ("D", beta)) if x]
        else:
            if terms:
                return SiteStencil(site + 1, tuple(terms))
    return None


@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(sites=n) for n in (3, 5, 7)] + [LatticeSpec(sites=n, scheme="forward") for n in (4, 6)],
    ids=["central_3", "central_5", "central_7", "forward_4", "forward_6"],
)
def test_stencil_mapping_tries_only_the_neighbouring_sites(spec):
    """Trying only the sites next to the first nonzero coefficient gives the full scan's answer.

    A pure D(block) stencil is first nonzero one column below its site, or one above where it wraps
    around, so every such stencil is checked too.
    """
    m = build_schwinger(spec)
    constraints = consistency_algorithm(m).constraints + run_chain(m).constraints
    assert len(constraints) > 4 * spec.sites
    for c in constraints:
        assert map_constraint_to_sites(c.expr, spec) == _full_scan(c.expr, spec)
    d = difference_rows(spec)
    for block in ("A0", "piphi"):
        fields = [Expression.variable(m.zeta, name) for name in spec.site_names(block)]
        for site in range(spec.sites):
            form = Expression.linear_combination(m.zeta, zip(d[site], fields))
            stencil = map_constraint_to_sites(form, spec)
            assert stencil == _full_scan(form, spec)
            assert stencil.describe() == f"D({block}) @ site {site + 1}"
    # a form that is no stencil at any site, and the zero form
    a0 = [Expression.variable(m.zeta, f"A0_{i}") for i in (1, 2, 3)]
    for form in (a0[0] + 2 * a0[1] + 3 * a0[2], Expression.zero(m.zeta)):
        assert map_constraint_to_sites(form, spec) is None
        assert _full_scan(form, spec) is None


def test_stencil_mapping_names_the_lowest_matching_site():
    """At N=3, (A0_1 + A0_2 - A0_3)/2 is a stencil at sites 1 and 2; the mapping names site 1."""
    spec = LatticeSpec(sites=3)
    a0 = [Expression.variable(spec.zeta(), f"A0_{i}") for i in (1, 2, 3)]
    form = Fraction(1, 2) * (a0[0] + a0[1] - a0[2])
    block = dict(enumerate(linear_coefficients(form)[0][:3]))
    assert [_solve_stencil(block, site, _difference_row(spec, site)) for site in range(3)] == [
        (Fraction(1, 2), 1), (Fraction(1, 2), -1), (None, None)
    ]
    assert map_constraint_to_sites(form, spec) == _full_scan(form, spec)
    assert map_constraint_to_sites(form, spec).describe() == "1/2*A0 + D(A0) @ site 1"


def _dense_build(spec):
    """The lattice model from the dense difference matrix D, its Hamiltonian summed site by site."""
    zeta, n = spec.zeta(), spec.sites
    d = difference_rows(spec)
    a0, a1, phi, pi0, pi1, piphi = (
        [Expression.variable(zeta, name) for name in spec.site_names(block)] for block in _BLOCKS
    )
    dphi = [Expression.linear_combination(zeta, zip(row, phi)) for row in d]
    da0 = [Expression.linear_combination(zeta, zip(row, a0)) for row in d]
    half = Fraction(1, 2)
    h = Expression.zero(zeta)
    for i in range(n):
        density = half * (pi1[i] * pi1[i] + piphi[i] * piphi[i] + dphi[i] * dphi[i])
        density = density + pi1[i] * da0[i]
        density = density + (piphi[i] + a1[i] + dphi[i]) * (a1[i] - a0[i])
        h = h + density
    h = spec.spacing * h
    c = pi0 + pi1 + piphi + [Expression.zero(zeta) for _ in range(3 * n)]
    return FirstOrderModel(f"schwinger_n{n}", zeta, c, h, pi0)


@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(n, a) for n in (3, 5, 7, 11, 21) for a in (Fraction(1), Fraction(1, 2), Fraction(3, 7))]
    + [LatticeSpec(n, scheme="forward") for n in (4, 6, 8)],
    ids=lambda spec: f"{spec.scheme}_{spec.sites}_{spec.spacing}".replace("/", "over"),
)
def test_build_equals_the_dense_build(spec):
    m, dense = build_schwinger(spec), _dense_build(spec)
    assert m == dense
    assert str(m.hamiltonian) == str(dense.hamiltonian)


def test_model_file_roundtrip(tmp_path):
    from symchain import load_model, save_model

    m = build_schwinger(LatticeSpec(sites=3, spacing=Fraction(1, 2)))
    path = tmp_path / "lat.model"
    save_model(m, path)
    assert load_model(path) == m
