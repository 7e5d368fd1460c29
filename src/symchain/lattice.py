"""Periodic 1-D lattice build of the bosonized chiral gauge model.

The continuum fields (A0, A1, phi) and momenta (pi0, pi1, piphi) become
N site variables each, the spatial derivative becomes a circulant
difference matrix D, and the Hamiltonian density is summed with weight
a, so the whole constraint analysis runs through the same exact
finite-dimensional pipeline as the mechanical fixtures.

Site density (pi identified with piphi, E with pi1):

    1/2*(pi1^2 + piphi^2 + (D phi)^2) + pi1*(D A0)
      + (piphi + A1 + D phi)*(A1 - A0)

with the N primary constraints pi0_i.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .expressions import Expression, VarTable, _affine_form
from .model import FirstOrderModel

FIELD_NAMES = ("A0", "A1", "phi")
MOMENTUM_NAMES = ("pi0", "pi1", "piphi")
_BLOCKS = FIELD_NAMES + MOMENTUM_NAMES

CENTRAL = "central"
FORWARD = "forward"


class LatticeSpec(namedtuple("LatticeSpec", "sites spacing scheme", defaults=(Fraction(1), CENTRAL))):
    """Sites, spacing and difference scheme of a periodic lattice, and its site-variable layout.

    ``sites`` (int), ``spacing`` (Fraction), ``scheme`` (str).  The
    layout lists the field blocks first, then the momentum blocks.
    """

    __slots__ = ()
    # namedtuple's _replace builds through _make: route both through __new__'s checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.sites, int):
            raise ValueError(f"lattice sites must be an int, not {self.sites!r}")
        if self.sites < 3:
            raise ValueError("need at least 3 lattice sites")
        if not isinstance(self.spacing, (int, Fraction)):
            raise ValueError(f"lattice spacing must be an int or a Fraction, not {self.spacing!r}")
        if self.spacing <= 0:
            raise ValueError("lattice spacing must be positive")
        if self.scheme not in (CENTRAL, FORWARD):
            raise ValueError(f"unknown scheme '{self.scheme}'")
        if self.scheme == CENTRAL and self.sites % 2 == 0:
            raise ValueError("the central scheme needs an odd number of sites")
        return self

    def site_names(self, block: str) -> tuple[str, ...]:
        return tuple(f"{block}_{i}" for i in range(1, self.sites + 1))

    def zeta(self) -> VarTable:
        return VarTable([name for block in _BLOCKS for name in self.site_names(block)])


def _difference_row(spec: LatticeSpec, i: int) -> dict[int, Fraction]:
    """The nonzero entries of row i of the circulant D: +-1/(2a) at i+1 and i-1 (central), or 1/a at i+1 and -1/a at i."""
    n = spec.sites
    if spec.scheme == CENTRAL:
        half = Fraction(1, 2) / spec.spacing
        return {(i + 1) % n: half, (i - 1) % n: -half}
    inv = Fraction(1) / spec.spacing
    return {(i + 1) % n: inv, i: -inv}


def build_schwinger(spec: LatticeSpec) -> FirstOrderModel:
    """Finite-dimensional model of the gauge-boson/scalar system.

    6N coordinates, coefficient entries equal to the momentum variables
    in the field positions (zero elsewhere), the Hamiltonian summed over
    sites with weight a, and the N primaries pi0_i.  Each site density
    reads D's two nonzero entries in its row off the sparse stencil, so
    the build does work in proportion to N.
    """
    zeta = spec.zeta()
    n = spec.sites
    a0, a1, phi, pi0, pi1, piphi = (
        [Expression.variable(zeta, name) for name in spec.site_names(block)] for block in _BLOCKS
    )
    half = Fraction(1, 2)

    def density(i: int) -> Expression:
        drow = _difference_row(spec, i)
        dphi, da0 = (Expression.linear_combination(zeta, ((x, f[j]) for j, x in drow.items())) for f in (phi, a0))
        return (half * (pi1[i] * pi1[i] + piphi[i] * piphi[i] + dphi * dphi) + pi1[i] * da0
                + (piphi[i] + a1[i] + dphi) * (a1[i] - a0[i]))

    h = Expression.linear_combination(zeta, ((spec.spacing, density(i)) for i in range(n)))
    c = pi0 + pi1 + piphi  # field positions carry their momenta
    c += [Expression.zero(zeta) for _ in range(3 * n)]  # momentum positions
    primaries = pi0
    return FirstOrderModel(f"schwinger_n{n}", zeta, c, h, primaries)


class SiteStencil(namedtuple("SiteStencil", "site terms")):
    """A constraint resolved as per-site (identity / D) stencils on the blocks.

    ``site`` (int, 1-based); ``terms`` (tuple of (block, "I" or "D", coefficient)).
    """

    __slots__ = ()

    def describe(self) -> str:
        parts = []
        for block, kind, coeff in self.terms:
            body = block if kind == "I" else f"D({block})"
            mag = abs(coeff)
            text = body if mag == 1 else f"{mag}*{body}"
            if not parts:
                parts.append(text if coeff > 0 else "-" + text)
            else:
                parts.append((" + " if coeff > 0 else " - ") + text)
        return "".join(parts) + f" @ site {self.site}"


def map_constraint_to_sites(expr: Expression, spec: LatticeSpec):
    """Resolve the linear lattice constraint form ``expr`` as stencils applied at one site.

    Tries the sites i in ascending order and solves, per variable block, for
    coefficients (alpha, beta) with   block-coefficients = alpha*e_i + beta*D[i, :].
    Such a stencil is zero off the columns i-1, i, i+1 of each block, so only the
    sites j-1, j, j+1 are tried, j the block column of the first nonzero coefficient;
    each block is read off the nonzero entries of the integer affine form, and D's row off the spec.
    Returns a SiteStencil, or None when the constraint is not a
    single-site pattern (callers then fall back to the raw form).
    An ``expr`` over another table than the spec's zeta raises ``ValueError``.
    """
    n, names = spec.sites, expr.vars.names
    form = _affine_form(expr)
    keys = form[0].keys() - {len(names)} if form else ()  # the variables, not the constant term
    if len(names) != len(_BLOCKS) * n or any(names[i] != f"{_BLOCKS[i // n]}_{i % n + 1}" for i in keys):
        raise ValueError("constraint must live over the lattice's zeta table")
    if form is None or not form[0] or len(names) in form[0]:  # nonlinear, zero, or with a constant term
        return None
    coeffs, scale = form
    blocks: list[dict[int, int]] = [{} for _ in _BLOCKS]
    for i, x in coeffs.items():
        blocks[i // n][i % n] = x
    j = min(coeffs) % n
    for site in sorted({(j + step) % n for step in (-1, 0, 1)}):
        drow, terms = _difference_row(spec, site), []
        for block, target in zip(_BLOCKS, blocks):
            alpha, beta = _solve_stencil(target, site, drow) if target else (0, 0)
            if alpha is None:
                break
            terms += [(block, kind, x / scale) for kind, x in (("I", alpha), ("D", beta)) if x]
        else:  # the coefficients are not all zero, so neither are the terms
            return SiteStencil(site=site + 1, terms=tuple(terms))
    return None


def _solve_stencil(target: dict[int, int], site: int, drow: dict[int, Fraction]):
    """Solve target = alpha*e_site + beta*drow exactly, if possible, over column -> coefficient maps.

    With at least 3 sites drow is nonzero off the site, which fixes beta; alpha is then read
    off the site entry, and the unique candidate is checked on the site and both supports.
    """
    j = next(j for j, x in drow.items() if j != site and x)
    beta = target.get(j, 0) / drow[j]
    alpha = target.get(site, 0) - beta * drow.get(site, 0)
    if all(target.get(i, 0) == (alpha if i == site else 0) + beta * drow.get(i, 0) for i in {site, *target, *drow}):
        return alpha, beta
    return None, None
