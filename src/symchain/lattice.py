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

from .expressions import Expression, VarTable
from .linalg import RationalMatrix
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

    def block_slice(self, block: str) -> slice:
        i = _BLOCKS.index(block)
        return slice(i * self.sites, (i + 1) * self.sites)


def difference_matrix(spec: LatticeSpec) -> RationalMatrix:
    """Circulant derivative: central (S - S^T)/(2a) or forward (S - I)/a."""
    n = spec.sites
    a = spec.spacing
    rows = [[Fraction(0)] * n for _ in range(n)]
    if spec.scheme == CENTRAL:
        half = Fraction(1, 2) / a
        for i in range(n):
            rows[i][(i + 1) % n] += half
            rows[i][(i - 1) % n] -= half
    else:
        inv = Fraction(1) / a
        for i in range(n):
            rows[i][(i + 1) % n] += inv
            rows[i][i] -= inv
    return RationalMatrix(rows)


def build_schwinger(spec: LatticeSpec) -> FirstOrderModel:
    """Finite-dimensional model of the gauge-boson/scalar system.

    6N coordinates, coefficient entries equal to the momentum variables
    in the field positions (zero elsewhere), the Hamiltonian summed over
    sites with weight a, and the N primaries pi0_i.
    """
    zeta = spec.zeta()
    n = spec.sites
    d = difference_matrix(spec)

    a0, a1, phi, pi0, pi1, piphi = (
        [Expression.variable(zeta, name) for name in spec.site_names(block)] for block in _BLOCKS
    )

    dphi = [Expression.linear_combination(zeta, zip(row, phi)) for row in d.to_rows()]
    da0 = [Expression.linear_combination(zeta, zip(row, a0)) for row in d.to_rows()]

    half = Fraction(1, 2)
    h = Expression.zero(zeta)
    for i in range(n):
        density = half * (pi1[i] * pi1[i] + piphi[i] * piphi[i] + dphi[i] * dphi[i])
        density = density + pi1[i] * da0[i]
        density = density + (piphi[i] + a1[i] + dphi[i]) * (a1[i] - a0[i])
        h = h + density
    h = spec.spacing * h

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


def map_constraint_to_sites(constraint, spec: LatticeSpec):
    """Resolve a linear lattice constraint as stencils applied at one site.

    Tries the sites i in ascending order and solves, per variable block, for
    coefficients (alpha, beta) with   block-coefficients = alpha*e_i + beta*D[i, :].
    Such a stencil is zero off the columns i-1, i, i+1 of each block, so only the
    sites j-1, j, j+1 are tried, j the block column of the first nonzero coefficient.
    Returns a SiteStencil, or None when the constraint is not a
    single-site pattern (callers then fall back to the raw form).
    """
    expr: Expression = constraint.expr if hasattr(constraint, "expr") else constraint
    if not expr.is_linear():
        return None
    coeffs, const = expr.linear_coefficients()
    if const != 0 or not any(coeffs):
        return None
    d = difference_matrix(spec)
    j = next(k for k, x in enumerate(coeffs) if x) % spec.sites
    for site in sorted({(j + step) % spec.sites for step in (-1, 0, 1)}):
        terms: list[tuple[str, str, Fraction]] = []
        for block in _BLOCKS:
            alpha, beta = _solve_stencil(coeffs[spec.block_slice(block)], site, d)
            if alpha is None:
                break
            terms += [(block, kind, x) for kind, x in (("I", alpha), ("D", beta)) if x]
        else:  # the coefficients are not all zero, so neither are the terms
            return SiteStencil(site=site + 1, terms=tuple(terms))
    return None


def _solve_stencil(target: tuple[Fraction, ...], site: int, d: RationalMatrix):
    """Solve target = alpha*e_site + beta*D[site, :] exactly, if possible.

    With at least 3 sites every row of D has a nonzero entry off the
    site, which fixes beta; alpha is then read off the site entry, and
    the unique candidate is verified against every entry.
    """
    drow = d.row(site)
    j = next(j for j, x in enumerate(drow) if j != site and x)
    beta = target[j] / drow[j]
    alpha = target[site] - beta * drow[site]
    if all(t == (alpha if i == site else 0) + beta * x for i, (t, x) in enumerate(zip(target, drow))):
        return alpha, beta
    return None, None
