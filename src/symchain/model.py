"""First-order Lagrangian data, with a Legendre front-end.

A first-order model is L = sum_a c_a(zeta) * zetadot_a - H(zeta) together
with its primary constraints.  Velocity-quadratic second-order Lagrangians
are converted by ``legendre_transform``.  Models round-trip through a
line-oriented text format (see ``load_model``).
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .expressions import EchelonBasis, Expression, ParseError, VarTable, _ONE, _add, _mul, parse_expression
from .linalg import SparseEchelon, _integral

# multiplier symbols (lam<k>) and auxiliary directions (xi<k>) are
# never zeta names
_RESERVED = re.compile(r"^(xi|lam)[0-9]+$")


class ModelFormatError(ValueError):
    """Malformed model file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FirstOrderModel(namedtuple("FirstOrderModel", "name zeta c hamiltonian primaries", defaults=((),))):
    """Validated first-order Lagrangian data, immutable.

    ``name`` (str); ``zeta`` (VarTable, even length, no reserved names);
    ``c`` (Expression tuple, one entry per coordinate); ``hamiltonian``
    (Expression); ``primaries`` (Expression tuple).  c, the Hamiltonian and
    the primaries live over zeta only.  Two properties: ``multiplier_names``
    lam1..lamM, one per primary, and ``working``, zeta followed by them.
    """

    __slots__ = ()
    # namedtuple's _replace builds through _make: route both through __new__'s checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, name, zeta, c, hamiltonian, primaries=()):
        if len(zeta) % 2 != 0:
            raise ValueError("phase space must have an even number of coordinates")
        _check_reserved(zeta)
        c = tuple(c)
        if len(c) != len(zeta):
            raise ValueError(f"expected {len(zeta)} coefficient entries, got {len(c)}")
        for e in c:
            if e.vars != zeta:
                raise ValueError("coefficient entry uses a foreign VarTable")
        if hamiltonian.vars != zeta:
            raise ValueError("Hamiltonian uses a foreign VarTable")
        primaries = tuple(primaries)
        if any(p.vars != zeta for p in primaries):
            raise ValueError("primary constraint uses a foreign VarTable")
        _check_primaries(primaries, zeta)
        return super().__new__(cls, name, zeta, c, hamiltonian, primaries)

    @property
    def multiplier_names(self) -> tuple[str, ...]:
        return tuple(f"lam{i + 1}" for i in range(len(self.primaries)))

    @property
    def working(self) -> VarTable:
        return self.zeta.extended(self.multiplier_names)

    def __repr__(self) -> str:
        return f"FirstOrderModel({self.name!r}, {len(self.zeta)} coordinates, {len(self.primaries)} primaries)"


def _check_reserved(zeta: VarTable) -> None:
    for var in zeta:
        if _RESERVED.match(var):
            raise ValueError(f"variable name '{var}' is reserved")


class PrimaryError(ValueError):
    """A primary that is zero, or dependent on or inconsistent with those before it, at ``index``."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _check_primaries(primaries: Sequence[Expression], zeta: VarTable) -> None:
    """Primaries must be nonzero; linear ones must be independent and hold at some point."""
    linear = all(p.is_linear() for p in primaries)
    basis = EchelonBasis(zeta)
    for i, p in enumerate(primaries):
        if p.is_zero():
            raise PrimaryError("primary constraint is identically zero", i)
        if linear and not basis.add(p):
            raise PrimaryError("primary constraints are linearly dependent", i)
        # an affine span has no common zero iff it holds 1
        if linear and basis.holds_constant():
            raise PrimaryError("primary constraints are inconsistent: their span holds the constant 1", i)


class SecondOrderLagrangian(namedtuple("SecondOrderLagrangian", "coordinates lagrangian")):
    """L(q, qdot), at most quadratic in the velocities.

    ``coordinates`` (VarTable); ``lagrangian`` (Expression) over the
    coordinates followed by the auto-named velocities (x -> xdot); the
    velocity Hessian must be constant.
    """

    __slots__ = ()
    # namedtuple's _replace builds through _make: route both through __new__'s checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.lagrangian.vars != SecondOrderLagrangian.full_table(self.coordinates):
            raise ValueError("Lagrangian must live over coordinates + velocities")
        return self

    @staticmethod
    def velocity_names(coordinates: VarTable) -> tuple[str, ...]:
        return tuple(f"{q}dot" for q in coordinates)

    @staticmethod
    def full_table(coordinates: VarTable) -> VarTable:
        return coordinates.extended(SecondOrderLagrangian.velocity_names(coordinates))

    @staticmethod
    def phase_space(coordinates: VarTable) -> VarTable:
        """The coordinates followed by their momenta (x -> p_x), checked as a zeta table."""
        zeta = coordinates.extended(f"p_{q}" for q in coordinates)
        _check_reserved(zeta)
        return zeta


def legendre_transform(l: SecondOrderLagrangian, name: str = "model") -> FirstOrderModel:
    """Pass to the Hamiltonian picture, collecting primary constraints.

    Momenta are named p_<q>.  Solvable momentum relations eliminate the
    velocities; each left-null direction of the (constant) velocity
    Hessian contributes one primary constraint.  The returned model has
    c = (p_1, ..., p_n, 0, ..., 0) in the (q's, p's) coordinate order.
    """
    coords = l.coordinates
    n = len(coords)
    # index k < n is q_k in both tables, n + k is qdot_k in L's and p_k in zeta's,
    # so coordinate monomials and the momenta need no renumbering; one pass
    # splits L = c0(q) + b(q).v + v^T W v / 2, exact once W is constant
    rows = [{n + i: 1} for i in range(n)]  # [W_i | e_i], e_i at column n + i
    pb = [{((n + i, 1),): _ONE} for i in range(n)]  # p - b(q)
    c0 = {}
    for mono, coeff in l.lagrangian.terms.items():
        q = tuple(pair for pair in mono if pair[0] < n)
        v = mono[len(q):]
        if not v:
            c0[mono] = coeff
        elif len(v) == 1 and v[0][1] == 1:
            pb[v[0][0] - n][q] = -coeff
        elif q or sum(e for _, e in v) > 2:
            raise ValueError("velocity Hessian is not constant")
        else:  # v_i*v_j, or v_i^2 whose second derivative is twice its coefficient
            i, j = v[0][0] - n, v[-1][0] - n
            rows[i][j] = rows[j][i] = coeff * v[0][1]

    zeta = SecondOrderLagrangian.phase_space(coords)

    # Gauss-Jordan on the integral rows, pivoting as by hand: at each column, the
    # first row in swapped order whose remainder is nonzero there moves up to
    # position r; a row's e half u stands for the combination u.(p - b(q))
    ints = [_integral(row) for row in rows]
    kernel = SparseEchelon()
    order = list(range(n))
    for col in range(n):
        r = len(kernel.rows)
        for s in range(r, n):
            vec = kernel.reduce(dict(ints[order[s]][0]), 1)[0]
            if col in vec:
                order[r], order[s] = order[s], order[r]
                kernel.absorb([(vec, 1)])
                break

    def rhs(row: dict, scale: int) -> dict:
        out = {}
        for j, x in row.items():
            if j >= n:
                _add(out, pb[j - n], Fraction(x, scale))
        return out

    vstar = [{}] * n
    for pivot, row in kernel.rows.items():  # free velocities are 0
        vstar[pivot] = rhs(row, row[pivot])
    # each row left out, in swapped order, reduces to u.(p - b(q)) for a left-null direction u
    # of W: a primary constraint, never zero since the momenta are independent symbols
    primaries = [Expression._trusted(zeta, rhs(*kernel.reduce(*ints[i]))) for i in order[len(kernel.rows):]]

    # H = p.v* - L(q, v*) = sum_i v*_i (p_i - b_i - (W v*)_i / 2) - c0
    h = _add({}, c0, -1)
    for i, vi in enumerate(vstar):
        if vi:
            factor = dict(pb[i])
            for j, x in rows[i].items():
                if j < n:
                    _add(factor, vstar[j], -x / 2)
            _add(h, _mul(vi, factor))

    c = [Expression.variable(zeta, p) for p in zeta.names[n:]] + [Expression.zero(zeta)] * n
    return FirstOrderModel(name, zeta, c, Expression._trusted(zeta, h), primaries)


# -- model file format ------------------------------------------------
#
#   model  <name>
#   vars   x y z                # base coordinates (second-order form), OR
#   zeta   x y z p_x p_y p_z    # explicit phase space (first-order form)
#   L      xdot*ydot - z*(x+y)  # second-order form, OR the pair:
#   c      p_x p_y p_z 0 0 0
#   H      p_x*p_y + z*(x+y)
#   primary p_z                 # one per line; first-order form only
#
# Comments run from '#' to end of line.  Exactly one of L or (c, H) must
# be present.  Entries on the 'c' line are whitespace-separated, so each
# one must be written without internal spaces.


_SINGLE_KEYWORDS = ("model", "vars", "zeta", "L", "c", "H")  # at most one line each


def load_model(path: str | os.PathLike) -> FirstOrderModel:
    """Load and validate a model file; second-order form is transformed on load."""
    with open(path, encoding="utf-8") as file:
        text = file.read()
    found: dict[str, tuple[int, str]] = {}  # keyword -> (line number, rest)
    primary_lines: list[tuple[int, str]] = []

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        key, *tail = line.split(None, 1)
        rest = tail[0] if tail else ""
        if key == "primary":
            primary_lines.append((lineno, rest))
        elif key in _SINGLE_KEYWORDS:
            if key in found:
                raise ModelFormatError(f"duplicate '{key}' line", lineno)
            if key == "model" and not rest:
                raise ModelFormatError("missing model name", lineno)
            found[key] = (lineno, rest)
        else:
            raise ModelFormatError(f"unknown keyword '{key}'", lineno)

    if "model" not in found:
        raise ModelFormatError("missing 'model' line", 1)
    name = found["model"][1]
    vars_line = found.get("vars")
    zeta_line = found.get("zeta")
    l_line = found.get("L")
    c_line = found.get("c")
    h_line = found.get("H")

    second_order = l_line is not None
    first_order = c_line is not None or h_line is not None
    if second_order and first_order:
        raise ModelFormatError("give either 'L' or the pair 'c'/'H', not both", l_line[0])
    if not second_order and not first_order:
        raise ModelFormatError("model needs 'L' or the pair 'c'/'H'", 1)

    if second_order:
        if vars_line is None:
            raise ModelFormatError("second-order form needs a 'vars' line", l_line[0])
        if zeta_line is not None:
            raise ModelFormatError("'zeta' belongs to the first-order form", zeta_line[0])
        if primary_lines:
            raise ModelFormatError(
                "'primary' lines are not allowed in second-order form "
                "(primaries are computed)",
                primary_lines[0][0],
            )
        coords = _table(*vars_line)
        try:
            table = SecondOrderLagrangian.full_table(coords)
            SecondOrderLagrangian.phase_space(coords)  # the momenta's names, reported at this line
        except ValueError as exc:
            raise ModelFormatError(str(exc), vars_line[0]) from exc
        lag = _parse(l_line[1], table, l_line[0])
        try:
            return legendre_transform(SecondOrderLagrangian(coords, lag), name=name)
        except ValueError as exc:
            raise ModelFormatError(str(exc), l_line[0]) from exc

    if zeta_line is None:
        raise ModelFormatError("first-order form needs a 'zeta' line", 1)
    if vars_line is not None:
        raise ModelFormatError("'vars' belongs to the second-order form", vars_line[0])
    if c_line is None or h_line is None:
        raise ModelFormatError("first-order form needs both 'c' and 'H'", zeta_line[0])
    zeta = _table(*zeta_line)
    entries = c_line[1].split()
    if len(entries) != len(zeta):
        raise ModelFormatError(
            f"'c' needs {len(zeta)} entries, got {len(entries)}", c_line[0]
        )
    c = [_parse(entry, zeta, c_line[0]) for entry in entries]
    h = _parse(h_line[1], zeta, h_line[0])
    primaries = [_parse(text, zeta, ln) for ln, text in primary_lines]
    try:
        return FirstOrderModel(name, zeta, c, h, primaries)
    except PrimaryError as exc:
        raise ModelFormatError(str(exc), primary_lines[exc.index][0]) from exc
    except ValueError as exc:
        raise ModelFormatError(str(exc), zeta_line[0]) from exc


def save_model(m: FirstOrderModel, path: str | os.PathLike) -> None:
    """Write the first-order form; load_model(save_model(m)) == m."""
    lines = [f"model {m.name}"]
    lines.append("zeta " + " ".join(m.zeta.names))
    lines.append("c " + " ".join(e.to_text(compact=True) for e in m.c))
    lines.append("H " + str(m.hamiltonian))
    for p in m.primaries:
        lines.append("primary " + str(p))
    with open(path, "w", encoding="utf-8") as file:
        file.write("\n".join(lines) + "\n")


def _table(lineno: int, rest: str) -> VarTable:
    names = rest.split()
    if not names:
        raise ModelFormatError("empty variable list", lineno)
    try:
        return VarTable(names)
    except ValueError as exc:
        raise ModelFormatError(str(exc), lineno) from exc


def _parse(text: str, table: VarTable, lineno: int) -> Expression:
    if not text:
        raise ModelFormatError("missing expression", lineno)
    try:
        return parse_expression(text, table)
    except ParseError as exc:
        raise ModelFormatError(str(exc), lineno) from exc
