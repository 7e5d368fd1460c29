"""Exact multivariate polynomials over the rationals, with a small text grammar.

An Expression is a sparse map from monomials to coefficients:

    monomial    = tuple of (variable index, exponent >= 1) pairs, sorted
                  by index; () is the constant term
    coefficient = fractions.Fraction (always exact; a float is rejected)

Zero coefficients are never stored, so two Expressions are equal iff their
maps are equal.  A monomial lists only the variables it uses, so a term
costs its own size, not the size of the VarTable.  The VarTable fixes the
variable order once and for all; that order induces the graded-lexicographic
monomial order used for canonical printing and for monic normalization.

The text grammar accepts rational literals (``3``, ``1/2``), variable
names, ``+ - * ^``, unary minus and parentheses.  ``^`` takes a
nonnegative integer literal.  There is no general division operator:
``/`` is only valid inside a rational literal.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from types import MappingProxyType

from .linalg import SparseEchelon, _exact, _integral

Monomial = tuple[tuple[int, int], ...]

_NAME_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_REST = _NAME_FIRST | set("0123456789")
_DIGITS = set("0123456789")


class ParseError(ValueError):
    """Syntax or lookup failure while parsing expression text.

    The ``position`` attribute is the 0-based offset of the offending
    character in the input string.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownVariableError(ParseError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown variable '{name}'", position)
        self.name = name


class VarTable:
    """Ordered, immutable registry of variable names."""

    __slots__ = ("_names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("a VarTable needs at least one variable")
        for name in names:
            _check_name(name)
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate variable names: {', '.join(dupes)}")
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable '{name}'") from None

    def extended(self, extra: Iterable[str]) -> "VarTable":
        """New table with ``extra`` names appended after the current ones."""
        return VarTable(self._names + tuple(extra))

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self._names)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, VarTable) and self._names == other._names)

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:
        return f"VarTable({', '.join(self._names)})"


def _check_name(name: str) -> None:
    if not name or name[0] not in _NAME_FIRST or any(ch not in _NAME_REST for ch in name):
        raise ValueError(f"invalid variable name {name!r}")


def _degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def _grlex_key(mono: Monomial) -> tuple:
    # graded-lex: total degree first, ties broken lexicographically on the
    # dense exponent vector (earlier table positions dominate); a variable
    # absent from one monomial is a 0 there, so the smaller index ranks higher
    return (_degree(mono), tuple((-i, e) for i, e in mono))


def _descending(terms: Iterable[Monomial]) -> list[Monomial]:
    """The monomials ``terms`` in graded-lex descending order; only a nonlinear set calls ``_grlex_key``:
    sorted linear monomials ((i, 1),) are in that order, and the constant () moves from first to last."""
    monos = sorted(terms)
    if not all(len(m) == 1 and m[0][1] == 1 for m in monos if m):
        return sorted(monos, key=_grlex_key, reverse=True)
    return monos[1:] + monos[:1] if monos and not monos[0] else monos


def _product(a: Monomial, b: Monomial) -> Monomial:
    if not a or not b:
        return a or b
    exps = dict(a)
    for i, e in b:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


_ONE = Fraction(1)


def _add(out: dict[Monomial, Fraction], terms: Mapping[Monomial, Fraction], k=1) -> dict[Monomial, Fraction]:
    """Add ``k`` (an int or a Fraction) times the term map ``terms`` into ``out``, in place, and return ``out``.

    A term map never stores a zero, so a sum that cancels is deleted here.
    """
    if type(k) is not Fraction and k != 1:
        k = Fraction(k)  # a term whose coefficient is the shared _ONE stores k itself
    if k:
        for mono, c in terms.items() if k == 1 else ((m, k if c is _ONE else k * c) for m, c in terms.items()):
            total = out.get(mono)
            total = c if total is None else total + c
            if total:
                out[mono] = total
            else:
                del out[mono]
    return out


def _mul(a: Mapping[Monomial, Fraction], b: Mapping[Monomial, Fraction]) -> dict[Monomial, Fraction]:
    """The product of two term maps (one monomial times distinct monomials gives distinct monomials)."""
    out: dict[Monomial, Fraction] = {}
    for ma, ca in a.items():
        _add(out, {_product(ma, mb): cb for mb, cb in b.items()}, ca)
    return out


def _power(terms: Mapping[Monomial, Fraction], n: int) -> dict[Monomial, Fraction]:
    """``terms`` to the nonnegative int power ``n``, by repeated squaring (0^0 is 1)."""
    result: dict[Monomial, Fraction] = {(): _ONE}
    while n:
        if n & 1:
            result = _mul(result, terms)
        n >>= 1
        if n:
            terms = _mul(terms, terms)
    return result


class Expression:
    """Canonical sparse polynomial over a fixed VarTable.

    Immutable by convention: no method mutates ``self``; arithmetic
    returns new objects.  Safe for concurrent reads.
    """

    __slots__ = ("_vars", "_terms")

    def __init__(self, vars: VarTable, terms: Mapping[Monomial, Fraction]):
        nvars = len(vars)
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in terms.items():
            last = -1
            for pair in mono:
                if type(pair) is not tuple or len(pair) != 2:
                    raise ValueError(f"monomial entry {pair!r} is not an (index, exponent) pair")
                i, e = pair
                if not 0 <= i < nvars:
                    raise ValueError(f"variable index {i} is out of range for the VarTable")
                if i <= last:
                    raise ValueError("variable indices of a monomial must increase")
                if e < 1:
                    raise ValueError("monomial exponents must be at least 1")
                last = i
            coeff = _exact(coeff, "coefficient")
            if coeff != 0:
                clean[tuple(mono)] = coeff
        self._vars = vars
        self._terms = clean

    @classmethod
    def _trusted(cls, vars: VarTable, terms: dict[Monomial, Fraction]) -> "Expression":
        """The unchecked constructor for valid monomials and Fraction coefficients."""
        e = object.__new__(cls)
        e._vars = vars
        e._terms = {mono: coeff for mono, coeff in terms.items() if coeff}
        return e

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(vars: VarTable) -> "Expression":
        return Expression(vars, {})

    @staticmethod
    def variable(vars: VarTable, name: str) -> "Expression":
        return Expression(vars, {((vars.index_of(name), 1),): _ONE})

    @staticmethod
    def linear_combination(vars: VarTable, pairs: Iterable[tuple[Fraction, "Expression"]]) -> "Expression":
        """The sum of ``k * e`` over (Fraction or int ``k``, ``e``) pairs, in one pass."""
        out: dict[Monomial, Fraction] = {}
        for k, e in pairs:
            if e._vars != vars:
                raise ValueError("expressions use different VarTables")
            _add(out, e._terms, k)
        return Expression._trusted(vars, out)

    # -- inspection --------------------------------------------------

    @property
    def vars(self) -> VarTable:
        return self._vars

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        """The monomial -> coefficient map (read-only view)."""
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0."""
        return max(map(_degree, self._terms), default=0)

    def is_linear(self) -> bool:
        return self.degree() <= 1

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other) -> "Expression":
        if isinstance(other, Expression):
            if other._vars != self._vars:
                raise ValueError("expressions use different VarTables")
            return other
        if isinstance(other, (int, Fraction)):
            return Expression(self._vars, {(): other})
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Expression":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Expression._trusted(self._vars, _add(dict(self._terms), other._terms))

    __radd__ = __add__

    def __sub__(self, other) -> "Expression":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Expression._trusted(self._vars, _add(dict(self._terms), other._terms, -1))

    def __mul__(self, other) -> "Expression":
        if isinstance(other, (int, Fraction)):
            return Expression._trusted(self._vars, _add({}, self._terms, other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Expression._trusted(self._vars, _mul(self._terms, other._terms))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Expression)
            and self._vars == other._vars
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self._vars, frozenset(self._terms.items())))

    # -- calculus ----------------------------------------------------

    def differentiate(self, name: str) -> "Expression":
        """Exact partial derivative with respect to ``name``."""
        return self.gradient()[self._vars.index_of(name)]

    def gradient(self) -> tuple["Expression", ...]:
        """Every exact partial derivative, in table order, from one pass over the terms."""
        out: list[dict[Monomial, Fraction]] = [{} for _ in self._vars.names]
        for mono, coeff in self._terms.items():
            # lowering one exponent maps distinct terms to distinct terms
            for k, (i, e) in enumerate(mono):
                if e > 1:
                    out[i][mono[:k] + ((i, e - 1),) + mono[k + 1 :]] = coeff * e
                else:
                    out[i][mono[:k] + mono[k + 1 :]] = coeff
        return tuple(Expression._trusted(self._vars, d) for d in out)

    # -- linear-form helpers -----------------------------------------

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the graded-lex leading monomial (0 for the zero poly)."""
        if not self._terms:
            return Fraction(0)
        return self._terms[_descending(self._terms)[0]]

    def monic(self) -> "Expression":
        """Scale so the graded-lex leading coefficient becomes +1; ``self`` when it is 0 or 1."""
        lc = self.leading_coefficient()
        if lc == 0 or lc == 1:
            return self
        return Expression._trusted(self._vars, {mono: coeff / lc for mono, coeff in self._terms.items()})

    # -- printing ----------------------------------------------------

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Expression({self.to_text()!r})"

    def to_text(self, compact: bool = False) -> str:
        """Canonical text form: graded-lex descending, reduced fractions.

        ``compact`` drops the spaces around + and -, producing a form
        with no whitespace (used by the model-file writer).
        """
        if not self._terms:
            return "0"
        plus, minus = ("+", "-") if compact else (" + ", " - ")
        names = self._vars.names
        parts: list[str] = []
        for mono in _descending(self._terms):
            coeff = str(self._terms[mono])  # "n" or "n/d", reduced, with its sign
            negative = coeff[0] == "-"
            mag = coeff[1:] if negative else coeff
            if len(mono) == 1 and mono[0][1] == 1:
                body = names[mono[0][0]]
            else:
                body = "*".join([names[i] if e == 1 else f"{names[i]}^{e}" for i, e in mono])
            if not body:
                body = mag
            elif mag != "1":
                body = f"{mag}*{body}"
            sign = (minus if negative else plus) if parts else ("-" if negative else "")
            parts.append(sign + body)
        return "".join(parts)


# -- parser ----------------------------------------------------------

_TOK_NUM = "num"
_TOK_NAME = "name"
_TOK_OP = "op"
_TOK_END = "end"
_MAX_NESTING = 160  # levels of parentheses, at about 5 frames each of the default recursion limit 1000


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append((_TOK_NUM, text[i:j], i))
            i = j
        elif ch in _NAME_FIRST:
            j = i
            while j < n and text[j] in _NAME_REST:
                j += 1
            tokens.append((_TOK_NAME, text[i:j], i))
            i = j
        elif ch in "+-*^()/":
            tokens.append((_TOK_OP, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append((_TOK_END, "", n))
    return tokens


class _Parser:
    """Recursive descent over the tokens; every method returns a fresh term map (monomial -> Fraction)."""

    def __init__(self, text: str, vars: VarTable):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = vars
        self.depth = 0  # parentheses open around the current token

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != _TOK_END:
            self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, at = self.peek()
        if kind != _TOK_OP or value != op:
            raise ParseError(f"expected '{op}'", at)
        self.take()

    def parse(self) -> Expression:
        terms = self.sum()
        kind, value, at = self.peek()
        if kind != _TOK_END:
            raise ParseError(f"unexpected {value!r}", at)
        return Expression._trusted(self.vars, terms)

    def sum(self) -> dict[Monomial, Fraction]:
        terms = self.product()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value in "+-":
                self.take()
                _add(terms, self.product(), 1 if value == "+" else -1)
            else:
                return terms

    def product(self) -> dict[Monomial, Fraction]:
        terms = self.signed()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value == "*":
                self.take()
                terms = _mul(terms, self.signed())
            else:
                return terms

    def signed(self) -> dict[Monomial, Fraction]:
        # a run of unary signs binds looser than '^': -x^2 is -(x^2)
        negate = False
        while True:
            kind, value, _ = self.peek()
            if kind != _TOK_OP or value not in "+-":
                break
            self.take()
            negate ^= value == "-"
        terms = self.power()
        return {m: -c for m, c in terms.items()} if negate else terms

    def power(self) -> dict[Monomial, Fraction]:
        base = self.atom()
        kind, value, at = self.peek()
        if kind == _TOK_OP and value == "^":
            self.take()
            kind, value, at = self.peek()
            if kind != _TOK_NUM:
                raise ParseError("exponent must be a nonnegative integer literal", at)
            self.take()
            kind2, value2, at2 = self.peek()
            if kind2 == _TOK_OP and value2 == "/":
                raise ParseError("exponent must be an integer (fractions not allowed)", at2)
            return _power(base, int(value))
        return base

    def atom(self) -> dict[Monomial, Fraction]:
        kind, value, at = self.take()
        if kind == _TOK_NUM:
            numerator = int(value)
            kind2, value2, _ = self.peek()
            if kind2 == _TOK_OP and value2 == "/":
                self.take()
                kind3, value3, at3 = self.peek()
                if kind3 != _TOK_NUM:
                    raise ParseError("expected an integer denominator", at3)
                self.take()
                if int(value3) == 0:
                    raise ParseError("zero denominator in rational literal", at3)
                return {(): Fraction(numerator, int(value3))} if numerator else {}
            return {(): Fraction(numerator)} if numerator else {}
        if kind == _TOK_NAME:
            if value not in self.vars:
                raise UnknownVariableError(value, at)
            return {((self.vars.index_of(value), 1),): _ONE}
        if kind == _TOK_OP and value == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError("parentheses nested too deeply", at)
            self.depth += 1
            inner = self.sum()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", at)


def parse_expression(text: str, vars: VarTable) -> Expression:
    """Parse ``text`` into a canonical Expression over ``vars``, built as one term map and wrapped once.

    Raises ParseError (with a character offset) on malformed input,
    including parentheses nested deeper than ``_MAX_NESTING`` levels (or
    than a deep caller's remaining stack allows), and UnknownVariableError
    for names missing from the table.
    """
    parser = _Parser(text, vars)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("parentheses nested too deeply", parser.peek()[2]) from None


# -- linear reduction ------------------------------------------------
#
# Below the model a linear form is its integer affine form (vec, scale), vec/scale with vec ints keyed
# i for variable i and n = len(vars) for the constant; no other module knows that layout: the chain,
# the oracle and the lattice convert through the four functions here.

def _sums_form(sums: Mapping[Monomial, int], den: int, n: int) -> tuple[dict[int, int], int] | None:
    """The form of int monomial sums (zeros allowed) over ``den`` > 0 and n variables; None if nonlinear."""
    if any(s and (len(mono) > 1 or mono[0][1] > 1) for mono, s in sums.items() if mono):
        return None
    return {mono[0][0] if mono else n: s for mono, s in sums.items() if s}, den


def _affine_form(e: Expression) -> tuple[dict[int, int], int] | None:
    """The form of ``e`` over the lcm of its denominators; None if ``e`` is not linear."""
    return _sums_form(*_integral(e._terms), len(e._vars))


def _sums_expression(vars: VarTable, sums: Mapping[Monomial, int], den: int) -> Expression:
    """The Expression of the int monomial sums ``sums`` (zeros allowed) over ``den`` > 0."""
    return Expression._trusted(vars, {mono: Fraction(s, den) for mono, s in sums.items()})


def _form_expression(vars: VarTable, vec: dict[int, int], scale: int) -> Expression:
    """The Expression of the form vec/scale."""
    n = len(vars)
    return _sums_expression(vars, {((col, 1),) if col < n else (): x for col, x in vec.items()}, scale)


class EchelonBasis:
    """Incremental exact basis of an affine-linear span over one VarTable.

    The Expression view of ``linalg.SparseEchelon``: a linear form is a
    sparse vector over the columns (variables in table order, then the
    constant term), kept in the kernel's primitive integer rows.  The
    remainder of a form is the unique member of its coset modulo the
    span that vanishes at every pivot column, so it depends only on the
    span, not on the order or the scale in which members were added.
    """

    __slots__ = ("_vars", "_kernel")

    def __init__(self, vars: VarTable):
        self._vars = vars
        self._kernel = SparseEchelon()

    def add(self, *exprs: Expression) -> bool:
        """Extend the span by ``exprs`` in one elimination; False when they are dependent modulo it."""
        rank = len(self._kernel.rows)
        vectors = [self._vector(e, "basis expression") for e in exprs]
        return len(self._kernel.absorb(vectors).rows) == rank + len(vectors)

    def _add_form(self, vec: dict[int, int], scale: int) -> bool:
        """``add`` for the integer affine form vec/scale (left unchanged).

        A form that reduces to a nonzero constant modulo the span raises ``ValueError``.
        """
        n = len(self._vars)  # the constant term is column n
        vec, scale = self._kernel.reduce(dict(vec), scale)
        if len(vec) == 1 and n in vec:
            raise ValueError(
                "inconsistent dynamics: a consistency condition reduces to the nonzero "
                f"constant {Fraction(vec[n], scale)}"
            )
        if vec:
            self._kernel.absorb([(vec, scale)])
        return bool(vec)

    def holds_constant(self) -> bool:
        """True when the span holds the constant 1: a row pivots at the last, constant, column."""
        return len(self._vars) in self._kernel.rows

    def remainder(self, e: Expression) -> Expression:
        """The member of ``e`` + span that is zero at every pivot column."""
        return _form_expression(self._vars, *self._kernel.reduce(*self._vector(e, "expression")))

    def rref(self) -> list[Expression]:
        """The reduced row-echelon rows, in pivot order."""
        return [_form_expression(self._vars, row, row[pivot]) for pivot, row in sorted(self._kernel.rows.items())]

    def _vector(self, e: Expression, kind: str) -> tuple[dict[int, int], int]:
        if e.vars != self._vars:
            raise ValueError("basis expression uses a different VarTable")
        form = _affine_form(e)
        if form is None:
            raise ValueError(f"nonlinear {kind}: only linear reduction is supported")
        return form
