"""Seeded inputs, one operation per input, and the checks on its output.

Every workload turns the seed into a pool of inputs before timing
starts; the timed loop cycles through the pool.  The program sees only
the generated inputs (a lattice spacing, a set of Hamiltonian
coefficients, a model file), never the seed.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import symchain
import symchain.cli
import symchain.reports

LATTICE_SITES = 11
LATTICE_CONSTRAINTS = 4 * LATTICE_SITES  # four constraints per site
DEEP_K = 12
DEEP_CONSTRAINTS = 2 * DEEP_K  # the chain constrains every coordinate
MODEL_KINDS = ("canonical", "second-order", "shuffled")


@dataclass(frozen=True)
class Outcome:
    """What one operation produced and how long it took."""

    tree: str  # rendered tree report, "" when the operation raised
    exit_code: int  # CLI exit code, or the code cmd_compare would return
    verdict_s: float
    chain_s: float | None  # None where the chain is not timed on its own
    failure: str | None  # why the run failed, None when it passed


@dataclass(frozen=True)
class ModelFile:
    path: str
    kind: str
    twin: int | None  # pool index of the canonical model a shuffled one permutes


def _rational(rng: random.Random, top: int = 9) -> Fraction:
    """A nonzero rational p/q with 1 <= |p|, q <= top and a random sign."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, top))


Clock = Callable[[], float]  # seconds, without the benchmark's own calibration


def _library_verdict(
    clock: Clock, started: float, model, options, expected_constraints: int
) -> Outcome:
    """Chain, oracle, span comparison and tree report, as `compare` runs them.

    ``started`` is when the operation began building its model.
    """
    t0 = clock()
    report = symchain.run_chain(model, options)
    t1 = clock()
    oracle = symchain.consistency_algorithm(model)
    verdict = symchain.compare_spans(report, oracle.constraints)
    tree = symchain.reports.render_tree(report, verdict, oracle)
    t2 = clock()
    failure = None
    if not verdict.equal:
        failure = "span mismatch"
    elif report.termination.kind != "nonsingular":
        failure = f"termination {report.termination.kind}"
    elif len(report.constraints) != expected_constraints:
        failure = f"{len(report.constraints)} constraints"
    return Outcome(tree, 0 if verdict.equal else 4, t2 - started, t1 - t0, failure)


# -- lattice ------------------------------------------------------------


def lattice_pool(seed: int, size: int) -> list[Fraction]:
    rng = random.Random(seed)
    return [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(size)]


def run_lattice(spacing: Fraction, clock: Clock) -> Outcome:
    t0 = clock()
    model = symchain.build_schwinger(
        symchain.LatticeSpec(sites=LATTICE_SITES, spacing=spacing, scheme="central")
    )
    return _library_verdict(clock, t0, model, symchain.ChainOptions(), LATTICE_CONSTRAINTS)


# -- deep-chain -----------------------------------------------------------


def deep_chain_pool(seed: int, size: int) -> list[tuple[Fraction, ...]]:
    """Coefficients (a_1..a_{k-1}, b) of H = sum a_i p_i q_{i+1} + b q_1^2."""
    rng = random.Random(seed)
    return [tuple(_rational(rng) for _ in range(DEEP_K)) for _ in range(size)]


def run_deep_chain(coefficients: tuple[Fraction, ...], clock: Clock) -> Outcome:
    t0 = clock()
    qs = [f"q_{i}" for i in range(1, DEEP_K + 1)]
    ps = [f"p_{i}" for i in range(1, DEEP_K + 1)]
    zeta = symchain.VarTable(qs + ps)
    q = [symchain.Expression.variable(zeta, name) for name in qs]
    p = [symchain.Expression.variable(zeta, name) for name in ps]
    *a, b = coefficients
    h = b * q[0] * q[0]
    for i in range(DEEP_K - 1):
        h = h + a[i] * p[i] * q[i + 1]
    c = p + [symchain.Expression.zero(zeta)] * DEEP_K
    model = symchain.FirstOrderModel("shift_chain", zeta, c, h, [p[-1]])
    return _library_verdict(
        clock, t0, model, symchain.ChainOptions(max_level=64), DEEP_CONSTRAINTS
    )


# -- model-batch ------------------------------------------------------------


def _term(coeff: Fraction, factors: list[str], first: bool) -> str:
    mag = abs(coeff)
    body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
    if first:
        return body if coeff > 0 else "-" + body
    return (" + " if coeff > 0 else " - ") + body


def _polynomial(terms: list[tuple[Fraction, list[str]]]) -> str:
    terms = [(c, f) for c, f in terms if c]
    if not terms:
        return "0"
    return "".join(_term(c, f, i == 0) for i, (c, f) in enumerate(terms))


def _quadratic_form(rng: random.Random, names: list[str], density: float) -> str:
    terms = []
    for i in range(len(names)):
        for j in range(i, len(names)):
            if rng.random() < density:
                coeff = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
                terms.append((coeff, [names[i], names[j]]))
    return _polynomial(terms)


def _independent(rows: list[list[int]]) -> bool:
    """One nonzero row, or two rows that are not proportional."""
    if any(not any(r) for r in rows):
        return False
    if len(rows) == 1:
        return True
    a, b = rows
    return any(a[i] * b[j] != a[j] * b[i] for i in range(len(a)) for j in range(len(a)))


def canonical_model(
    rng: random.Random, n: int, k: int
) -> tuple[list[str], list[str], str, list[str]]:
    """A canonical first-order model with n degrees of freedom and k primaries.

    c carries the momenta, H is a homogeneous quadratic and the one or
    two primaries are independent homogeneous linear forms, so no
    consistency condition can reduce to a nonzero constant.
    """
    qs = [f"q{i + 1}" for i in range(n)]
    ps = [f"p{i + 1}" for i in range(n)]
    zeta = qs + ps
    h = _quadratic_form(rng, zeta, 0.45)
    while True:
        rows = [[rng.randint(-2, 2) for _ in zeta] for _ in range(k)]
        if _independent(rows):
            break
    primaries = [_polynomial([(Fraction(x), [v]) for x, v in zip(row, zeta)]) for row in rows]
    return zeta, ps + ["0"] * n, h, primaries


def first_order_text(name: str, zeta: list[str], c: list[str], h: str, primaries: list[str]) -> str:
    lines = [f"model {name}", "zeta " + " ".join(zeta), "c " + " ".join(c), f"H {h}"]
    lines += [f"primary {p}" for p in primaries]
    return "\n".join(lines) + "\n"


def shuffled(rng: random.Random, zeta: list[str], c: list[str]) -> tuple[list[str], list[str]]:
    """The same model with its coordinates listed in another order."""
    order = list(range(len(zeta)))
    while order == sorted(order):
        rng.shuffle(order)
    return [zeta[i] for i in order], [c[i] for i in order]


def second_order_text(rng: random.Random, name: str, n: int) -> str:
    """L = 1/2 v.W.v + v.B.x - V(x) with a singular velocity Hessian W.

    W is a sum of fewer than n integer outer products, so the Legendre
    transform yields at least one primary constraint.
    """
    xs = [f"x{i + 1}" for i in range(n)]
    vs = [f"{x}dot" for x in xs]
    w = [[0] * n for _ in range(n)]
    for _ in range(rng.randint(0, n - 1)):
        u = [rng.randint(-2, 2) for _ in range(n)]
        sign = rng.choice((-1, 1))
        for i in range(n):
            for j in range(n):
                w[i][j] += sign * u[i] * u[j]
    terms: list[tuple[Fraction, list[str]]] = []
    for i in range(n):
        terms.append((Fraction(w[i][i], 2), [vs[i], vs[i]]))
        terms += [(Fraction(w[i][j]), [vs[i], vs[j]]) for j in range(i + 1, n)]
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.4:
                terms.append((Fraction(rng.randint(-2, 2)), [xs[j], vs[i]]))
    kinetic = _polynomial(terms)
    potential = _quadratic_form(rng, xs, 0.5)
    lagrangian = kinetic if potential == "0" else f"{kinetic} - ({potential})"
    return f"model {name}\nvars {' '.join(xs)}\nL {lagrangian}\n"


def model_batch_pool(seed: int, size: int, directory: str) -> list[ModelFile]:
    """Write ``size`` model files, the three kinds interleaved in equal shares.

    Each shuffled model permutes the canonical model just before it,
    so every shuffled run has a canonical twin earlier in the pool.
    Group g of three models has n = 1 + g % 4 degrees of freedom and
    1 + g // 4 % 2 primaries, so a pool of 24m models holds every size
    equally often and the seed draws only the coefficients and orders.
    """
    rng = random.Random(seed)
    pool: list[ModelFile] = []
    while len(pool) < size:
        i = len(pool)
        group = i // len(MODEL_KINDS)
        n, k = 1 + group % 4, 1 + group // 4 % 2
        zeta, c, h, primaries = canonical_model(rng, n, k)
        texts = [
            first_order_text(f"canonical{i}", zeta, c, h, primaries),
            second_order_text(rng, f"second_order{i + 1}", n),
            first_order_text(f"shuffled{i + 2}", *shuffled(rng, zeta, c), h, primaries),
        ]
        for kind, text in zip(MODEL_KINDS, texts):
            path = os.path.join(directory, f"m{len(pool):04d}.model")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            pool.append(ModelFile(path, kind, i if kind == "shuffled" else None))
    return pool[:size]


def run_model_file(model: ModelFile, clock: Clock) -> Outcome:
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = clock()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = symchain.cli.main(["compare", "--format", "tree", model.path])
    t1 = clock()
    failure = None if code == 0 else f"exit {code}"
    return Outcome(stdout.getvalue(), code, t1 - t0, None, failure)
