"""The tree report of each fixture and small lattice is pinned byte for byte.

The digests are sha256 of ``render_tree(run_chain(m), compare_spans(...),
consistency_algorithm(m))``, recorded before the chain and the oracle
were moved onto the incremental echelon basis.  ``lattice_N_s`` is the
lattice of N sites at spacing s; the two at a fractional spacing were
recorded before the oracle's brackets were taken in integers.  A
``_forward`` suffix selects the forward difference scheme, whose D is
not antisymmetric; those three were recorded before monomials were
keyed by their nonzero exponents.  Any change to a
constraint, remainder, null vector, determinant or span verdict shows
up here.

``BATCH_DIGEST`` pins the tree and text reports of 400 ``randmodels``
models and lattice N in {9, 11} under three option sets, one sha256
over all of them, recorded before the chain's columns were bordered in
place.

``DEEP_CHAIN_DIGEST`` pins the tree reports of four k=12 shift chains,
H = sum a_i p_i q_{i+1} + b q_1^2 with the last momentum as the one
primary: 24 constraints, one per level, from 35 attempts, the
truncated retries at levels 13 to 23 among them.  It was recorded
before tall matrices were eliminated with largest-index pivots.

``SECOND_ORDER_DIGEST`` pins the tree reports of 400
``random_second_order`` models (seeds 0-399): Legendre transforms with
two to four primaries, whose oracle passes take several null
directions at once.  It was recorded before the oracle skipped the
null directions an earlier pass had checked.

Every tree of these sets must also be
``json.dumps(reference_tree(...), indent=2)``, and must load back as
that reference tree: ``reference_tree`` builds the tree as a dict of
plain strings and lists, so the writer's fast paths are checked against
the standard encoder.  The pieces ``write_tree`` and ``write_text``
pass to a stream's ``write`` must join to ``render_tree`` and to
``reference_text``, the text report built as one table of dense cells,
so the CLI's streamed output is checked on every set.
"""

import hashlib
import io
import json
import random
from fractions import Fraction

import pytest

from conftest import MODELS_DIR
from randmodels import random_model, random_second_order
from test_linalg import dense_form, sparse_form, two_pass_null_space
from symchain import (
    ChainOptions,
    Expression,
    FirstOrderModel,
    LatticeSpec,
    VarTable,
    build_schwinger,
    compare_spans,
    consistency_algorithm,
    load_model,
    run_chain,
)
from symchain import chain
from symchain.reports import render_tree, write_text, write_tree

DIGESTS = {
    "example2": "16472c9e457e8cdc3de3d2773ccf86c1ae6295eeff19f9ee59d3ce3b164d3238",
    "free_particle": "c7c5ec66a11f3f644bea92a5f2f37140b72028ecde950f01b89f614164b0fada",
    "schwinger_n3": "9a028c4b50db50c103e4e0234afd0c5edb4778c95a3488f95cecebf0db0c458b",
    "lattice_3": "9a028c4b50db50c103e4e0234afd0c5edb4778c95a3488f95cecebf0db0c458b",
    "lattice_5": "b89eb3d4cb8287a775918f54de79fdaa86dbfb540d5edd38bc7ea409ecbe78f0",
    "lattice_7": "4d5b5462c29a98c2a78f277928d7f63be21374e0f699532179a6dd7745ee79d6",
    "lattice_5_3/7": "1f6c255f9dc22ada19cd2904c991f4d86ec4558267a265248514bd45116a3948",
    "lattice_7_9/4": "c44ede4b9dbb68bcc3c6a8c0bb6cea0f54814e6ba6358e1432639d819d800539",
    "lattice_4_1_forward": "33192318e7a2e7204881607178a00ff53432366c877ba6c57265b531a8cac40c",
    "lattice_5_1_forward": "e566e48da5a8fb2bebce23a17a5c42abf12da7252c17c4ef4c614ea3006b4c2a",
    "lattice_6_1/2_forward": "e0545295e4d37290bb8d5657975bd19a7ca28cacf416667acd765d9dd8458efc",
}

BATCH_DIGEST = "90c10f7b1e218c1b944af4f2e473277353eb29c38f7af9b70ccb1af0da2c5a97"
DEEP_CHAIN_DIGEST = "b3415232fb07c451da13a0908f8527f05f0d99577b332ddaa308ff4808060b7e"
SECOND_ORDER_DIGEST = "221ab82d72b4de4eab93628ca9ab46b3208b0a9c4f8eefd64098f924ac40930b"
BATCH_OPTIONS = (
    ChainOptions(),
    ChainOptions(allow_truncation=False),
    ChainOptions(max_level=2),
)


def reference_tree(report, comparison=None, oracle=None):
    """The report tree as a dict of plain strings and lists, with every vector entry formatted.

    A vector is as long as its record's row count; a generator's record is the level below its constraint's.
    """
    rows = {rec.level: rec.shape[0] for rec in report.levels}
    vec = lambda v, n: list(map(str, dense_form(v, n)))
    tree = {
        "model": report.model_name,
        "zeta": list(report.zeta_names),
        "multipliers": list(report.multiplier_names),
        "constraints": [
            {
                "level": c.level,
                "expr": str(c.expr),
                "raw": str(c.raw),
                "origin": c.origin,
                "generator": vec(c.generator, rows[c.level - 1]) if c.generator is not None else None,
            }
            for c in report.constraints
        ],
        "eigenvectors": [
            {
                "level": rec.level,
                "truncated": rec.truncated,
                "shape": list(rec.shape),
                "candidates": [
                    {
                        "vector": vec(cand.vector, rec.shape[0]),
                        "value": str(cand.value),
                        "classification": cand.classification,
                    }
                    for cand in rec.candidates
                ],
            }
            for rec in report.levels
        ],
        "truncations": list(report.truncations),
        "termination": {
            "kind": report.termination.kind,
            "level": report.termination.level,
            "determinant": (
                str(report.termination.determinant)
                if report.termination.determinant is not None
                else None
            ),
        },
        "span_fingerprint": report.span_fingerprint(),
        "warnings": list(report.warnings),
        "comparison": None,
    }
    if comparison is not None:
        tree["comparison"] = {
            "equal": comparison.equal,
            "chain_only": [str(e) for e in comparison.only_in_first],
            "oracle_only": [str(e) for e in comparison.only_in_second],
        }
        if oracle is not None:
            tree["comparison"]["oracle_constraints"] = [
                {"level": c.level, "expr": str(c.expr), "raw": str(c.raw)}
                for c in oracle.constraints
            ]
            tree["comparison"]["multiplier_conditions"] = [
                {"constraint": str(mc.constraint.expr), "condition": str(mc.condition)}
                for mc in oracle.multiplier_conditions
            ]
    return tree


def reference_text(report, comparison=None, oracle=None):
    """The text report, each table formed whole from dense cells before any line is joined."""
    rows = {rec.level: rec.shape[0] for rec in report.levels}

    def table(cells):
        widths = [max(map(len, column)) for column in zip(*cells)]
        lines = ["  " + " | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
        lines.insert(1, "  " + "-+-".join("-" * w for w in widths))
        return lines

    def vec(c):
        n = rows[c.level - 1] if c.generator is not None else 0
        return "(" + ", ".join(map(str, dense_form(c.generator, n))) + ")" if n else "-"

    lines = [f"model: {report.model_name}", "phase space: " + " ".join(report.zeta_names)]
    if report.constraints:
        lines.append("constraints:")
        lines += table(
            [("level", "constraint", "raw", "origin", "eigenvector")]
            + [(str(c.level), str(c.expr), str(c.raw), c.origin, vec(c)) for c in report.constraints]
        )
    else:
        lines.append("constraints: none")
    if report.truncations:
        lines.append("truncations: " + ", ".join(f"level {k}" for k in report.truncations))
    lines.append("termination: " + report.termination.describe())
    lines += ["warning: " + w for w in report.warnings]
    if oracle is not None:
        if oracle.constraints:
            lines.append("oracle constraints:")
            lines += table(
                [("level", "constraint", "raw", "origin")]
                + [(str(c.level), str(c.expr), str(c.raw), c.origin) for c in oracle.constraints]
            )
        else:
            lines.append("oracle constraints: none")
        lines += [
            f"oracle multiplier condition: consistency of {mc.constraint.expr} requires {mc.condition} = 0"
            for mc in oracle.multiplier_conditions
        ]
    if comparison is not None:
        lines.append("span comparison: " + comparison.describe())
    return "\n".join(lines) + "\n"


def streamed(writer, *parts):
    """What ``writer`` passes to a text stream's ``write``, as the stream holds it."""
    out = io.StringIO()
    writer(out.write, *parts)
    return out.getvalue()


def _checked_tree(report, verdict, oracle):
    """``render_tree``, checked against the reference tree, ``json.dumps`` and the streamed tree.

    The streamed text report is checked against ``reference_text`` too.
    """
    tree = render_tree(report, verdict, oracle)
    reference = reference_tree(report, verdict, oracle)
    assert tree == json.dumps(reference, indent=2) + "\n"
    assert json.loads(tree) == reference
    assert streamed(write_tree, report, verdict, oracle) == tree
    assert streamed(write_text, report, verdict, oracle) == reference_text(report, verdict, oracle)
    return tree


def _model(name):
    if name.startswith("lattice_"):
        _, sites, *rest = name.split("_")
        scheme = rest.pop() if rest[-1:] == ["forward"] else "central"
        spacing = Fraction(*rest or [1])
        return build_schwinger(LatticeSpec(sites=int(sites), spacing=spacing, scheme=scheme))
    return load_model(MODELS_DIR / f"{name}.model")


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_tree_report_digest(name):
    m = _model(name)
    report = run_chain(m)
    oracle = consistency_algorithm(m)
    tree = _checked_tree(report, compare_spans(report, oracle.constraints), oracle)
    assert hashlib.sha256(tree.encode()).hexdigest() == DIGESTS[name]


def test_batch_report_digest():
    models = [random_model(random.Random(seed)) for seed in range(5000, 5400)]
    models += [build_schwinger(LatticeSpec(sites=n, spacing=Fraction(1))) for n in (9, 11)]
    digest = hashlib.sha256()
    for m in models:
        oracle = consistency_algorithm(m)
        for opts in BATCH_OPTIONS:
            report = run_chain(m, opts)
            verdict = compare_spans(report, oracle.constraints)
            tree = _checked_tree(report, verdict, oracle)
            digest.update(tree.encode())
            digest.update(streamed(write_text, report, verdict, oracle).encode())
    assert digest.hexdigest() == BATCH_DIGEST


def _shift_chain(coefficients):
    """H = sum a_i p_i q_{i+1} + b q_1^2 over k = len(coefficients) pairs, primary p_k."""
    k = len(coefficients)
    qs = [f"q_{i}" for i in range(1, k + 1)]
    ps = [f"p_{i}" for i in range(1, k + 1)]
    zeta = VarTable(qs + ps)
    q = [Expression.variable(zeta, name) for name in qs]
    p = [Expression.variable(zeta, name) for name in ps]
    *a, b = coefficients
    h = b * q[0] * q[0]
    for i in range(k - 1):
        h = h + a[i] * p[i] * q[i + 1]
    return FirstOrderModel("shift_chain", zeta, p + [Expression.zero(zeta)] * k, h, [p[-1]])


def _nonzero_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def test_deep_chain_digest():
    rng = random.Random(0)
    digest = hashlib.sha256()
    for _ in range(4):
        m = _shift_chain(tuple(_nonzero_rational(rng) for _ in range(12)))
        report = run_chain(m, ChainOptions(max_level=64))
        assert len(report.levels) == 35 and report.truncations == tuple(range(13, 24))
        oracle = consistency_algorithm(m)
        digest.update(_checked_tree(report, compare_spans(report, oracle.constraints), oracle).encode())
    assert digest.hexdigest() == DEEP_CHAIN_DIGEST


def test_second_order_digest():
    digest = hashlib.sha256()
    for seed in range(400):
        m = random_second_order(random.Random(seed))
        report = run_chain(m)
        oracle = consistency_algorithm(m)
        digest.update(_checked_tree(report, compare_spans(report, oracle.constraints), oracle).encode())
    assert digest.hexdigest() == SECOND_ORDER_DIGEST


def test_lattice_attempts_match_two_pass_reference(monkeypatch):
    """Every attempt of lattice N=21, the truncated tall one included."""
    shapes = []
    solve = chain._solve

    def checked(state, kept, n_zeta, n, built):
        result = solve(state, kept, n_zeta, n, built)
        cols = [{~key: Fraction(x, scale) for key, x in vec.items()} for vec, scale in kept]
        basis, det = two_pass_null_space(cols, n)
        assert result == (tuple(map(sparse_form, basis)), det)
        shapes.append((n, len(kept)))
        return result

    monkeypatch.setattr(chain, "_solve", checked)
    report = run_chain(build_schwinger(LatticeSpec(sites=21, spacing=Fraction(1))))
    assert report.termination.kind == "nonsingular"
    assert shapes == [(147, 147), (168, 168), (189, 189), (189, 147), (210, 210)]
