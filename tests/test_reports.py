"""The tree emitter against ``json.dumps(obj, indent=2)``, the text table's widths, and the work behind a report."""

import json
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

import random
from pathlib import Path

from symchain import (
    ChainOptions, ChainReport, EchelonBasis, Expression, FirstOrderModel, SpanVerdict, VarTable, chain, compare_spans,
    consistency_algorithm, load_model, parse_expression, run_chain, span_fingerprint,
)
from symchain.reports import _cell_width, _emit, render_tree
from test_byte_identity import reference_tree
from test_chain import _deep_shift_chain
from test_linalg import sparse_form
from randmodels import random_model, random_scaled_model, random_second_order

MODELS = Path(__file__).resolve().parents[1] / "models"

# quotes, backslashes, control characters, non-ASCII and non-BMP characters
_awkward = st.sampled_from(['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "é", " ", "\U0001f600"])
_strings = st.text(st.one_of(_awkward, st.characters()), max_size=8)
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), _strings)
_trees = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_strings, inner, max_size=5),
    max_leaves=40,
)


def _written(obj, indent="\n"):
    """The pieces ``_emit`` passes to its sink for ``obj``, joined, and the text it returns after them."""
    parts = []
    tail = _emit(parts.append, obj, indent)
    return "".join(parts) + tail


def _nested(depth):
    """A list and a dict in turn, ``depth`` levels deep, with an empty container at the bottom."""
    tree = {}
    for level in range(depth):
        tree = [level, tree, "x"] if level % 2 else {"k": tree, "n": None}
    return tree


@settings(max_examples=400, deadline=None)
@given(_trees)
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[]], "d": [{}]})
@example(["a", 1, None, ["b"], {}, True, False, "c"])
@example(["a", "b", ["c", 0]])
@example([1, "a"])
@example(_nested(60))
@example({'"\\': ["\x00\x1f\x7f", "é \U0001f600"]})
def test_writer_matches_json_dumps(tree):
    assert _written(tree) == json.dumps(tree, indent=2)


# runs of zeros at either end or between nonzero entries, signed and 300-bit entries
_entries = st.one_of(st.just(0), st.integers(-(2**300), 2**300), st.integers(-9, 9))
_int_vectors = st.lists(_entries, max_size=30).map(tuple)


@settings(max_examples=400, deadline=None)
@given(_int_vectors, st.integers(0, 6))
@example((), 0)
@example((0,), 3)
@example((0, 0, 0, 0), 0)
@example((0, 0, -5, 0, 7, 0, 0), 2)
@example((3, 0, 0), 6)
@example((-(2**300), 0, 2**300 - 1), 1)
def test_int_vector_is_written_as_its_decimal_strings(vector, depth):
    """A vector, held as its length and nonzero (index, int) pairs, is the list of its decimal strings,
    at any depth of the tree."""
    indent = "\n" + "  " * depth
    expected = json.dumps(list(map(str, vector)), indent=2).replace("\n", indent)
    assert _written((len(vector), sparse_form(vector)), indent) == expected


@settings(max_examples=200, deadline=None)
@given(_int_vectors.filter(len))
@example((0,))
@example((-(2**300), 0, 0, 10))
def test_vector_cell_width_is_counted_from_its_nonzero_entries(vector):
    """The text table's last column is as wide as the longest dense vector cell, counted without forming it."""
    assert _cell_width((len(vector), sparse_form(vector))) == len("(" + ", ".join(map(str, vector)) + ")")


def _counted_spans(monkeypatch) -> list:
    """Wrap ``chain._span``, which builds a span's echelon basis: each call appends its expression count."""
    built = []
    span = chain._span
    monkeypatch.setattr(chain, "_span", lambda exprs: built.append(len(exprs)) or span(exprs))
    return built


def test_a_report_builds_its_span_once(example2, monkeypatch):
    """A report that ``run_chain`` made holds the run's span basis: ``compare_spans`` and the fingerprint
    in ``render_tree`` build none."""
    fingerprint = span_fingerprint([c.expr for c in run_chain(example2).constraints])
    built = _counted_spans(monkeypatch)
    report = run_chain(example2)
    oracle = consistency_algorithm(example2)
    tree = json.loads(render_tree(report, compare_spans(report, oracle.constraints), oracle))
    assert built == []
    assert tree["span_fingerprint"] == report.span_fingerprint() == fingerprint
    assert built == []


def test_a_hand_built_or_replaced_report_builds_its_span_once(example2, monkeypatch):
    """A report that ``run_chain`` did not make builds its span on first use, once, from its own constraints."""
    report = run_chain(example2)
    oracle = consistency_algorithm(example2).constraints
    copies = [ChainReport(*report), report._replace(constraints=report.constraints[:2])]
    expected = [(compare_spans(c.constraints, oracle), span_fingerprint([k.expr for k in c.constraints])) for c in copies]
    built = _counted_spans(monkeypatch)
    for copy, (verdict, fingerprint) in zip(copies, expected):
        assert [compare_spans(copy, oracle), compare_spans(copy, oracle)] == [verdict] * 2
        assert copy.span_fingerprint() == json.loads(render_tree(copy))["span_fingerprint"] == fingerprint
    assert built == [4, 2]
    assert [verdict.equal for verdict, _ in expected] == [True, False]
    assert expected[1][1] == "x + y; p_z"


def _rebuilt_verdict(first, second) -> SpanVerdict:
    """``compare_spans`` rebuilt from both sides' expressions: their RREF rows compared as expressions, and on a
    mismatch each side's rows reduced modulo the other side's span and made monic, in row order."""
    def span(exprs):
        if not exprs:
            return None, []
        basis = EchelonBasis(exprs[0].vars)
        basis.add(*exprs)
        return basis, basis.rref()

    (basis_first, rows_first), (basis_second, rows_second) = span(first), span(second)
    if rows_first == rows_second:
        return SpanVerdict(True, (), ())

    def mismatch(rows, other):
        remainders = [other.remainder(e) if other is not None else e for e in rows]
        return tuple(r.monic() for r in remainders if not r.is_zero())

    return SpanVerdict(False, mismatch(rows_first, basis_second), mismatch(rows_second, basis_first))


def _item11_smallest():
    """Degenerate f and no primaries: the chain ends with {q1 + 2u1, q1 - 3/2 p1, q1 - 3p1}, the oracle with none."""
    zeta = VarTable(["q1", "u1", "u2", "p1"])
    c = [parse_expression(t, zeta) for t in ("p1", "0", "0", "0")]
    h = parse_expression("2*q1*u1 - 2*q1*u2 + q1*p1 + 2*u1^2 + 3*u2*p1", zeta)
    return FirstOrderModel("item11", zeta, c, h)


def _span_models():
    yield _item11_smallest()
    yield load_model(MODELS / "gauge_pair.model")
    yield from (random_model(random.Random(seed)) for seed in range(200))
    yield from (random_model(random.Random(774000 + i)) for i in range(60))
    yield from (random_scaled_model(random.Random(seed)) for seed in range(30))
    yield from (random_second_order(random.Random(seed)) for seed in range(30))


def test_compare_spans_gives_the_rebuilt_verdict():
    """Equal or not, both mismatch tuples, in order, match the rebuild, for a report and for plain lists:
    the whole chain against the oracle, and in each direction, a chain short of its last constraint."""
    mismatched = 0
    for m in _span_models():
        report = run_chain(m, ChainOptions(max_level=8))
        oracle = list(consistency_algorithm(m).constraints)
        chain_list = list(report.constraints)
        for first, second in [(report, oracle), (chain_list[:-1], oracle), (oracle, chain_list[:-1]),
                              (oracle, report.constraints), ([], oracle), (oracle, [])]:
            rows = first.constraints if isinstance(first, ChainReport) else first
            verdict = compare_spans(first, second)
            assert verdict == _rebuilt_verdict([c.expr for c in rows], [c.expr for c in second]), m
            mismatched += not verdict.equal
    assert mismatched > 600
    report = run_chain(_item11_smallest())
    verdict = compare_spans(report, consistency_algorithm(_item11_smallest()).constraints)
    assert verdict.describe() == "unequal; chain-only: q1, u1, p1"


def test_render_tree_writes_each_expression_object_once(monkeypatch):
    """On the deep shift chain, 342 candidates share 23 value objects with the derived constraints' raws.

    ``render_tree`` forms each object's text once, and writes the bytes of the reference tree,
    which formats every occurrence.
    """
    m = _deep_shift_chain()
    report = run_chain(m, ChainOptions(max_level=64))
    oracle = consistency_algorithm(m)
    verdict = compare_spans(report, oracle.constraints)
    values = {id(cand.value) for rec in report.levels for cand in rec.candidates}
    assert len(values) == 23 and values <= {id(c.raw) for c in report.constraints}
    written = []
    to_text = Expression.to_text
    monkeypatch.setattr(Expression, "to_text", lambda self, *args: written.append(id(self)) or to_text(self, *args))
    tree = render_tree(report, verdict, oracle)
    monkeypatch.undo()
    assert max(Counter(written).values()) == 1
    assert values <= set(written)
    assert tree == json.dumps(reference_tree(report, verdict, oracle), indent=2) + "\n"
