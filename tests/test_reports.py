"""The tree emitter against ``json.dumps(obj, indent=2)``, the text table's widths, and the work behind a report."""

import json
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from symchain import ChainOptions, Expression, chain, compare_spans, consistency_algorithm, run_chain
from symchain.reports import _cell_width, _emit, render_tree
from test_byte_identity import reference_tree
from test_chain import _deep_shift_chain
from test_linalg import sparse_form

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


def test_a_report_builds_its_span_once(example2, monkeypatch):
    """``compare_spans`` and the fingerprint in ``render_tree`` share the chain span's RREF."""
    built = []
    span = chain._span

    def counted(exprs):
        built.append(len(exprs))
        return span(exprs)

    monkeypatch.setattr(chain, "_span", counted)
    report = run_chain(example2)
    oracle = consistency_algorithm(example2)
    tree = json.loads(render_tree(report, compare_spans(report, oracle.constraints), oracle))
    assert built == [4]
    assert tree["span_fingerprint"] == report.span_fingerprint()
    assert built == [4]


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
