"""Text and machine-readable renderings of chain runs and comparisons.

The tree form is a single JSON document per run, holding every field of
the report (the text table is a projection).  Both renderings are
byte-deterministic for identical inputs, and write each null vector, held
as its nonzero (index, int) pairs, dense to its record's row count.

``write_tree`` and ``write_text`` pass a report, piece by piece and in
order, to a ``write`` sink such as ``sys.stdout.write``, so the output
is never held whole; ``render_tree`` joins the pieces into one string.  The tree is emitted by ``_emit`` in one recursive pass, which
gives the bytes of ``json.dumps(tree, indent=2)`` for the tree with each
vector entry as its decimal string (``json.dumps`` runs the pure-Python
encoder with an indent).  ``_emit`` quotes strings with the C encoder
and writes a vector, kept as its length and pairs, as one string of its
decimal strings: it visits only the nonzero entries.  The text report
is written line by line; a vector's table cell is formed only for its
own line, as the column's width is counted from the nonzero entries.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .chain import ChainReport
from .dirac import OracleResult, SpanVerdict


def _tree(report: ChainReport, comparison: SpanVerdict | None, oracle: OracleResult | None) -> dict:
    """The report as a JSON tree, with each null vector and generator left as its (length, pairs) tuple."""
    sizes = {rec.level: rec.shape[0] for rec in report.levels}
    texts: dict[int, str] = {}  # by id, as all outlive the call: repeated candidates and raws share values

    def text(e) -> str:
        return texts[id(e)] if id(e) in texts else texts.setdefault(id(e), e.to_text())

    tree: dict = {
        "model": report.model_name,
        "zeta": list(report.zeta_names),
        "multipliers": list(report.multiplier_names),
        "constraints": [
            {
                "level": c.level,
                "expr": text(c.expr),
                "raw": text(c.raw),
                "origin": c.origin,
                "generator": (sizes[c.level - 1], c.generator) if c.generator is not None else None,
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
                        "vector": (rec.shape[0], cand.vector),
                        "value": text(cand.value),
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
            "chain_only": [text(e) for e in comparison.only_in_first],
            "oracle_only": [text(e) for e in comparison.only_in_second],
        }
        if oracle is not None:
            tree["comparison"]["oracle_constraints"] = [
                {"level": c.level, "expr": text(c.expr), "raw": text(c.raw)}
                for c in oracle.constraints
            ]
            tree["comparison"]["multiplier_conditions"] = [
                {"constraint": text(mc.constraint.expr), "condition": text(mc.condition)}
                for mc in oracle.multiplier_conditions
            ]
    return tree


def write_tree(
    write,
    report: ChainReport,
    comparison: SpanVerdict | None = None,
    oracle: OracleResult | None = None,
) -> None:
    """Pass the tree report to ``write`` in order: one piece per string, number, vector or list of strings
    of the tree, each with the brackets, keys and separators before it."""
    write(_emit(write, _tree(report, comparison, oracle)) + "\n")


def render_tree(
    report: ChainReport,
    comparison: SpanVerdict | None = None,
    oracle: OracleResult | None = None,
) -> str:
    """The tree report as one string: the pieces ``write_tree`` passes, joined."""
    parts: list[str] = []
    write_tree(parts.append, report, comparison, oracle)
    return "".join(parts)


def _emit(write, obj, indent: str = "\n", head: str = "") -> str:
    """Write ``head`` and then ``json.dumps(obj, indent=2)`` for str-keyed dicts, lists and JSON scalars.

    Each scalar, vector and list of strings is written in one piece with the brackets, keys and
    separators before it; the text after the last one is returned, not written.  A tuple (n, pairs)
    is written as the list of the decimal strings of the n ints nonzero at ``pairs``.  ``indent`` is
    the newline and the indentation that precede ``obj``'s closing bracket.
    """
    kind = type(obj)
    if kind is dict and obj:
        items, brackets = obj.items(), "{}"
    elif kind is list and set(map(type, obj)) - {str}:
        items, brackets = enumerate(obj), "[]"
    else:
        write(head + _leaf(obj, indent))
        return ""
    inner, sep = indent + "  ", brackets[0]
    for key, value in items:
        head += sep + inner + (_quote(key) + ": " if kind is dict else "")
        if type(value) is str:  # most leaves are strings: written here, without two calls
            write(head + _quote(value))
            head = ""
        else:
            head = _emit(write, value, inner, head)
        sep = ","
    return head + indent + brackets[1]


def _leaf(obj, indent: str) -> str:
    """The JSON text of a scalar, an empty container, a list of strings or a vector (n, pairs)."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if not obj or kind not in (list, tuple):
        return json.dumps(obj)
    inner = indent + "  "
    if kind is list:
        return "[" + inner + ("," + inner).join(map(_quote, obj)) + indent + "]"
    # the nonzero entries one by one, each run of zeros as one repeated string
    (n, pairs), zero, parts, end = obj, '"0",' + inner, [], 0
    for i, x in pairs:
        parts += (zero * (i - end), '"', int.__repr__(x), '",', inner)
        end = i + 1
    parts.append(zero * (n - end))
    return "[" + inner + "".join(parts)[: -len(inner) - 1] + indent + "]" if n else "[]"


def write_text(
    write,
    report: ChainReport,
    comparison: SpanVerdict | None = None,
    oracle: OracleResult | None = None,
) -> None:
    """Pass the text report to ``write`` line by line."""
    write(f"model: {report.model_name}\n")
    write("phase space: " + " ".join(report.zeta_names) + "\n")
    if report.constraints:
        write("constraints:\n")
        sizes = {rec.level: rec.shape[0] for rec in report.levels}
        rows = [("level", "constraint", "raw", "origin", "eigenvector")]
        for c in report.constraints:
            n = sizes[c.level - 1] if c.generator is not None else 0
            rows.append((str(c.level), str(c.expr), str(c.raw), c.origin, (n, c.generator) if n else "-"))
        _write_table(write, rows)
    else:
        write("constraints: none\n")
    if report.truncations:
        write("truncations: " + ", ".join(f"level {k}" for k in report.truncations) + "\n")
    write("termination: " + report.termination.describe() + "\n")
    for w in report.warnings:
        write("warning: " + w + "\n")
    if oracle is not None:
        if oracle.constraints:
            write("oracle constraints:\n")
            rows = [("level", "constraint", "raw", "origin")]
            rows += [(str(c.level), str(c.expr), str(c.raw), c.origin) for c in oracle.constraints]
            _write_table(write, rows)
        else:
            write("oracle constraints: none\n")
        for mc in oracle.multiplier_conditions:
            write(
                f"oracle multiplier condition: consistency of {mc.constraint.expr}"
                f" requires {mc.condition} = 0\n"
            )
    if comparison is not None:
        write("span comparison: " + comparison.describe() + "\n")


def _write_table(write, rows: list[tuple]) -> None:
    """Write ``rows`` as an indented table with a rule under the first, one line at a time.

    Cells are strings, except that a last cell may be a vector (n, pairs), shown as "(x_0, ..., x_{n-1})".
    Every line is stripped at its end, so the last column is never padded: its width shows only in
    the rule, and is counted from the nonzero entries, so each vector is written out only on its own line.
    """
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]) - 1)]
    widths.append(max(map(_cell_width, (row[-1] for row in rows))))
    for r, (*cells, last) in enumerate(rows):
        if type(last) is tuple:
            n, pairs = last
            entries = ["0"] * n
            for i, x in pairs:
                entries[i] = int.__repr__(x)
            last = "(" + ", ".join(entries) + ")"
        write("  " + " | ".join([*map(str.ljust, cells, widths), last]).rstrip() + "\n")
        if r == 0:
            write("  " + "-+-".join("-" * w for w in widths) + "\n")


def _cell_width(cell) -> int:
    """The length of a table cell: a string, or a vector (n, pairs) as "(x_0, ..., x_{n-1})"."""
    if type(cell) is str:
        return len(cell)
    n, pairs = cell
    return 3 * n + sum(len(int.__repr__(x)) - 1 for _, x in pairs)
