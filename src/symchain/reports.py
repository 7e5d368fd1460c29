"""Text and machine-readable renderings of chain runs and comparisons.

The tree form is a single JSON document per run, holding every field of
the report (the text table is a projection).  Both renderings are
byte-deterministic for identical inputs, and write each null vector, held
as its nonzero (index, int) pairs, dense to its record's row count.  The
tree is written by ``_json``, which gives the bytes of ``json.dumps(tree,
indent=2)`` for the tree with each vector entry as its decimal string
(``json.dumps`` runs the pure-Python encoder with an indent).  ``_json``
quotes strings with the C encoder and writes a vector, kept as its length
and pairs, as its decimal strings: it visits only the nonzero entries.
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


def render_tree(
    report: ChainReport,
    comparison: SpanVerdict | None = None,
    oracle: OracleResult | None = None,
) -> str:
    return _json(_tree(report, comparison, oracle)) + "\n"


def _json(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` for str-keyed dicts, lists and JSON scalars.

    A tuple (n, pairs) is written as the list of the decimal strings of the n ints nonzero at ``pairs``.
    ``indent`` is the newline and the indentation that precede ``obj``'s closing bracket.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if not obj or kind not in (list, dict, tuple):
        return json.dumps(obj)
    inner = indent + "  "
    if kind is tuple:
        # the nonzero entries one by one, each run of zeros as one repeated string
        (n, pairs), zero, parts, end = obj, '"0",' + inner, [], 0
        for i, x in pairs:
            parts += (zero * (i - end), '"', int.__repr__(x), '",', inner)
            end = i + 1
        parts.append(zero * (n - end))
        return "[" + inner + "".join(parts)[: -len(inner) - 1] + indent + "]" if n else "[]"
    sep = "," + inner
    if kind is dict:
        return "{" + inner + sep.join([_quote(k) + ": " + _json(v, inner) for k, v in obj.items()]) + indent + "}"
    if set(map(type, obj)) == {str}:
        return "[" + inner + sep.join(map(_quote, obj)) + indent + "]"
    return "[" + inner + sep.join([_json(x, inner) for x in obj]) + indent + "]"


def _constraint_rows(report: ChainReport) -> list[tuple[str, ...]]:
    sizes = {rec.level: rec.shape[0] for rec in report.levels}
    rows = [("level", "constraint", "raw", "origin", "eigenvector")]
    for c in report.constraints:
        vec = ["0"] * sizes[c.level - 1] if c.generator is not None else None
        for i, x in c.generator or ():
            vec[i] = str(x)
        rows.append((str(c.level), str(c.expr), str(c.raw), c.origin, "(" + ", ".join(vec) + ")" if vec else "-"))
    return rows


def _format_table(rows: list[tuple[str, ...]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for r, row in enumerate(rows):
        line = " | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        lines.append(line)
        if r == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return lines


def render_text(
    report: ChainReport,
    comparison: SpanVerdict | None = None,
    oracle: OracleResult | None = None,
) -> str:
    lines = [f"model: {report.model_name}"]
    lines.append("phase space: " + " ".join(report.zeta_names))
    if report.constraints:
        lines.append("constraints:")
        lines.extend("  " + l for l in _format_table(_constraint_rows(report)))
    else:
        lines.append("constraints: none")
    if report.truncations:
        lines.append(
            "truncations: " + ", ".join(f"level {k}" for k in report.truncations)
        )
    lines.append("termination: " + report.termination.describe())
    for w in report.warnings:
        lines.append("warning: " + w)
    if oracle is not None:
        if oracle.constraints:
            lines.append("oracle constraints:")
            lines.extend("  " + l for l in _format_table(_oracle_rows(oracle)))
        else:
            lines.append("oracle constraints: none")
        for mc in oracle.multiplier_conditions:
            lines.append(
                f"oracle multiplier condition: consistency of {mc.constraint.expr}"
                f" requires {mc.condition} = 0"
            )
    if comparison is not None:
        lines.append("span comparison: " + comparison.describe())
    return "\n".join(lines) + "\n"


def _oracle_rows(oracle: OracleResult) -> list[tuple[str, ...]]:
    rows = [("level", "constraint", "raw", "origin")]
    for c in oracle.constraints:
        rows.append((str(c.level), str(c.expr), str(c.raw), c.origin))
    return rows
