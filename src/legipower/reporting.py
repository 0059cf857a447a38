"""Deterministic report rendering: aligned text, CSV, or JSON.

Reports are built as ordered sections of rows holding pre-formatted exact
values (integers and rationals as strings), so every renderer emits byte-for-
byte identical output for identical inputs.  The CSV schema is fixed at six
columns: section, field1, field2, field3, value, approx.

The JSON writer writes the document's fixed shape (``meta`` when kept, then
``sections`` with id, title, headers and rows) directly, as small pieces joined
once; a property test checks it byte for byte against ``json.dumps(indent=2)``.
The CSV writer likewise appends cells and separators to one list, joined once.
JSON and CSV pass a cell of ASCII letters and digits through as it is.
"""

from __future__ import annotations

import sys
from decimal import MIN_EMIN, Context, Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

ELIDE_DIGITS = 120

CSV_HEADER = "section,field1,field2,field3,value,approx"


class Section:
    """One titled table: ``rows`` of pre-formatted cells under ``headers``."""

    def __init__(self, id: str, title: str, headers: tuple[str, ...]) -> None:
        self.id = id
        self.title = title
        self.headers = headers
        self.rows: list[tuple[str, ...]] = []


class Report:
    """Metadata pairs, or None to leave them out, and the sections in order."""

    def __init__(self, meta: list[tuple[str, str]] | None) -> None:
        self.meta = meta
        self.sections: list[Section] = []

    def section(self, id: str, title: str, headers: tuple[str, ...]) -> Section:
        sec = Section(id, title, headers)
        self.sections.append(sec)
        return sec


def format_digits(digits: str, elide: bool) -> str:
    """An integer's decimal digits, or ``[N digits]`` past ``ELIDE_DIGITS`` when eliding."""
    if elide and len(digits) > ELIDE_DIGITS:
        return f"[{len(digits)} digits]"
    return digits


def approx_rational(value: Fraction) -> str:
    if 0 < abs(value) < Fraction(sys.float_info.min):  # float() would lose digits
        # Rounded once to 7 digits; no fraction in memory is below MIN_EMIN.
        rounded = Context(prec=7, Emin=MIN_EMIN).divide(value.numerator, value.denominator)
        return format(rounded, ".6e")
    return f"{float(value):.6e}"


def approx_int(value: int) -> str:
    try:
        return f"{float(value):.6e}"
    except OverflowError:  # above the float range: round the exact integer
        return format(Decimal(value), ".6e")


def _csv_quote(cell: str) -> str:
    if cell.isascii() and cell.encode().isalnum():  # ASCII letters and digits: nothing to quote
        return cell
    if any(ch in cell for ch in ",\"\n\r"):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_table(report: Report) -> str:
    lines: list[str] = []
    if report.meta is not None:
        lines.append("== metadata ==")
        for key, value in report.meta:
            lines.append(f"{key}: {value}")
        lines.append("")
    for sec in report.sections:
        lines.append(f"== {sec.title} ==")
        widths = [len(h) for h in sec.headers]
        for row in sec.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        if widths:
            widths[-1] = 0  # the last column is not padded, so rstrip copies nothing
        lines.append("  ".join(h.ljust(w) for h, w in zip(sec.headers, widths)).rstrip())
        for row in sec.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        lines.append("")
    return "\n".join(lines)


def render_csv(report: Report) -> str:
    out = [CSV_HEADER]
    sections = [] if report.meta is None else [("meta", False, report.meta)]
    sections += [(sec.id, bool(sec.headers) and sec.headers[-1] == "approx", sec.rows)
                 for sec in report.sections]
    for section, has_approx, rows in sections:
        for row in rows:
            # section, three fields padded with empty cells, value, approx
            fields = row[:-2 if has_approx else -1][:3]
            out += ("\n", _csv_quote(section))
            for cell in fields:
                out += (",", _csv_quote(cell))
            out += (",,,,"[len(fields):], _csv_quote(row[-2] if has_approx else row[-1]), ",",
                    _csv_quote(row[-1]) if has_approx else "")
    out.append("\n")
    return "".join(out)


def _json_strings(out: list[str], items: tuple[str, ...], indent: str) -> None:
    """Append ``items`` as a JSON array of strings, laid out as by ``json.dumps(indent=2)``."""
    if not items:
        out.append("[]")
        return
    sep, next_sep = "[\n  " + indent, ",\n  " + indent
    for item in items:
        # JSON escapes no ASCII letter or digit; bytes.isalnum reads them fastest.
        if item.isascii() and item.encode().isalnum():
            out += (sep, '"', item, '"')
        else:
            out += (sep, _json_str(item))
        sep = next_sep
    out += ("\n", indent, "]")


def render_json(report: Report) -> str:
    out = ["{"]
    if report.meta is not None:
        meta = dict(report.meta)  # a repeated key keeps its first place and last value
        sep = '\n  "meta": {\n    '
        for key, value in meta.items():
            out += (sep, _json_str(key), ": ", _json_str(value))
            sep = ",\n    "
        out.append("\n  }," if meta else '\n  "meta": {},')
    out.append('\n  "sections": ')
    sep = "[\n    {"
    for sec in report.sections:
        out += (sep, '\n      "id": ', _json_str(sec.id), ',\n      "title": ',
                _json_str(sec.title), ',\n      "headers": ')
        _json_strings(out, sec.headers, "      ")
        out.append(',\n      "rows": ')
        row_sep = "[\n        "
        for row in sec.rows:
            out.append(row_sep)
            _json_strings(out, row, "        ")
            row_sep = ",\n        "
        out.append("\n      ]\n    }" if sec.rows else "[]\n    }")
        sep = ",\n    {"
    out.append("\n  ]\n}\n" if report.sections else "[]\n}\n")
    return "".join(out)


def render(report: Report, fmt: str) -> str:
    if fmt == "table":
        return render_table(report)
    if fmt == "csv":
        return render_csv(report)
    if fmt == "json":
        return render_json(report)
    raise ValueError(f"unknown format {fmt!r}")
