"""Deterministic report rendering: aligned text, CSV, or JSON.

Reports are built as ordered sections of rows holding pre-formatted exact
values (integers and rationals as strings), so every renderer emits byte-for-
byte identical output for identical inputs.  The CSV schema is fixed at six
columns: section, field1, field2, field3, value, approx.
"""

from __future__ import annotations

import json
import sys
from decimal import MIN_EMIN, Context, Decimal
from fractions import Fraction

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
        lines.append("  ".join(h.ljust(w) for h, w in zip(sec.headers, widths)).rstrip())
        for row in sec.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        lines.append("")
    return "\n".join(lines)


def render_csv(report: Report) -> str:
    lines = [CSV_HEADER]

    def emit(section: str, fields: tuple[str, ...], value: str, approx: str) -> None:
        padded = (list(fields) + ["", "", ""])[:3]
        lines.append(",".join(_csv_quote(c) for c in (section, *padded, value, approx)))

    if report.meta is not None:
        for key, value in report.meta:
            emit("meta", (key,), value, "")
    for sec in report.sections:
        has_approx = sec.headers and sec.headers[-1] == "approx"
        for row in sec.rows:
            if has_approx:
                emit(sec.id, row[:-2], row[-2], row[-1])
            else:
                emit(sec.id, row[:-1], row[-1], "")
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    doc: dict = {}
    if report.meta is not None:
        doc["meta"] = dict(report.meta)
    doc["sections"] = [
        {
            "id": sec.id,
            "title": sec.title,
            "headers": list(sec.headers),
            "rows": [list(row) for row in sec.rows],
        }
        for sec in report.sections
    ]
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def render(report: Report, fmt: str) -> str:
    if fmt == "table":
        return render_table(report)
    if fmt == "csv":
        return render_csv(report)
    if fmt == "json":
        return render_json(report)
    raise ValueError(f"unknown format {fmt!r}")
