"""Report writers: JSON against ``json.dumps``, CSV quoting and table alignment."""

import json

from hypothesis import example, given, settings, strategies as st

from legipower.reporting import CSV_HEADER, Report, render, render_csv, render_json, render_table


def _dumps(report: Report) -> str:
    """The JSON document built as a dict and written by ``json.dumps(indent=2)``."""
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
    return json.dumps(doc, indent=2) + "\n"


def _report(meta, sections) -> Report:
    report = Report(meta)
    for id, title, headers, rows in sections:
        report.section(id, title, headers).rows.extend(rows)
    return report


# Characters JSON escapes or that tempt a shortcut: quote, backslash, controls,
# DEL, non-ASCII letters and digits, an astral character and a lone surrogate.
_TRICKY = '"\\\x00\x08\t\n\x1f\x7f é٣\U0001f600\ud800,\r'
_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from("ab09AZ"), max_size=6),
    st.text(alphabet=st.sampled_from("ab09" + _TRICKY), max_size=6),
    st.text(max_size=6),
)
_META = st.one_of(st.none(), st.lists(st.tuples(st.sampled_from(["k", "x", _TRICKY]), _TEXT),
                                      max_size=4))
_SECTION = st.integers(0, 3).flatmap(lambda width: st.tuples(
    _TEXT, _TEXT,
    st.tuples(*[_TEXT] * width),
    st.lists(st.tuples(*[_TEXT] * width), max_size=4),
))


class TestJson:
    @settings(max_examples=500, deadline=None)
    @given(_META, st.lists(_SECTION, max_size=3))
    @example(None, [])
    @example([], [])
    @example([("k", "1"), ("x", "2"), ("k", "3")], [])
    @example(None, [("s", "", (), [])])
    @example(None, [("s", "t", (), [(), ()])])
    @example(None, [("", "", ("a",), [("",), ("\x7f",), ("é",), ("٣",), ("\ud800",)])])
    def test_matches_json_dumps(self, meta, sections):
        report = _report(meta, sections)
        assert render_json(report) == render(report, "json") == _dumps(report)

    def test_report_shape(self):
        report = _report([("tool", "legipower")], [("s", "t", ("a", "b"), [("1", "x/y")])])
        assert json.loads(render_json(report)) == {
            "meta": {"tool": "legipower"},
            "sections": [{"id": "s", "title": "t", "headers": ["a", "b"],
                          "rows": [["1", "x/y"]]}],
        }

    def test_escapes_that_isalnum_would_pass(self):
        # Unicode letters and digits are alphanumeric but must still be escaped.
        assert "é٣".isalnum()
        report = _report(None, [("s", "t", ("a",), [("é٣",), ("\x7f",)])])
        text = render_json(report)
        assert '"\\u00e9\\u0663"' in text and '"\\u007f"' in text


def _csv_rows(report: Report) -> list[str]:
    text = render_csv(report)
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text.split("\n")[:-1]
    assert lines[0] == CSV_HEADER
    return lines[1:]


class TestCsv:
    def test_quotes_separators_quotes_and_line_breaks(self):
        cells = ("a,b", 'say "x"', "two\nlines", "cr\rhere", "plain", "")
        report = _report(None, [("s", "t", ("f",), [(c,) for c in cells])])
        assert render_csv(report) == (
            f'{CSV_HEADER}\ns,,,,"a,b",\ns,,,,"say ""x""",\ns,,,,"two\nlines",\n'
            's,,,,"cr\rhere",\ns,,,,plain,\ns,,,,,\n'
        )

    def test_fields_value_and_approx_columns(self):
        report = _report([("tool", "legipower")], [
            ("v", "t", ("class", "size", "count", "approx"), [("c0", "3", "10", "1.0e+01")]),
            ("r", "t", ("a", "b", "c", "d", "e"), [("1", "2", "3", "4", "5")]),
        ])
        assert _csv_rows(report) == [
            "meta,tool,,,legipower,", "v,c0,3,,10,1.0e+01", "r,1,2,3,5,",
        ]

    def test_empty_report_is_the_header_line(self):
        assert render_csv(Report(None)) == CSV_HEADER + "\n"


class TestTable:
    def test_columns_are_aligned_and_lines_unpadded(self):
        report = _report([("tool", "legipower")], [
            ("s", "numbers", ("class", "n"), [("c0", "12345"), ("long-name", "7")]),
        ])
        assert render_table(report) == (
            "== metadata ==\n"
            "tool: legipower\n"
            "\n"
            "== numbers ==\n"
            "class      n\n"
            "c0         12345\n"
            "long-name  7\n"
        )

    def test_trailing_blanks_are_stripped(self):
        report = _report(None, [("s", "t", ("a", "b", "c"), [("x", "", ""), ("", "y ", "")])])
        assert render_table(report) == "== t ==\na  b   c\nx\n   y\n"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_SECTION, max_size=3))
    def test_lines_are_padded_columns_stripped(self, sections):
        # Each line is every cell padded to its column's width, then right-stripped.
        expected = []
        for _, title, headers, rows in sections:
            widths = [max(len(c) for c in column) for column in zip(headers, *rows)]
            expected.append(f"== {title} ==")
            expected += ["  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
                         for line in (headers, *rows)]
            expected.append("")
        assert render_table(_report(None, sections)) == "\n".join(expected)

    def test_no_columns(self):
        report = _report(None, [("s", "t", (), [(), ()])])
        assert render_table(report) == "== t ==\n\n\n\n"
