"""Command-line front end: spec-file analyses with deterministic reports.

Exit codes: 0 success, 1 oracle mismatch, 2 input validation failure,
3 capability bound exceeded, 4 internal error (an exact check contradicted
another, or any other unexpected exception; the message names its type).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, lattice
from .chambers import classify_bicameral, compare_members, crossover_sizes, majority_quota
from .combinat import binomial
from .counting import CountVector
from .reporting import (
    Report,
    approx_int,
    approx_rational,
    format_digits,
    render,
)
from .semivalues import (
    WeightingVector,
    banzhaf,
    competition_ranks,
    evaluate,
    point_mass,
    shapley_shubik,
    size_signs,
    weak_desirability,
)
from .specfile import (
    Legislature,
    SpecFileError,
    load_spec_file,
    load_weight_file,
    resolve_class,
)
from .uslike import UsSpec

# `oracle` refuses a spec of more seat-count lattice cells than this before any
# per-cell work.  At the bound, 20 one-seat chambers take 4 s and 25 MB, and one
# chamber of 2^20 - 1 seats 1 s and 64 MB (2-core host, Python 3.11).  It caps
# the sweep, not the exact counts, which the closed forms build as well.
MAX_LATTICE_CELLS = 1 << 20


def _meta(args: argparse.Namespace, command: str,
          spec: Legislature | None = None) -> list[tuple[str, str]] | None:
    if args.no_meta:
        return None
    meta = [("tool", "legipower"), ("version", __version__), ("command", command)]
    if spec is not None:
        echo = json.dumps(spec.to_document(), sort_keys=True, separators=(",", ":"))
        meta.append(("spec", echo))
    return meta


def integer(text: str) -> int:
    """``text`` as an int, when it is an optional ``-`` and ASCII digits.

    Plain ``int()`` also takes ``+3``, ``0_3``, `` 3`` and non-ASCII digits
    such as the Arabic-Indic ones; those raise ``ValueError`` here, which
    argparse reports as an "invalid integer value".
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _resolve_index(selector: str, n: int) -> tuple[str, WeightingVector]:
    if selector == "banzhaf":
        return "banzhaf", banzhaf(n)
    if selector == "shapley":
        return "shapley", shapley_shubik(n)
    if selector.startswith("pointmass:"):
        raw = selector.split(":", 1)[1]
        try:
            size = integer(raw)
        except ValueError:
            raise SpecFileError(f"pointmass size must be an integer, got {raw!r}") from None
        return f"pointmass:{size}", point_mass(n, size)
    if selector.startswith("file:"):
        path = selector.split(":", 1)[1]
        return f"file:{path}", load_weight_file(path, n)
    raise SpecFileError(
        f"unknown index selector {selector!r}; use banzhaf, shapley, pointmass:<k>, file:<path>"
    )


def _spec_section(report: Report, spec: Legislature) -> None:
    sec = report.section("spec", "legislature", ("field", "value"))
    document = spec.to_document()
    executive = document.get("executive", {})
    override = executive.get("override", {})
    sec.rows.append(("kind", "us-style" if executive else "multicameral"))
    for chamber in document["chambers"]:
        name = chamber["name"]
        sec.rows.append((f"{name}.size", str(chamber["size"])))
        sec.rows.append((f"{name}.quota", str(chamber["quota"])))
        if name in override:
            sec.rows.append((f"{name}.override", str(override[name])))
    for flag in ("president", "vice_president"):
        if flag in executive:
            sec.rows.append((flag, json.dumps(executive[flag])))
    sec.rows.append(("players", str(spec.total_players)))


def _vector_section(report: Report, spec: Legislature, vectors: dict[str, CountVector],
                    elide: bool, approx: bool) -> None:
    headers = ("class", "size", "count") + (("approx",) if approx else ())
    sec = report.section("critical_vectors", "critical numbers", headers)
    for class_id, vec in vectors.items():
        for k, digits in spec.critical_digits(class_id, vec):
            row = (class_id, str(k), format_digits(digits, elide))
            if approx:
                row += (approx_int(vec[k]),)
            sec.rows.append(row)


def _index_sections(report: Report, vectors: dict[str, CountVector],
                    indices: list[tuple[str, WeightingVector]], approx: bool) -> None:
    headers = ("class", "index", "value") + (("approx",) if approx else ())
    values_sec = report.section("index_values", "index values", headers)
    ranking_sec = report.section("ranking", "ranking", ("index", "rank", "class", "value"))
    for index_name, w in indices:
        values = {class_id: evaluate(w, vec) for class_id, vec in vectors.items()}
        for class_id, value in values.items():
            row = (class_id, index_name, str(value))
            if approx:
                row += (approx_rational(value),)
            values_sec.rows.append(row)
        for rank, class_id, value in competition_ranks(values):
            ranking_sec.rows.append((index_name, str(rank), class_id, str(value)))


def _vectors(spec: Legislature) -> dict[str, CountVector]:
    return {class_id: spec.critical_vector(class_id) for class_id in spec.class_ids()}


def cmd_analyze(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.specfile)
    vectors = _vectors(spec)
    index_name, w = _resolve_index(args.index, spec.total_players)
    report = Report(_meta(args, "analyze", spec))
    _spec_section(report, spec)
    elide = args.format != "json" and not args.full
    _vector_section(report, spec, vectors, elide, args.approx)
    _index_sections(report, vectors, [(index_name, w)], args.approx)
    print(render(report, args.format), end="")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.specfile)
    class_a = resolve_class(spec, args.class_a)
    class_b = resolve_class(spec, args.class_b)
    relation = compare_members(spec, class_a, class_b)

    report = Report(_meta(args, "compare", spec))
    sec = report.section("comparison", "weak desirability", ("field", "value"))
    sec.rows.append(("first", class_a))
    sec.rows.append(("second", class_b))
    sec.rows.append(("relation", relation.kind.value))
    if relation.witness is not None:
        sec.rows.append(("first_ahead_at", str(relation.witness[0])))
        sec.rows.append(("second_ahead_at", str(relation.witness[1])))
        dsec = report.section(
            "distinguishing_indices", "distinguishing point-mass indices",
            ("favours", "size", "weight"),
        )
        # point_mass(n, size).weight(size), without building the n weights.
        for favours, size in zip((class_a, class_b), relation.witness):
            weight = Fraction(1, binomial(spec.total_players - 1, size - 1))
            dsec.rows.append((favours, str(size), str(weight)))
    print(render(report, args.format), end="")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.specfile)
    cells = lattice.cell_count(spec)
    if cells > MAX_LATTICE_CELLS:
        print(f"error: spec has {cells} lattice cells, enumeration bound is {MAX_LATTICE_CELLS}",
              file=sys.stderr)
        return 3
    enumerated = lattice.critical_vectors(spec)
    report = Report(_meta(args, "oracle", spec))
    sec = report.section("oracle", "closed form versus exhaustive enumeration",
                         ("class", "status", "detail"))
    mismatched = False
    for class_id in spec.class_ids():
        closed = spec.critical_vector(class_id)
        if closed == enumerated[class_id]:
            sec.rows.append((class_id, "match", f"{len(closed.support())} sizes"))
        else:
            mismatched = True
            bad = next(k for k, sign in size_signs(closed, enumerated[class_id]).items() if sign)
            sec.rows.append((
                class_id, "MISMATCH",
                f"size {bad}: closed {closed[bad]}, enumerated {enumerated[class_id][bad]}",
            ))
            break
    print(render(report, args.format), end="")
    return 1 if mismatched else 0


def _sign_runs(signs: dict[int, int]) -> list[tuple[int, int, int]]:
    runs: list[tuple[int, int, int]] = []
    for k in sorted(signs):
        if runs and runs[-1][2] == signs[k] and runs[-1][1] == k - 1:
            runs[-1] = (runs[-1][0], k, signs[k])
        else:
            runs.append((k, k, signs[k]))
    return runs


def cmd_us(args: argparse.Namespace) -> int:
    spec = UsSpec(senate_quota=args.qs, house_quota=args.qr,
                  senate_override=args.os, house_override=args.override_reps)
    vectors = _vectors(spec)
    n = spec.total_players

    report = Report(_meta(args, "us", spec))
    _spec_section(report, spec)

    verdicts = report.section("verdicts", "weak desirability verdicts",
                              ("first", "second", "relation"))
    ids = list(vectors)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            relation = weak_desirability(vectors[a], vectors[b])
            verdicts.rows.append((a, b, relation.kind.value))

    signs = size_signs(vectors["vice_president"], vectors["representative"])
    sign_sec = report.section("vp_vs_representative", "vice president versus representative",
                              ("from_size", "to_size", "ahead"))
    for lo, hi, sign in _sign_runs(signs):
        ahead = {1: "vice_president", 0: "tie", -1: "representative"}[sign]
        sign_sec.rows.append((str(lo), str(hi), ahead))

    _index_sections(report, vectors, [("banzhaf", banzhaf(n)), ("shapley", shapley_shubik(n))],
                    args.approx)
    elide = args.format != "json" and not args.full
    _vector_section(report, spec, vectors, elide, args.approx)
    print(render(report, args.format), end="")
    return 0


def cmd_crossover(args: argparse.Namespace) -> int:
    m_small, m_large = args.ms, args.mr
    if not 1 <= m_small < m_large:
        raise SpecFileError(f"need 1 <= --ms < --mr, got {m_small}, {m_large}")
    q_small = args.qs if args.qs is not None else majority_quota(m_small)
    q_large = args.qr if args.qr is not None else majority_quota(m_large)
    sizes = crossover_sizes(m_small, q_small, m_large, q_large)

    report = Report(_meta(args, "crossover"))
    sec = report.section("crossover", "larger-house advantage sizes", ("field", "value"))
    sec.rows.append(("small.size", str(m_small)))
    sec.rows.append(("small.quota", str(q_small)))
    sec.rows.append(("large.size", str(m_large)))
    sec.rows.append(("large.quota", str(q_large)))
    sec.rows.append(("case", classify_bicameral(m_small, m_large).value))
    sec.rows.append(("crossover_sizes", " ".join(str(k) for k in sorted(sizes)) or "none"))
    print(render(report, args.format), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legipower",
        description="Exact voting-power analysis for multicameral legislatures.",
    )
    parser.add_argument("--version", action="version", version=f"legipower {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "csv", "json"), default="table",
                        help="output format (default: table)")
    common.add_argument("--full", action="store_true",
                        help="never elide large counts in table/csv output")
    common.add_argument("--no-meta", action="store_true", help="omit the metadata block")
    common.add_argument("--approx", action="store_true",
                        help="add clearly-marked decimal approximations")

    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", parents=[common],
                               help="critical vectors, index values, and ranking")
    p_analyze.add_argument("specfile")
    p_analyze.add_argument("--index", default="banzhaf",
                           help="banzhaf | shapley | pointmass:<k> | file:<path>")
    p_analyze.set_defaults(func=cmd_analyze)

    p_compare = sub.add_parser("compare", parents=[common],
                               help="weak-desirability verdict for two player classes")
    p_compare.add_argument("specfile")
    p_compare.add_argument("class_a")
    p_compare.add_argument("class_b")
    p_compare.set_defaults(func=cmd_compare)

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="cross-validate closed forms by enumerating seat counts")
    p_oracle.add_argument("specfile")
    p_oracle.set_defaults(func=cmd_oracle)

    p_us = sub.add_parser("us", parents=[common],
                          help="built-in US-style system with optional quota overrides")
    us = UsSpec()
    p_us.add_argument("--qs", type=integer, default=us.senate_quota,
                      help="senate signature quota (default %(default)s)")
    p_us.add_argument("--qr", type=integer, default=us.house_quota,
                      help="house signature quota (default %(default)s)")
    p_us.add_argument("--os", type=integer, default=us.senate_override,
                      help="senate override quota (default %(default)s)")
    p_us.add_argument("--or", type=integer, default=us.house_override, dest="override_reps",
                      help="house override quota (default %(default)s)")
    p_us.set_defaults(func=cmd_us)

    p_cross = sub.add_parser("crossover", parents=[common],
                             help="sizes where the larger house's member is ahead")
    p_cross.add_argument("--ms", type=integer, required=True, help="smaller house size")
    p_cross.add_argument("--mr", type=integer, required=True, help="larger house size")
    p_cross.add_argument("--qs", type=integer, help="smaller house quota (default: majority)")
    p_cross.add_argument("--qr", type=integer, help="larger house quota (default: majority)")
    p_cross.set_defaults(func=cmd_crossover)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Counts of chambers past about 14,000 seats have more digits than the
    # interpreter's default limit on int-to-string conversion (4300, where the
    # limit exists).  Reports print counts from their decimal digits run,
    # which the limit does not touch, but index values, --approx and a class
    # on the Kronecker path go through int-to-string conversion, so the limit
    # is lifted while the command runs and restored for in-process callers.
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
