"""Strict parsing of legislature spec files.

A spec file is a JSON document with a ``chambers`` list and an optional
``executive`` block; unknown keys are rejected so that a typo cannot silently
change the model, and a key given twice in one object is an error.  Files
without an executive load as a ``MulticamSpec``; files with one load as a
``UsSpec``, with the first chamber acting as the vice president's tie-break
chamber.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .chambers import ChamberSpec, MulticamSpec
from .semivalues import WeightingVector
from .uslike import UsSpec


class SpecFileError(ValueError):
    """A spec file failed validation; the message names the offending field."""


_CHAMBER_KEYS = {"name", "size", "quota"}
_EXEC_KEYS = {"president", "vice_president", "override"}
_TOP_KEYS = {"chambers", "executive"}

_ALIASES = {
    "p": "president",
    "vp": "vice_president",
    "v": "vice_president",
    "vice-president": "vice_president",
    "sen": "senator",
    "rep": "representative",
}


def _require_int(value: object, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecFileError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_bool(value: object, where: str) -> bool:
    if not isinstance(value, bool):
        raise SpecFileError(f"{where}: expected a boolean, got {value!r}")
    return value


Legislature = MulticamSpec | UsSpec


def resolve_class(spec: Legislature, name: str) -> str:
    """Map a user-supplied class name to one of the spec's class ids.

    A class id or a chamber's name, standing for the class of its members,
    matches exactly first (a class id before a chamber name), then up to
    case; a name that matches several classes only up to case is refused.
    A short alias such as ``rep`` applies only to a name that matches
    nothing, so a chamber named like an alias stays reachable by its own name.
    """
    ids = spec.class_ids()
    chambers = [c["name"] for c in spec.to_document()["chambers"]]
    # The chambers' member classes are the last class ids, in chamber order.
    names = list(zip(ids, ids)) + list(zip(chambers, ids[-len(chambers):]))
    exact = [i for n, i in names if n == name]
    if exact:
        return exact[0]
    key = name.lower()
    if not any(n.lower() == key for n, _ in names):
        key = _ALIASES.get(key, key)
    folded = list(dict.fromkeys(i for n, i in names if n.lower() == key))
    if len(folded) > 1:
        raise SpecFileError(
            f"player class {name!r} is ambiguous up to case; matches: {', '.join(folded)}"
        )
    if folded:
        return folded[0]
    raise SpecFileError(f"unknown player class {name!r}; known: {', '.join(ids)}")


def parse_spec(document: object) -> Legislature:
    """Validate a parsed JSON document into a spec.

    Every accepted document round-trips: ``parse_spec(doc).to_document() == doc``.
    """
    if not isinstance(document, dict):
        raise SpecFileError("top level: expected an object")
    unknown = set(document) - _TOP_KEYS
    if unknown:
        raise SpecFileError(f"top level: unknown keys {sorted(unknown)}")
    raw_chambers = document.get("chambers")
    if not isinstance(raw_chambers, list) or not raw_chambers:
        raise SpecFileError("chambers: expected a nonempty list")

    chambers: list[ChamberSpec] = []
    for i, entry in enumerate(raw_chambers):
        where = f"chambers[{i}]"
        if not isinstance(entry, dict):
            raise SpecFileError(f"{where}: expected an object")
        unknown = set(entry) - _CHAMBER_KEYS
        if unknown:
            raise SpecFileError(f"{where}: unknown keys {sorted(unknown)}")
        missing = _CHAMBER_KEYS - set(entry)
        if missing:
            raise SpecFileError(f"{where}: missing keys {sorted(missing)}")
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise SpecFileError(f"{where}.name: expected a nonempty string")
        size = _require_int(entry["size"], f"{where}.size")
        quota = _require_int(entry["quota"], f"{where}.quota")
        try:
            chambers.append(ChamberSpec(name, size, quota))
        except ValueError as exc:
            raise SpecFileError(f"{where}: {exc}") from exc
    names = [c.name for c in chambers]
    if len(set(names)) != len(names):
        raise SpecFileError(f"chambers: chamber names must be unique, got {names}")

    if "executive" not in document:
        return MulticamSpec(tuple(chambers))

    executive = document["executive"]
    if not isinstance(executive, dict):
        raise SpecFileError("executive: expected an object")
    unknown = set(executive) - _EXEC_KEYS
    if unknown:
        raise SpecFileError(f"executive: unknown keys {sorted(unknown)}")
    missing = _EXEC_KEYS - set(executive)
    if missing:
        raise SpecFileError(f"executive: missing keys {sorted(missing)}")
    if len(chambers) != 2:
        raise SpecFileError(
            f"executive: requires exactly two chambers, got {len(chambers)}"
        )
    has_president = _require_bool(executive["president"], "executive.president")
    has_vp = _require_bool(executive["vice_president"], "executive.vice_president")
    override = executive["override"]
    if not isinstance(override, dict):
        raise SpecFileError("executive.override: expected an object")
    unknown = set(override) - set(names)
    if unknown:
        raise SpecFileError(f"executive.override: unknown chambers {sorted(unknown)}")
    missing = set(names) - set(override)
    if missing:
        raise SpecFileError(f"executive.override: missing chambers {sorted(missing)}")
    overrides = {
        name: _require_int(override[name], f"executive.override.{name}") for name in names
    }
    senate, house = chambers
    try:
        return UsSpec(
            senate_size=senate.size,
            house_size=house.size,
            senate_quota=senate.quota,
            house_quota=house.quota,
            senate_override=overrides[senate.name],
            house_override=overrides[house.name],
            has_president=has_president,
            has_vp=has_vp,
            senate_name=senate.name,
            house_name=house.name,
        )
    except ValueError as exc:
        raise SpecFileError(f"executive: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    document = {}
    for key, value in pairs:
        if key in document:
            raise SpecFileError(f"duplicate key {key!r}")
        document[key] = value
    return document


def load_spec_file(path: str | Path) -> Legislature:
    """Read, parse, and validate a spec file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"{path}: {exc}") from exc
    try:
        document = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecFileError(f"{path}: JSON nested too deeply") from exc
    except SpecFileError as exc:
        raise SpecFileError(f"{path}: {exc}") from exc
    return parse_spec(document)


# ``Fraction`` expands a decimal exponent into a power of ten, so one short
# line such as "1e-999999999" would take minutes and gigabytes before the
# normalisation check could reject it.  Exponents keep at most four digits.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")
_MAX_EXPONENT_DIGITS = 4


def load_weight_file(path: str | Path, n: int) -> WeightingVector:
    """Read a weighting vector: one exact rational per line, length n.

    A line is anything ``Fraction`` accepts (``3/16``, ``0.25``, ``5e-3``),
    with a decimal exponent of at most 9999 in magnitude.  The normalisation
    identity is checked exactly; no tolerance is applied.
    """
    try:
        lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"{path}: {exc}") from exc
    entries = [ln for ln in lines if ln]
    if len(entries) != n:
        raise SpecFileError(f"{path}: expected {n} weights, got {len(entries)}")
    weights = []
    for i, entry in enumerate(entries):
        exponent = _EXPONENT.search(entry)
        if exponent and len(exponent.group(1).replace("_", "").lstrip("0")) > _MAX_EXPONENT_DIGITS:
            raise SpecFileError(f"{path}: line {i + 1}: exponent out of range: {entry!r}")
        try:
            weights.append(Fraction(entry))
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFileError(f"{path}: line {i + 1}: not an exact rational: {entry!r}") from exc
    try:
        return WeightingVector(tuple(weights))
    except ValueError as exc:
        raise SpecFileError(f"{path}: {exc}") from exc
