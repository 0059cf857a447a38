import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from legipower import ChamberSpec, MulticamSpec, PlayerClass, UsSpec, WeightingVector
from legipower.specfile import (
    SpecFileError,
    load_spec_file,
    load_weight_file,
    parse_spec,
    resolve_class,
)
from helpers import names, spec_documents

_scalars = (st.none() | st.booleans() | st.integers(-3, 8)
            | st.floats(allow_nan=False, allow_infinity=False) | names)
_keys = st.sampled_from(["chambers", "executive", "name", "size", "quota", "president",
                         "vice_president", "override", "a", "b"]) | st.text(max_size=4)
_json_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_keys, children, max_size=5),
    max_leaves=25,
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(doc=spec_documents())
    def test_document_round_trip(self, doc):
        spec = parse_spec(doc)
        assert spec.to_document() == doc
        assert parse_spec(spec.to_document()) == spec

    def test_kind_follows_the_executive_block(self):
        multicam = parse_spec({"chambers": [{"name": "a", "size": 3, "quota": 2}]})
        assert multicam == MulticamSpec((ChamberSpec("a", 3, 2),))
        us = parse_spec(UsSpec(4, 5, 3, 3, 4, 4, True, False, "upper", "lower").to_document())
        assert us == UsSpec(4, 5, 3, 3, 4, 4, True, False, "upper", "lower")


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(doc=_json_values)
    def test_only_specs_or_spec_errors(self, doc):
        try:
            spec = parse_spec(doc)
        except SpecFileError:
            return
        assert isinstance(spec, (MulticamSpec, UsSpec))

    @settings(max_examples=200, deadline=None)
    @given(doc=spec_documents(), path=st.sampled_from(["chambers", "executive"]),
           junk=_json_values)
    def test_damaged_documents(self, doc, path, junk):
        damaged = dict(doc, **{path: junk})
        try:
            parse_spec(damaged)
        except SpecFileError:
            pass


# Lines that Fraction may or may not accept: rationals, decimals, exponents of
# every magnitude, signs, underscores, spaces and junk.
_weight_lines = st.one_of(
    st.from_regex(r"\A ?[+-]?[0-9_]{1,6}( ?/ ?[0-9_]{1,6})? ?\Z"),
    st.from_regex(r"\A[+-]?[0-9]{0,4}\.?[0-9]{0,4}([eE][+-]?[0-9_]{1,14})?\Z"),
    st.sampled_from(["1/8", "1/4", "0", "1", "nan", "inf", "1/0", "0/0", "1e", "e5", "/", ""]),
    st.text(max_size=12),
)


@st.composite
def _normalised_weights(draw):
    """Weights that normalise at a random length, with their file lines for a
    scale factor, each line a reduced or an unreduced fraction."""
    n = draw(st.integers(1, 8))
    raw = draw(st.lists(
        st.builds(Fraction, st.integers(0, 5), st.sampled_from([1, 2, 3, 5, 8, 10])),
        min_size=n, max_size=n,
    ).filter(any))
    total = sum(r * math.comb(n - 1, k) for k, r in enumerate(raw))
    weights = [r / total for r in raw]
    factors = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))

    def text(scale):
        return [f" {f * x.numerator}/{f * x.denominator} "
                for x, f in zip((w * scale for w in weights), factors)]
    return weights, text


def _load_weights(data: bytes, n: int):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.txt"
        path.write_bytes(data)
        return load_weight_file(path, n)


class TestWeightFileFuzz:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_weight_lines, max_size=6), n=st.integers(0, 6))
    def test_lines_give_a_vector_or_a_spec_error(self, lines, n):
        try:
            w = _load_weights("\n".join(lines).encode(), n)
        except SpecFileError:
            return
        assert isinstance(w, WeightingVector) and w.n == n

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=40), n=st.integers(0, 4))
    def test_bytes_give_a_vector_or_a_spec_error(self, data, n):
        try:
            w = _load_weights(data, n)
        except SpecFileError:
            return
        assert isinstance(w, WeightingVector) and w.n == n

    @settings(max_examples=150, deadline=None)
    @given(case=_normalised_weights(),
           scale=st.fractions(0, 3, max_denominator=7).filter(lambda s: s != 1))
    def test_written_weights_load_back_and_scaled_ones_are_rejected(self, case, scale):
        weights, text = case
        n = len(weights)
        w = _load_weights("".join(f"{line}\n" for line in text(1)).encode(), n)
        assert w.weights == tuple(weights)
        assert w == WeightingVector.from_fractions(weights)
        # The sum of a refused file is printed as a reduced fraction.
        with pytest.raises(SpecFileError) as info:
            _load_weights("".join(f"{line}\n" for line in text(scale)).encode(), n)
        assert str(info.value).endswith(f": weights do not normalise: sum is {scale}, expected 1")

    def test_valid_file_loads(self):
        w = _load_weights(b"1/4\n0.25\n\n 25e-2 \n", 3)
        assert w.weights == (Fraction(1, 4),) * 3

    @pytest.mark.parametrize("line", ["1e-999999999999", "5E+1_000_000_000", "1.0e99999"])
    def test_huge_exponent_rejected_before_expansion(self, line):
        with pytest.raises(SpecFileError, match="exponent out of range"):
            _load_weights(f"{line}\n0\n".encode(), 2)

    def test_invalid_utf8_is_a_spec_error(self):
        with pytest.raises(SpecFileError):
            _load_weights(b"\xff\xfe1/2\n1/2\n", 2)


class TestStrictness:
    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"chambers": [{"name": "a", "size": 5, "quota": 3, "quota": 5}]}')
        with pytest.raises(SpecFileError, match="duplicate key 'quota'"):
            load_spec_file(path)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b'\xff{"chambers": []}')
        with pytest.raises(SpecFileError, match="spec.json: "):
            load_spec_file(path)

    def test_duplicate_us_chamber_names_rejected(self):
        doc = UsSpec(4, 5, 3, 3, 4, 4, True, True, "x", "y").to_document()
        doc["chambers"][1]["name"] = "x"
        doc["executive"]["override"] = {"x": 4}
        with pytest.raises(SpecFileError, match="unique"):
            parse_spec(doc)

    def test_us_spec_needs_distinct_chamber_names(self):
        with pytest.raises(ValueError, match="unique"):
            UsSpec(senate_name="x", house_name="x")


class TestResolveClass:
    US = UsSpec(4, 5, 3, 3, 4, 4, True, True, "upper", "lower")

    @pytest.mark.parametrize("name, class_id", [
        ("vp", "vice_president"),
        ("V", "vice_president"),
        ("Vice-President", "vice_president"),
        ("p", "president"),
        ("sen", "senator"),
        ("rep", "representative"),
        ("upper", "senator"),
        ("LOWER", "representative"),
        ("Senator", "senator"),
    ])
    def test_us_names(self, name, class_id):
        assert resolve_class(self.US, name) == class_id

    def test_multicam_chamber_names(self):
        spec = MulticamSpec((ChamberSpec("Senate", 3, 2), ChamberSpec("house", 5, 3)))
        assert resolve_class(spec, "senate") == "Senate"
        assert resolve_class(spec, "HOUSE") == "house"

    @pytest.mark.parametrize("alias", ["p", "v", "vp", "vice-president", "sen", "rep"])
    def test_multicam_chamber_named_like_an_alias(self, alias):
        spec = MulticamSpec((ChamberSpec(alias, 3, 2), ChamberSpec("other", 4, 3)))
        assert resolve_class(spec, alias) == alias
        assert resolve_class(spec, alias.upper()) == alias

    def test_us_chambers_named_like_the_other_aliases(self):
        spec = UsSpec(4, 5, 3, 3, 4, 4, True, True, "rep", "sen")
        assert resolve_class(spec, "rep") == "senator"
        assert resolve_class(spec, "sen") == "representative"
        assert resolve_class(spec, "p") == "president"
        assert resolve_class(spec, "vp") == "vice_president"

    def test_us_chamber_named_like_an_executive_alias(self):
        spec = UsSpec(4, 5, 3, 3, 4, 4, True, True, "vp", "p")
        assert resolve_class(spec, "vp") == "senator"
        assert resolve_class(spec, "p") == "representative"
        assert resolve_class(spec, "v") == "vice_president"
        assert resolve_class(spec, "president") == "president"

    def test_exact_case_wins_over_folded_case(self):
        spec = MulticamSpec((ChamberSpec("A", 3, 2), ChamberSpec("a", 4, 3)))
        assert resolve_class(spec, "A") == "A"
        assert resolve_class(spec, "a") == "a"

    def test_exact_chamber_name_wins_over_folded_class_id(self):
        spec = UsSpec(4, 5, 3, 3, 4, 4, True, True, "President", "lower")
        assert resolve_class(spec, "President") == "senator"
        assert resolve_class(spec, "president") == "president"

    @pytest.mark.parametrize("spec, name, matches", [
        (MulticamSpec((ChamberSpec("Ab", 3, 2), ChamberSpec("aB", 4, 3))), "ab", "Ab, aB"),
        (UsSpec(4, 5, 3, 3, 4, 4, True, True, "President", "lower"), "PRESIDENT",
         "president, senator"),
    ], ids=["two-chambers", "class-id-and-chamber"])
    def test_several_classes_up_to_case_are_refused(self, spec, name, matches):
        with pytest.raises(SpecFileError, match=f"^player class {name!r} is ambiguous "
                                                f"up to case; matches: {matches}$"):
            resolve_class(spec, name)

    def test_one_class_matched_twice_up_to_case(self):
        spec = UsSpec(4, 5, 3, 3, 4, 4, True, True, "upper", "Representative")
        assert resolve_class(spec, "REPRESENTATIVE") == "representative"
        assert resolve_class(spec, "rep") == "representative"

    def test_unknown_class_lists_the_known_ones(self):
        spec = UsSpec(3, 4, 2, 3, 3, 4, True, False)
        with pytest.raises(SpecFileError,
                           match="unknown player class 'vp'; known: president, senator, "
                                 "representative"):
            resolve_class(spec, "vp")


class TestSpecInterface:
    def test_us_class_vectors(self):
        spec = UsSpec(4, 5, 3, 3, 4, 4, True, True)
        assert spec.class_ids() == tuple(cls.value for cls in PlayerClass)
        assert spec.total_players == 11
        assert all(spec.critical_vector(c) for c in spec.class_ids())

    def test_multicam_class_vectors(self):
        spec = MulticamSpec((ChamberSpec("a", 3, 2), ChamberSpec("b", 5, 3)))
        assert spec.class_ids() == ("a", "b")
        assert spec.critical_vector("a") == {5: 20, 6: 10, 7: 2}

    def test_document_is_the_spec_file_shape(self):
        assert UsSpec().to_document() == {
            "chambers": [
                {"name": "senate", "size": 100, "quota": 51},
                {"name": "house", "size": 435, "quota": 218},
            ],
            "executive": {
                "president": True,
                "vice_president": True,
                "override": {"senate": 67, "house": 290},
            },
        }
