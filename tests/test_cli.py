import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import legipower
from legipower.cli import main
from legipower.semivalues import point_mass

BICAM = {
    "chambers": [
        {"name": "senate", "size": 3, "quota": 2},
        {"name": "house", "size": 5, "quota": 3},
    ],
}

MINI_US = {
    "chambers": [
        {"name": "senate", "size": 4, "quota": 3},
        {"name": "house", "size": 5, "quota": 3},
    ],
    "executive": {
        "president": True,
        "vice_president": True,
        "override": {"senate": 4, "house": 4},
    },
}

# 2^18 lattice cells, the most of any spec here: many chambers of one seat.
ONE_SEAT_CHAMBERS = {
    "chambers": [{"name": f"seat{i}", "size": 1, "quota": 1} for i in range(18)],
}

FULL_US = {
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


@pytest.fixture
def write_spec(tmp_path):
    def _write(document, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    return _write


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(out, section):
    doc = json.loads(out)
    for sec in doc["sections"]:
        if sec["id"] == section:
            return sec["rows"]
    raise AssertionError(f"no section {section!r}")


class TestAnalyze:
    def test_bicameral_ranking(self, capsys, write_spec):
        path = write_spec(BICAM)
        code, out, _ = _run(capsys, "analyze", path, "--format", "json", "--no-meta")
        assert code == 0
        assert _rows(out, "ranking") == [
            ["banzhaf", "1", "senate", "1/4"],
            ["banzhaf", "2", "house", "3/16"],
        ]

    def test_shapley_on_full_us(self, capsys, write_spec):
        path = write_spec(FULL_US)
        code, out, _ = _run(capsys, "analyze", path, "--index", "shapley",
                            "--format", "json", "--no-meta")
        assert code == 0
        order = [row[2] for row in _rows(out, "ranking")]
        assert order == ["president", "senator", "vice_president", "representative"]

    def test_zero_quota_diagnostic_names_the_chamber(self, capsys, write_spec):
        bad = {"chambers": [{"name": "senate", "size": 3, "quota": 0}]}
        code, _, err = _run(capsys, "analyze", write_spec(bad))
        assert code == 2
        assert "senate" in err

    def test_unknown_key_rejected(self, capsys, write_spec):
        bad = dict(BICAM)
        bad["extra"] = 1
        code, _, err = _run(capsys, "analyze", write_spec(bad))
        assert code == 2
        assert "extra" in err

    def test_weight_file_index(self, capsys, write_spec, tmp_path):
        spec = {"chambers": [{"name": "trio", "size": 3, "quota": 2}]}
        weights = tmp_path / "weights.txt"
        weights.write_text("1/4\n1/4\n1/4\n")
        code, out, _ = _run(capsys, "analyze", write_spec(spec), "--index",
                            f"file:{weights}", "--format", "json", "--no-meta")
        assert code == 0
        assert _rows(out, "index_values")[0][2] == "1/2"

    def test_unnormalised_weight_file_rejected(self, capsys, write_spec, tmp_path):
        spec = {"chambers": [{"name": "trio", "size": 3, "quota": 2}]}
        weights = tmp_path / "weights.txt"
        weights.write_text("1/4\n1/4\n1/2\n")
        code, _, err = _run(capsys, "analyze", write_spec(spec), "--index",
                            f"file:{weights}")
        assert code == 2
        assert "normalise" in err

    @pytest.mark.parametrize("selector, message", [
        ("owen", "error: unknown index selector 'owen'; use banzhaf, shapley"),
        ("pointmass:x", "error: pointmass size must be an integer, got 'x'"),
        ("file:{tmp}/missing.txt", "error: {tmp}/missing.txt: [Errno 2] No such file"),
    ])
    def test_index_selector_is_resolved_before_any_count(self, capsys, monkeypatch, write_spec,
                                                         tmp_path, selector, message):
        from legipower import counting

        def counted(spec, class_id):
            raise RuntimeError("a critical vector was built before the selector was resolved")

        monkeypatch.setattr(counting.SeatGame, "critical_vector", counted)
        code, out, err = _run(capsys, "analyze", write_spec(BICAM), "--index",
                              selector.format(tmp=tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(message.format(tmp=tmp_path))

    def test_table_output_elides_huge_counts(self, capsys, write_spec):
        path = write_spec(FULL_US)
        code, out, _ = _run(capsys, "analyze", path, "--no-meta")
        assert code == 0
        assert "digits]" in out
        code, out_full, _ = _run(capsys, "analyze", path, "--no-meta", "--full")
        assert "digits]" not in out_full

    def test_json_always_carries_full_values(self, capsys, write_spec):
        path = write_spec(FULL_US)
        code, out, _ = _run(capsys, "analyze", path, "--format", "json", "--no-meta")
        assert code == 0
        assert "digits]" not in out

    def test_approx_column(self, capsys, write_spec):
        code, out, _ = _run(capsys, "analyze", write_spec(BICAM), "--no-meta", "--approx")
        assert code == 0
        assert "approx" in out
        assert "e-01" in out or "e+0" in out

    def test_byte_identical_reruns(self, capsys, write_spec):
        path = write_spec(FULL_US)
        _, first, _ = _run(capsys, "analyze", path, "--format", "csv")
        _, second, _ = _run(capsys, "analyze", path, "--format", "csv")
        assert first == second


class TestCompare:
    def test_vp_vs_representative_incomparable(self, capsys, write_spec):
        path = write_spec(FULL_US)
        code, out, _ = _run(capsys, "compare", path, "vp", "representative",
                            "--format", "json", "--no-meta")
        assert code == 0
        rows = dict((r[0], r[1]) for r in _rows(out, "comparison"))
        assert rows["relation"] == "incomparable"
        assert rows["first_ahead_at"] == "270"
        assert rows["second_ahead_at"] == "357"
        favours = [r[0] for r in _rows(out, "distinguishing_indices")]
        assert favours == ["vice_president", "representative"]

    def test_senator_vs_representative(self, capsys, write_spec):
        path = write_spec(FULL_US)
        code, out, _ = _run(capsys, "compare", path, "senator", "representative",
                            "--format", "json", "--no-meta")
        assert code == 0
        rows = dict((r[0], r[1]) for r in _rows(out, "comparison"))
        assert rows["relation"] == "strictly-above"

    def test_small_adjacent_chambers(self, capsys, write_spec):
        spec = {"chambers": [
            {"name": "first", "size": 3, "quota": 2},
            {"name": "second", "size": 4, "quota": 3},
        ]}
        code, out, _ = _run(capsys, "compare", write_spec(spec), "first", "second",
                            "--format", "json", "--no-meta")
        assert code == 0
        rows = dict((r[0], r[1]) for r in _rows(out, "comparison"))
        assert rows["relation"] == "strictly-below"

    def test_chambers_named_like_aliases(self, capsys, write_spec):
        spec = {"chambers": [
            {"name": "p", "size": 3, "quota": 2},
            {"name": "rep", "size": 4, "quota": 3},
        ]}
        code, out, _ = _run(capsys, "compare", write_spec(spec), "p", "rep",
                            "--format", "json", "--no-meta")
        assert code == 0
        rows = dict((r[0], r[1]) for r in _rows(out, "comparison"))
        assert rows["relation"] == "strictly-below"

    def test_witness_weights_are_the_point_masses(self, capsys, write_spec):
        # An odd smaller and an even larger chamber at majority are incomparable.
        spec = {"chambers": [
            {"name": "small", "size": 7, "quota": 4},
            {"name": "large", "size": 12, "quota": 7},
        ]}
        code, out, _ = _run(capsys, "compare", write_spec(spec), "small", "large",
                            "--format", "json", "--no-meta")
        assert code == 0
        rows = _rows(out, "distinguishing_indices")
        assert [row[0] for row in rows] == ["small", "large"]
        for _, size, weight in rows:
            assert weight == str(point_mass(19, int(size)).weight(int(size)))

    def test_unknown_class(self, capsys, write_spec):
        code, _, err = _run(capsys, "compare", write_spec(BICAM), "senate", "nobody")
        assert code == 2
        assert "nobody" in err

    def test_chambers_named_alike_up_to_case(self, capsys, write_spec):
        path = write_spec({"chambers": [
            {"name": "A", "size": 3, "quota": 2},
            {"name": "a", "size": 4, "quota": 3},
        ]})
        code, out, _ = _run(capsys, "compare", path, "A", "a", "--format", "json", "--no-meta")
        assert code == 0
        rows = dict((r[0], r[1]) for r in _rows(out, "comparison"))
        assert (rows["first"], rows["second"]) == ("A", "a")
        assert rows["relation"] == "strictly-below"

    @pytest.mark.parametrize("spec,classes", [
        (MINI_US, ("vp", "representative")),
        ({"chambers": [{"name": name, "size": size, "quota": size // 2 + 1}
                       for name, size in (("a", 3), ("b", 4), ("c", 5))]}, ("c", "a")),
    ], ids=["us", "three-chambers"])
    def test_one_route_and_one_sign_pass(self, capsys, monkeypatch, write_spec, spec, classes):
        from legipower import chambers, cli, semivalues

        calls = []

        def counted(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)
            return wrapper

        monkeypatch.setattr(cli, "compare_members",
                            counted("compare_members", cli.compare_members))
        for module in (chambers, semivalues, cli):
            monkeypatch.setattr(module, "size_signs", counted("size_signs", module.size_signs))
        code, _, _ = _run(capsys, "compare", write_spec(spec), *classes)
        assert code == 0
        assert calls == ["compare_members", "size_signs"]


class TestOracle:
    def test_mini_us_matches(self, capsys, write_spec):
        code, out, _ = _run(capsys, "oracle", write_spec(MINI_US), "--no-meta")
        assert code == 0
        assert out.count("match") == 4
        assert "MISMATCH" not in out

    def test_three_chambers_match(self, capsys, write_spec):
        spec = {"chambers": [
            {"name": "a", "size": 3, "quota": 2},
            {"name": "b", "size": 4, "quota": 3},
            {"name": "c", "size": 5, "quota": 3},
        ]}
        code, out, _ = _run(capsys, "oracle", write_spec(spec), "--no-meta")
        assert code == 0
        assert out.count("match") == 3

    def test_mismatch_exits_1(self, capsys, write_spec, monkeypatch):
        from legipower import chambers
        from legipower.counting import CountVector

        monkeypatch.setattr(chambers.MulticamSpec, "critical_vector",
                            lambda spec, chamber: CountVector({5: 20, 6: 9, 7: 2}))
        code, out, _ = _run(capsys, "oracle", write_spec(BICAM), "--format", "json", "--no-meta")
        assert code == 1
        assert _rows(out, "oracle") == [
            ["senate", "MISMATCH", "size 6: closed 9, enumerated 10"],
        ]

    def test_cell_bound_checked_before_enumerating(self, capsys, write_spec, monkeypatch):
        from legipower import lattice

        def never(spec):
            raise AssertionError("lattice enumerated for a spec over the bound")

        monkeypatch.setattr(lattice, "critical_vectors", never)
        spec = {"chambers": [{"name": "hall", "size": 10_000_000, "quota": 5_000_001}]}
        code, out, err = _run(capsys, "oracle", write_spec(spec), "--no-meta")
        assert (code, out) == (3, "")
        assert err == "error: spec has 10000001 lattice cells, enumeration bound is 1048576\n"

    def test_one_large_chamber_at_the_bound_runs_in_bounded_memory(self, write_spec):
        # 2^20 cells on one axis: a whole binomial row of 2^20 - 1 seats
        # would need about 90 GB, so only the critical cell's binomial may be made.
        import resource

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        spec = {"chambers": [{"name": "hall", "size": (1 << 20) - 1, "quota": 3}]}
        src = str(Path(legipower.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, legipower.cli; sys.exit(legipower.cli.main(sys.argv[1:]))",
             "oracle", write_spec(spec), "--format", "json", "--no-meta"],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH"))))},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert _rows(proc.stdout, "oracle") == [["hall", "match", "1 sizes"]]

    def test_full_us_matches(self, capsys, write_spec):
        code, out, err = _run(capsys, "oracle", write_spec(FULL_US), "--format", "json",
                              "--no-meta")
        assert (code, err) == (0, "")
        assert [row[:2] for row in _rows(out, "oracle")] == [
            ["president", "match"], ["vice_president", "match"],
            ["senator", "match"], ["representative", "match"],
        ]

    @pytest.mark.parametrize("spec", [BICAM, ONE_SEAT_CHAMBERS], ids=["lattice", "many-chambers"])
    def test_rule_axiom_failure_is_an_internal_error(self, capsys, write_spec, monkeypatch, spec):
        from legipower import lattice

        def one_seat_wins(spec, counts):
            # Validated specs never give such a rule: one seat wins, two lose.
            seats = sum(counts)
            return (seats == 1) | (seats == spec.total_players)

        monkeypatch.setattr(lattice, "multicam_wins", one_seat_wins)
        code, out, err = _run(capsys, "oracle", write_spec(spec), "--no-meta")
        assert (code, out) == (4, "")
        assert err.startswith("error: internal: RuleAxiomError: not-monotone: ")

    def test_a_wrong_winning_set_is_a_mismatch(self, capsys, monkeypatch):
        from legipower.uslike import UsSpec

        # Without the VP's tie corner the closed forms count a smaller winning
        # set than the passage rule; the lattice, which never reads corners(),
        # catches it at the first class.
        corners = UsSpec.corners
        monkeypatch.setattr(UsSpec, "corners", lambda spec: corners(spec)[:2])
        spec = str(Path(__file__).parent / "golden" / "us_vp.json")
        code, out, err = _run(capsys, "oracle", spec, "--format", "json", "--no-meta")
        assert (code, err) == (1, "")
        assert _rows(out, "oracle") == [
            ["president", "MISMATCH", "size 7: closed 40, enumerated 100"],
        ]


class TestUsCommand:
    def test_default_report_sections(self, capsys):
        code, out, _ = _run(capsys, "us", "--format", "json", "--no-meta")
        assert code == 0
        verdicts = {(r[0], r[1]): r[2] for r in _rows(out, "verdicts")}
        assert verdicts[("president", "senator")] == "strictly-above"
        assert verdicts[("vice_president", "senator")] == "weakly-below"
        assert verdicts[("vice_president", "representative")] == "incomparable"
        runs = _rows(out, "vp_vs_representative")
        assert runs == [
            ["270", "356", "vice_president"],
            ["357", "379", "representative"],
            ["380", "487", "vice_president"],
        ]
        order = [r[2] for r in _rows(out, "ranking") if r[0] == "shapley"]
        assert order == ["president", "senator", "vice_president", "representative"]

    def test_quota_flags(self, capsys):
        code, out, _ = _run(capsys, "us", "--qs", "60", "--format", "json", "--no-meta")
        assert code == 0
        verdicts = {(r[0], r[1]): r[2] for r in _rows(out, "verdicts")}
        assert verdicts[("senator", "representative")] == "strictly-above"
        assert verdicts[("president", "senator")] == "strictly-above"

    def test_invalid_quota(self, capsys):
        code, _, err = _run(capsys, "us", "--qs", "101")
        assert code == 2
        assert "senate_quota" in err


class TestCrossover:
    def test_middle_case(self, capsys):
        code, out, _ = _run(capsys, "crossover", "--ms", "101", "--mr", "150",
                            "--format", "json", "--no-meta")
        assert code == 0
        rows = dict((r[0], r[1]) for r in _rows(out, "crossover"))
        assert rows["crossover_sizes"] == "127 128"
        assert rows["case"] == "small-odd-large-even-between"
        assert rows["small.quota"] == "51"
        assert rows["large.quota"] == "76"

    def test_no_crossover(self, capsys):
        code, out, _ = _run(capsys, "crossover", "--ms", "3", "--mr", "5",
                            "--format", "json", "--no-meta")
        assert code == 0
        rows = dict((r[0], r[1]) for r in _rows(out, "crossover"))
        assert rows["crossover_sizes"] == "none"

    def test_explicit_quotas(self, capsys):
        code, out, _ = _run(capsys, "crossover", "--ms", "3", "--mr", "4",
                            "--qs", "2", "--qr", "3", "--format", "json", "--no-meta")
        assert code == 0
        rows = dict((r[0], r[1]) for r in _rows(out, "crossover"))
        assert rows["crossover_sizes"] == "5 6"

    def test_bad_sizes(self, capsys):
        code, _, err = _run(capsys, "crossover", "--ms", "5", "--mr", "5")
        assert code == 2


class TestCsvShape:
    def test_fixed_header_and_width(self, capsys, write_spec):
        code, out, _ = _run(capsys, "analyze", write_spec(BICAM), "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "section,field1,field2,field3,value,approx"
        parsed = list(csv.reader(io.StringIO(out)))
        assert all(len(row) == 6 for row in parsed)

    def test_carriage_return_in_a_name_stays_in_its_cell(self, capsys, write_spec):
        spec = {"chambers": [
            {"name": "up\rper", "size": 3, "quota": 2},
            {"name": "lower", "size": 5, "quota": 3},
        ]}
        code, out, _ = _run(capsys, "analyze", write_spec(spec), "--format", "csv")
        assert code == 0
        parsed = list(csv.reader(io.StringIO(out, newline="")))
        assert all(len(row) == 6 for row in parsed)
        assert ["critical_vectors", "up\rper", "5", "", "20", ""] in parsed

    def test_vector_rows(self, capsys, write_spec):
        code, out, _ = _run(capsys, "analyze", write_spec(BICAM), "--format", "csv",
                            "--no-meta")
        lines = out.strip().splitlines()
        assert "critical_vectors,senate,5,,20," in lines


class TestStrictSpecs:
    def test_duplicate_json_key(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"chambers": [{"name": "senate", "size": 5, "quota": 3, "quota": 5}]}')
        code, out, err = _run(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert "duplicate key 'quota'" in err

    def test_duplicate_us_chamber_names(self, capsys, write_spec):
        spec = json.loads(json.dumps(MINI_US))
        for chamber in spec["chambers"]:
            chamber["name"] = "x"
        spec["executive"]["override"] = {"x": 4}
        code, out, err = _run(capsys, "compare", write_spec(spec), "x", "vp")
        assert (code, out) == (2, "")
        assert "chamber names must be unique" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = _run(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: JSON nested too deeply\n"


# What plain int() takes but the CLI does not: a sign, an underscore, a
# space, and an Arabic-Indic digit three.
LOOSE_INTEGERS = ["+3", "0_3", " 3", "\u0663"]


class TestStrictIntegers:
    @pytest.mark.parametrize("text", LOOSE_INTEGERS)
    def test_pointmass_size(self, capsys, write_spec, text):
        code, out, err = _run(capsys, "analyze", write_spec(BICAM), "--index", f"pointmass:{text}")
        assert (code, out) == (2, "")
        assert err == f"error: pointmass size must be an integer, got {text!r}\n"

    @pytest.mark.parametrize("text", LOOSE_INTEGERS)
    @pytest.mark.parametrize("argv", [
        ("crossover", "--ms", "3", "--mr", "5", "--qs", "2", "--qr", "3"),
        ("us", "--qs", "51", "--qr", "218", "--os", "67", "--or", "290"),
    ], ids=["crossover", "us"])
    def test_flags(self, capsys, argv, text):
        for i in range(2, len(argv), 2):
            with pytest.raises(SystemExit) as exc:
                main([*argv[:i], text, *argv[i + 1:]])
            err = capsys.readouterr().err
            assert exc.value.code == 2
            assert err.endswith(f"error: argument {argv[i - 1]}: invalid integer value: {text!r}\n")

    def test_negative_sizes_keep_the_range_message(self, capsys):
        code, out, err = _run(capsys, "crossover", "--ms", "-3", "--mr", "5")
        assert (code, out, err) == (2, "", "error: need 1 <= --ms < --mr, got -3, 5\n")

    def test_ascii_digits_with_leading_zeros_are_integers(self, capsys, write_spec):
        code, out, _ = _run(capsys, "analyze", write_spec(BICAM), "--index", "pointmass:03",
                            "--format", "json", "--no-meta")
        assert code == 0
        assert {row[1] for row in _rows(out, "index_values")} == {"pointmass:3"}


class TestLargeCounts:
    # C(15000, 7500) has 4515 digits, past Python's default 4300-digit limit
    # on int-to-string conversion.
    ONE_CHAMBER = {"chambers": [{"name": "hall", "size": 15001, "quota": 7501}]}

    def test_json_prints_every_digit(self, capsys, write_spec):
        code, out, err = _run(capsys, "analyze", write_spec(self.ONE_CHAMBER),
                              "--format", "json", "--no-meta")
        assert (code, err) == (0, "")
        [[_, size, count]] = _rows(out, "critical_vectors")
        assert size == "7501" and len(count) > 4300

    def test_full_table_prints_every_digit(self, capsys, write_spec):
        code, out, err = _run(capsys, "analyze", write_spec(self.ONE_CHAMBER),
                              "--format", "table", "--full", "--no-meta")
        assert (code, err) == (0, "")
        assert max(len(word) for word in out.split()) > 4300


class TestStartUp:
    # Prints whether numpy is loaded after the import and after the command.
    PROBE = (
        "import sys\n"
        "import legipower.cli\n"
        "print('numpy' in sys.modules)\n"
        "code = legipower.cli.main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )

    @pytest.mark.parametrize("command, spec", [
        ("analyze", BICAM),
        ("oracle", BICAM),
        ("oracle", ONE_SEAT_CHAMBERS),
    ], ids=["analyze", "oracle", "oracle-many-chambers"])
    def test_no_command_loads_numpy(self, write_spec, command, spec):
        src = str(Path(legipower.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, command, write_spec(spec),
             "--format", "json", "--no-meta"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("False", "0 False"), proc.stderr
        if command == "oracle":
            rows = _rows("\n".join(lines[1:-1]), "oracle")
            assert [row[1] for row in rows] == ["match"] * len(spec["chambers"])


class TestFailureExits:
    def test_approx_above_float_range(self, capsys, write_spec):
        spec = {"chambers": [
            {"name": "upper", "size": 600, "quota": 301},
            {"name": "lower", "size": 700, "quota": 351},
        ]}
        code, out, _ = _run(capsys, "analyze", write_spec(spec), "--approx",
                            "--format", "json", "--no-meta")
        assert code == 0
        approx = {(r[0], r[1]): r[3] for r in _rows(out, "critical_vectors")}
        assert approx[("upper", "652")] == "1.068181e+388"

    def test_approx_below_float_range(self, capsys, write_spec):
        spec = {"chambers": [{"name": "a", "size": 1100, "quota": 1100}]}
        code, out, _ = _run(capsys, "analyze", write_spec(spec), "--approx",
                            "--format", "json", "--no-meta")
        assert code == 0
        [[_, _, value, approx]] = _rows(out, "index_values")
        assert value == f"1/{2 ** 1099}"
        assert approx == "1.472430e-331"

    @staticmethod
    def _wrong_stream(monkeypatch):
        # Ties at every size: never the signs of two distinct chambers here.
        from legipower import chambers

        def wrong(m_a, q_a, m_b, q_b):
            return dict.fromkeys(range(q_a + q_b, max(q_a + m_b, q_b + m_a) + 1), 0)

        monkeypatch.setattr(chambers, "member_signs", wrong)

    def test_certificate_contradiction_is_an_internal_error(self, capsys, monkeypatch):
        self._wrong_stream(monkeypatch)
        code, out, err = _run(capsys, "crossover", "--ms", "101", "--mr", "150")
        assert (code, out) == (4, "")
        assert err.startswith("error: internal: ")
        assert err.count("\n") == 1

    def test_certificate_contradiction_in_compare_is_an_internal_error(
            self, capsys, monkeypatch, write_spec):
        self._wrong_stream(monkeypatch)
        path = write_spec({"chambers": [
            {"name": "small", "size": 101, "quota": 51},
            {"name": "large", "size": 150, "quota": 76},
        ]})
        code, out, err = _run(capsys, "compare", path, "small", "large")
        assert (code, out) == (4, "")
        assert err.startswith("error: internal: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["crossover", "compare"])
    def test_stream_contradiction_at_a_boundary_quota_is_an_internal_error(
            self, capsys, monkeypatch, write_spec, command):
        # Quota 1 in the smaller house: a boundary quota is checked too.
        self._wrong_stream(monkeypatch)
        if command == "crossover":
            argv = ("crossover", "--ms", "3", "--mr", "5", "--qs", "1")
        else:
            argv = ("compare", write_spec({"chambers": [
                {"name": "small", "size": 3, "quota": 1},
                {"name": "large", "size": 5, "quota": 5},
            ]}), "small", "large")
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith(
            "error: internal: CertificationMismatchError: sign stream gives 0 at size ")
        assert err.count("\n") == 1

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        from legipower import cli

        def broken(args):
            raise RuntimeError("table went missing")

        monkeypatch.setattr(cli, "cmd_crossover", broken)
        code, out, err = _run(capsys, "crossover", "--ms", "3", "--mr", "5")
        assert (code, out) == (4, "")
        assert err == "error: internal: RuntimeError: table went missing\n"

    @pytest.mark.parametrize("command, run", [
        ("analyze", "int"), ("analyze", "digits"), ("oracle", "int"),
    ])
    def test_inexact_walk_is_an_internal_error(self, capsys, monkeypatch, write_spec,
                                               command, run):
        # The walks' seed source one too large at C(5, 3): in both runs of
        # analyze (int counts, then their digits), and in oracle's int run.
        from legipower import counting

        exact = counting.binomial

        def off_by_one(n, k):
            return exact(n, k) + ((n, k) == (5, 3))

        if run == "int":
            monkeypatch.setattr(counting, "binomial", off_by_one)
        else:
            digits = counting.SeatGame.critical_digits

            def inexact_digits(spec, *args):
                with monkeypatch.context() as patch:
                    patch.setattr(counting, "binomial", off_by_one)
                    return list(digits(spec, *args))

            monkeypatch.setattr(counting.SeatGame, "critical_digits", inexact_digits)
        path = write_spec({"chambers": [{"name": name, "size": 5, "quota": 3}
                                        for name in ("a", "b", "c")]})
        code, out, err = _run(capsys, command, path)
        assert (code, out) == (4, "")
        assert err.startswith("error: internal: ArithmeticError: walk along row 5 ")
        assert err.count("\n") == 1

    def test_broken_shapley_recurrence_is_an_internal_error(self, capsys, monkeypatch,
                                                            write_spec):
        import math

        from legipower import semivalues

        # Half of lcm(1..8) = 840 is 420, which 8 does not divide.
        monkeypatch.setattr(semivalues, "_lcm_upto", lambda n: math.lcm(*range(1, n + 1)) // 2)
        code, out, err = _run(capsys, "analyze", write_spec(BICAM), "--index", "shapley")
        assert (code, out) == (4, "")
        assert err.startswith("error: internal: ArithmeticError: shapley_shubik(8): ")
        assert err.count("\n") == 1

    def test_interrupt_is_not_caught(self, monkeypatch):
        from legipower import cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_crossover", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["crossover", "--ms", "3", "--mr", "5"])


class TestStartup:
    """Every job pays the CLI's start-up, so importing it stays off the
    modules that only introspection needs.  ``-S`` runs both interpreters
    without ``site``, which may already load ``typing`` through a ``.pth``
    file and so hide an import of it."""

    @staticmethod
    def _python(*args):
        src = str(Path(legipower.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH"))))},
        )

    @pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
    def test_import_adds_no_dataclasses_inspect_or_typing(self, flags):
        def modules(statement):
            proc = self._python(*flags, "-c", f"{statement}; import sys; print(*sys.modules)")
            assert (proc.returncode, proc.stderr) == (0, "")
            return set(proc.stdout.split())

        added = modules("import legipower.cli") - modules("pass")
        assert "legipower.cli" in added
        assert not added & {"dataclasses", "inspect", "typing"}

    def test_version(self):
        proc = self._python("-m", "legipower.cli", "--version")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "legipower 1.0.0\n", "")
