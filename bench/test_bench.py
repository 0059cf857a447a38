"""Self-tests of the benchmark harness; run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import tracing
from checks import Tally, digest, output_failure
from workloads import WORKLOADS, Job, Workload, generate

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

SMALL = Workload(
    "small",
    (
        Job("us", ("us", "--qs", "60", "--format", "json", "--no-meta")),
        Job("analyze", ("analyze", "pair.json", "--index", "shapley", "--format", "json",
                        "--no-meta")),
        Job("compare", ("compare", "pair.json", "small", "large", "--no-meta")),
        Job("crossover", ("crossover", "--ms", "20", "--mr", "21", "--format", "csv",
                          "--no-meta")),
        Job("oracle", ("oracle", "us.json", "--format", "json", "--no-meta")),
    ),
    {
        "pair.json": {"chambers": [{"name": "small", "size": 31, "quota": 16},
                                   {"name": "large", "size": 50, "quota": 26}]},
        "us.json": {
            "chambers": [{"name": "senate", "size": 4, "quota": 3},
                         {"name": "house", "size": 6, "quota": 4}],
            "executive": {"president": True, "vice_president": True,
                          "override": {"senate": 3, "house": 5}},
        },
    },
)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("specs")
    run.write_specs(SMALL, path)
    return path


@pytest.fixture(scope="module")
def mods() -> dict:
    return tracing.modules()


def _traced_pass(mods, spec_dir) -> tuple[list[tuple[int, bytes]], tracing.Tracer]:
    tracer = tracing.Tracer()
    results = []
    with tracing.instrumented(tracer, mods):
        for job in SMALL.jobs:
            tracer.job = job.id
            with tracer.span("cli.main"):
                results.append(run.replay(mods["cli"], SMALL.argv(job, spec_dir)))
            tracer.audit()
    return results, tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert generate(name, 7) == generate(name, 7)
    assert generate(name, 7) != generate(name, 8)


def test_traced_stdout_is_byte_identical_to_untraced(mods, spec_dir):
    before = {(mod, name): fn for mod, name, fn in tracing.patch_points(mods)}
    traced, tracer = _traced_pass(mods, spec_dir)
    for job, (code, out) in zip(SMALL.jobs, traced):
        argv = SMALL.argv(job, spec_dir)
        assert (code, out) == run.replay(mods["cli"], argv), job.id
        assert code == 0 and output_failure(job, code, out) is None, job.id
        cli = run.run(run.cli_argv(argv), spec_dir)
        assert (cli.code, cli.stdout) == (code, out), job.id
    assert {s.name.split(".")[0] for s in tracer.spans} == set(tracing.LAYERS)
    assert {(mod, name): getattr(mod, name) for mod, name in before} == before


def test_tampered_stdout_and_wrong_exit_code_count_as_failures(mods, spec_dir):
    job = SMALL.jobs[0]
    code, out = run.replay(mods["cli"], SMALL.argv(job, spec_dir))
    doc = json.loads(out)
    counts = next(s for s in doc["sections"] if s["id"] == "critical_vectors")
    counts["rows"][0][2] = str(int(counts["rows"][0][2]) + 1)
    tampered = (json.dumps(doc, indent=2) + "\n").encode()

    fresh = Tally()
    assert not fresh.judge(job, code, tampered)
    assert "banzhaf" in fresh.failures[0][1]

    doc = json.loads(out)
    values = next(s for s in doc["sections"] if s["id"] == "index_values")
    row = next(r for r in values["rows"] if r[1] == "shapley")
    row[2] = str(Fraction(row[2]) * 2)
    assert "shapley" in output_failure(job, code, (json.dumps(doc, indent=2) + "\n").encode())

    tally = Tally({job.id: digest(out)})
    assert tally.judge(job, code, out)
    assert not tally.judge(job, code, out.replace(b"1", b"2", 1))
    assert not tally.judge(job, 1, out)
    assert (tally.failed, tally.attempted) == (2, 3)
    assert tally.fail_ratio == pytest.approx(2 / 3)


def test_self_times_are_nonnegative_and_within_their_span(mods, spec_dir):
    _, tracer = _traced_pass(mods, spec_dir)
    assert tracer.spans
    for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
        assert 0 <= own <= span.end - span.start, span.name
    metrics = tracing.layer_metrics(tracer)
    assert all(value >= 0 for value in metrics.values())
    assert metrics["oracle.table_entries"] == 1 << 12


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
