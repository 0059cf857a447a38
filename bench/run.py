"""Benchmark of the legipower command line, one workload per run.

    python3 bench/run.py --workload big-analyze|oracle-enum|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it runs the CLI from ``src/`` with
``PYTHONPATH=src`` (the package need not be installed).  With ``--trace 0``
it runs the workload's jobs as CLI subprocesses, one at a time, in passes
until ``--seconds`` is used up, checks every output, and reports the
end-to-end metrics, with job times in units of a fixed reference computation
timed after every job.  With ``--trace 1`` it replays the same jobs in-process
through ``legipower.cli.main``, alternating untraced and traced passes, and
reports per-layer metrics from spans around legipower's cross-module calls.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
from checks import Tally
from workloads import DEFAULT_SEED, PROBE, WORKLOADS, Job, Workload, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

# One BLAS/OpenMP thread for every job, subprocess or in-process.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PER_PASS = 5  # cold `--version` starts per pass; setup_s is their median
IMPORT_RUNS = 3  # `-X importtime` runs per traced run
MIN_PASSES = 2  # a job's stdout is compared across passes, so at least two
JOB_TIMEOUT_S = 60  # far above the longest job (about 3 s); a hung job is killed and fails

E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "job_p50_ref": "ref", "jobs_per_ref": "1/ref",
             "peak_rss_mb": "MB"}

# The reference computation, run as its own isolated interpreter after every
# job.  It uses no legipower code, so no change to the program moves it; it
# takes about 0.15 s of big-integer, Fraction and bit-count work, the same
# kinds of work the jobs do.  The host's speed drifts by a quarter
# and more over minutes, and job and reference times drift together, so job
# times are reported in units of the reference's median time ("ref").
REFERENCE_CODE = """\
from fractions import Fraction
from math import comb
total = sum(Fraction(comb(900, k), 2 ** 899) for k in range(0, 900, 3))
table = {}
for m in range(300_000):
    table[m & 1023] = (m & 0xFF).bit_count() >= 4
print(total.numerator % 1_000_003, sum(table.values()))
"""
REFERENCE_STDOUT = b"760372 652\n"


class BenchError(RuntimeError):
    """The benchmark cannot measure here (no source tree, or the CLI cannot start)."""


@dataclass
class Proc:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float


@dataclass
class Pass:
    job_s: list[float]
    ref_s: list[float]  # the reference computation, once after each job
    peak_rss_mb: float
    correct: int


def job_env() -> dict[str, str]:
    return {**os.environ, **THREAD_PINS, "PYTHONPATH": str(SRC)}


def run(argv: list[str], spool: Path) -> Proc:
    """Run one process to completion; wall time and peak RSS come from wait4."""
    with (spool / "stderr").open("w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=job_env(),
                                cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Proc(proc.returncode, out, err.read(), wall, usage.ru_maxrss / 1024)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "legipower.cli", *args]


def replay(cli, argv: list[str]) -> tuple[int, bytes]:
    """Run ``legipower.cli.main(argv)`` in this process; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught exception exits the real CLI with 1
            code = 1
    return code, out.getvalue().encode()


def median(values):
    """Median; of whole numbers, the lower median, so that counts stay whole."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def subprocess_pass(wl: Workload, spec_dir: Path, tally: Tally,
                    setup: list[float] | None = None) -> Pass:
    """Run every job once as a CLI process, timing each and the reference after it.

    With ``setup``, a cold `--version` start follows every few jobs (about
    SETUP_PER_PASS per pass) and its time is appended there, so set-up
    samples spread over the whole run.
    """
    procs, ref_s = [], []
    every = -(-len(wl.jobs) // SETUP_PER_PASS)
    for i, job in enumerate(wl.jobs):
        procs.append(run(cli_argv(wl.argv(job, spec_dir)), spec_dir))
        ref_s.append(reference_seconds(spec_dir))
        if setup is not None and i % every == 0:
            setup.append(start_seconds(spec_dir))
    correct = sum(tally.judge(job, p.code, p.stdout) for job, p in zip(wl.jobs, procs))
    return Pass([p.wall_s for p in procs], ref_s, max(p.rss_mb for p in procs), correct)


def inprocess_pass(wl: Workload, spec_dir: Path, tally: Tally, cli,
                   tracer: tracing.Tracer | None = None) -> float:
    """Replay every job in this process, traced when given a tracer; the pass's wall time."""
    results: list[tuple[Job, int, bytes]] = []
    start = time.perf_counter()
    for job in wl.jobs:
        argv = wl.argv(job, spec_dir)
        if tracer is None:
            results.append((job, *replay(cli, argv)))
            continue
        tracer.job = job.id
        with tracer.span("cli.main"):
            results.append((job, *replay(cli, argv)))
        tracer.audit()
    wall = time.perf_counter() - start
    if tracer is not None:
        wall -= tracer.counts.get("oracle.audit_ns", 0) / 1e9
    for job, code, out in results:
        tally.judge(job, code, out)
    return wall


def until(deadline: float, step, minimum: int) -> list:
    """Call ``step`` ``minimum`` times, then while another call fits before ``deadline``."""
    done = []
    lengths = []
    while len(done) < minimum or time.perf_counter() + median(lengths) <= deadline:
        start = time.perf_counter()
        done.append(step())
        lengths.append(time.perf_counter() - start)
    return done


def start_seconds(spool: Path) -> float:
    """Wall time of one cold `legipower --version`: interpreter start plus imports."""
    p = run(cli_argv(["--version"]), spool)
    if p.code != 0 or not p.stdout.startswith(b"legipower "):
        raise BenchError(f"`legipower --version` failed (exit {p.code}): "
                         f"{p.stderr.decode(errors='replace').strip()}")
    return p.wall_s


def reference_seconds(spool: Path) -> float:
    """Wall time of one checked run of REFERENCE_CODE."""
    p = run([sys.executable, "-I", "-c", REFERENCE_CODE], spool)
    if p.code != 0 or p.stdout != REFERENCE_STDOUT:
        raise BenchError(f"the reference computation failed (exit {p.code}): {p.stdout!r}")
    return p.wall_s


def import_seconds(spool: Path) -> tuple[float, float]:
    """Median cumulative import time of legipower.cli and of numpy, from -X importtime."""
    cli, numpy = [], []
    for _ in range(IMPORT_RUNS):
        p = run([sys.executable, "-X", "importtime", "-c", "import legipower.cli"], spool)
        if p.code != 0:
            raise BenchError(f"importing legipower.cli failed: {p.stderr[-500:]!r}")
        cumulative = {}
        for line in p.stderr.decode().splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
        cli.append(cumulative["legipower.cli"])
        numpy.append(cumulative.get("numpy", 0.0))
    return median(cli), median(numpy)


def probe(spool: Path) -> str:
    write_specs(PROBE, spool)
    job = PROBE.jobs[0]
    p = run(cli_argv(PROBE.argv(job, spool)), spool)
    lines = p.stderr.decode(errors="replace").strip().splitlines()
    tail = f", {lines[-1]}" if lines else ""
    return f"probe {job.id} (known defect, untimed): {' '.join(job.args)} -> exit {p.code}{tail}"


def write_specs(wl: Workload, spec_dir: Path) -> None:
    for name, document in wl.specs.items():
        (spec_dir / name).write_text(json.dumps(document, indent=1) + "\n")


def end_to_end(wl: Workload, seed: int, seconds: float, spec_dir: Path,
               tally: Tally) -> dict[str, float]:
    # The first start byte-compiles src/ and warms the page cache; installed
    # users do not pay that on every command, so it is not measured.
    start_seconds(spec_dir)
    setup: list[float] = []
    deadline = time.perf_counter() + seconds
    passes = until(deadline, lambda: subprocess_pass(wl, spec_dir, tally, setup), MIN_PASSES)
    # Each job's time is its median over the passes, so that a slow spell of
    # the host during one pass moves a job's sample, not the whole figure.
    job_s = [median(p.job_s[i] for p in passes) for i in range(len(wl.jobs))]
    wall_s = sum(job_s)
    ref_s = median(t for p in passes for t in p.ref_s)
    correct = median(p.correct for p in passes)
    samples = sorted(t for p in passes for t in p.job_s)
    tail = ""
    if len(samples) > 10:  # the highest percentile with ten samples beyond it
        tail = f", p{100 * (len(samples) - 10) / len(samples):.0f} {samples[-11]:.4f} s"
    print(f"  seconds: pass {wall_s:.4f} s, {correct / wall_s:.4f} correct jobs/s; "
          f"{len(samples)} jobs: p50 {median(samples):.4f} s{tail}; "
          f"reference {ref_s:.4f} s (median of {len(samples)})")
    metrics = {
        "setup_s": median(setup),
        "wall_ref": wall_s / ref_s,
        "job_p50_ref": median(job_s) / ref_s,
        "jobs_per_ref": correct / (wall_s / ref_s),
        "peak_rss_mb": median(p.peak_rss_mb for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(setup)} cold `legipower --version` starts between jobs",
        "wall_ref": f"one pass, as the sum of per-job medians over {len(passes)} passes",
        "job_p50_ref": f"median of the {len(job_s)} per-job medians",
        "jobs_per_ref": "correct jobs per pass (median over passes) / wall_ref",
        "peak_rss_mb": "largest job RSS in a pass, median over passes",
    }
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.4f} {E2E_UNITS[name]:<5} {notes[name]}")
    return metrics


def traced(wl: Workload, seed: int, seconds: float, spec_dir: Path,
           tally: Tally) -> dict[str, float]:
    os.environ.update(THREAD_PINS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = tracing.modules()
    cli = mods["cli"]
    start_seconds(spec_dir)  # byte-compile src/ before timing imports
    import_cli, import_numpy = import_seconds(spec_dir)
    deadline = time.perf_counter() + seconds
    # The untraced CLI's stdout is the reference every replay must repeat.
    subprocess_pass(wl, spec_dir, tally)

    def pair() -> tuple[float, float, tracing.Tracer]:
        plain = inprocess_pass(wl, spec_dir, tally, cli)
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer, mods):
            spanned = inprocess_pass(wl, spec_dir, tally, cli, tracer)
        return plain, spanned, tracer

    pairs = until(deadline, pair, 1)
    per_pass = [tracing.layer_metrics(tracer) for _, _, tracer in pairs]
    metrics = {"cli.import_s": import_cli, "cli.import_numpy_s": import_numpy}
    metrics.update({k: median(m[k] for m in per_pass) for k in per_pass[0]})
    metrics["trace.overhead_ratio"] = (median(spanned for _, spanned, _ in pairs)
                                       / median(plain for plain, _, _ in pairs))
    tracing.write_spans(pairs[-1][2].spans, OUT / f"spans-{wl.name}-seed{seed}.tsv")
    for name in sorted(metrics):
        print(f"  {name:<32} {metrics[name]:16.6g} {tracing.UNITS[name]}")
    print(f"  ({len(pairs)} untraced/traced in-process pass pairs; "
          f"spans of the last traced pass in {OUT.name}/)")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    wl = generate(name, seed)
    reference = None
    if seed == DEFAULT_SEED and not record and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(name)
    tally = Tally(reference)
    spec_dir = OUT / f"work-{os.getpid()}"
    spec_dir.mkdir(parents=True, exist_ok=True)
    try:
        write_specs(wl, spec_dir)
        print(f"== {name} (seed {seed}, {len(wl.jobs)} jobs per pass, "
              f"{'traced in-process' if trace else 'CLI subprocesses'}) ==")
        print(f"  why: {WORKLOADS[name]}")
        metrics = (traced if trace else end_to_end)(wl, seed, seconds, spec_dir, tally)
        print(f"  {'fail_ratio':<12} {tally.fail_ratio:12.4f} ratio "
              f"{tally.failed} of {tally.attempted} jobs failed")
        for job_id, reason in tally.failures[:10]:
            print(f"  FAILED {job_id}: {reason}")
        print(probe(spec_dir))
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)
    if record:
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        stored[name] = dict(sorted(tally.seen.items()))
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    units = tracing.UNITS if trace else E2E_UNITS
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store stdout digests of seed {DEFAULT_SEED} in reference.json")
    args = parser.parse_args(argv)
    if args.record_reference and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--record-reference needs --seed {DEFAULT_SEED} --trace 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (SRC / "legipower" / "cli.py").is_file():
            raise BenchError(f"no legipower source tree at {SRC}")
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                                      args.record_reference) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
