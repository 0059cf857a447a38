"""Seeded CLI jobs for the benchmark's workloads.

Every workload is a fixed list of ``legipower`` command lines plus the spec
files they read.  The seed changes quotas, seat splits and executive flags,
but each parameter is drawn from a range chosen to hold the work per pass
about constant, so that two seeds measure the same amount of computation on
different inputs.  The CLI only ever sees the generated spec files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# One line per workload: why it exists.
WORKLOADS = {
    "big-analyze": "5 analyze/compare/crossover jobs on 2000-4000 seats: binomial rows, "
                   "template convolution and exact normalisation dominate",
    "oracle-enum": "4 oracle jobs at 20-21 players: one Python win-predicate call per "
                   "bitmask dominates; closed forms are tiny",
}

# Reference digests in reference.json are stored for this seed.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    """One CLI invocation: the arguments after ``python -m legipower.cli``."""

    id: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    specs: dict[str, dict]  # spec file name -> JSON document

    def argv(self, job: Job, spec_dir: Path) -> list[str]:
        """The job's arguments with spec file names resolved inside ``spec_dir``."""
        return [str(spec_dir / a) if a in self.specs else a for a in job.args]


def _majority(size: int) -> int:
    return size // 2 + 1


def _chambers(sizes: dict[str, int], quotas: dict[str, int] | None = None) -> list[dict]:
    quotas = quotas or {name: _majority(size) for name, size in sizes.items()}
    return [{"name": n, "size": s, "quota": quotas[n]} for n, s in sizes.items()]


def _big_analyze(rng: random.Random) -> Workload:
    # Seat counts move within +-5 % of the nominal sizes while each spec's seat
    # total stays fixed, so the size of the big-integer rows does not drift
    # with the seed.
    d_banzhaf, d_shapley = rng.randint(-100, 100), rng.randint(-100, 100)
    a, b = 1000 + rng.randint(-25, 25), 1000 + rng.randint(-25, 25)
    # An odd smaller and an even larger chamber under majority quotas are
    # incomparable, so compare also builds the distinguishing indices.
    small = 1501 + 2 * rng.randint(-37, 37)
    cross = rng.randint(1900, 2100)
    specs = {
        "bi-banzhaf.json": {"chambers": _chambers({"upper": 2000 + d_banzhaf,
                                                   "lower": 2000 - d_banzhaf})},
        "bi-shapley.json": {"chambers": _chambers({"upper": 2000 + d_shapley,
                                                   "lower": 2000 - d_shapley})},
        "tri.json": {"chambers": _chambers({"a": a, "b": b, "c": 3000 - a - b})},
        "pair.json": {"chambers": _chambers({"small": small, "large": 4001 - small})},
    }
    jobs = (
        Job("analyze-banzhaf", ("analyze", "bi-banzhaf.json", "--index", "banzhaf",
                                "--format", "json", "--no-meta")),
        Job("analyze-shapley", ("analyze", "bi-shapley.json", "--index", "shapley",
                                "--format", "json", "--no-meta")),
        Job("analyze-tri", ("analyze", "tri.json", "--format", "json", "--no-meta")),
        Job("compare", ("compare", "pair.json", "small", "large", "--no-meta")),
        Job("crossover", ("crossover", "--ms", str(cross), "--mr", str(cross + 1),
                          "--format", "csv", "--no-meta")),
    )
    return Workload("big-analyze", jobs, specs)


def _near_majority(rng: random.Random, size: int) -> int:
    return min(size, _majority(size) + rng.randint(0, 1))


def _us_spec(rng: random.Random, players: int, president: bool, vice: bool) -> dict:
    # Overrides are fixed at two thirds of each chamber: they decide how many
    # coalitions reach the executive branch of the win predicate, so a drawn
    # override would move the predicate's cost with the seed.
    senate = rng.randint(6, 9)
    house = players - president - vice - senate
    s_quota, h_quota = _near_majority(rng, senate), _near_majority(rng, house)
    return {
        "chambers": _chambers({"senate": senate, "house": house},
                              {"senate": s_quota, "house": h_quota}),
        "executive": {
            "president": president,
            "vice_president": vice,
            "override": {"senate": max(s_quota, -(-2 * senate // 3)),
                         "house": max(h_quota, -(-2 * house // 3))},
        },
    }


def _oracle_enum(rng: random.Random) -> Workload:
    # Player totals are fixed (20, 20, 21, 21), so every pass enumerates the
    # same number of coalitions; chamber splits and quotas vary.  The
    # executive flags are fixed per spec (president with and without a vice
    # president), because the win predicate's cost depends on them.
    a = rng.randint(7, 13)
    bi = {"x": a, "y": 20 - a}
    p, q = rng.randint(5, 8), rng.randint(5, 8)
    tri = {"x": p, "y": q, "z": 20 - p - q}
    specs = {
        "oracle-bi.json": {"chambers": _chambers(
            bi, {n: _near_majority(rng, s) for n, s in bi.items()})},
        "oracle-tri.json": {"chambers": _chambers(
            tri, {n: _near_majority(rng, s) for n, s in tri.items()})},
        "oracle-us.json": _us_spec(rng, 21, True, True),
        "oracle-us-novp.json": _us_spec(rng, 21, True, False),
    }
    jobs = tuple(
        Job(name.removesuffix(".json"), ("oracle", name, "--format", "json", "--no-meta"))
        for name in specs
    )
    return Workload("oracle-enum", jobs, specs)


_GENERATORS = {"big-analyze": _big_analyze, "oracle-enum": _oracle_enum}


def generate(name: str, seed: int) -> Workload:
    """The workload's jobs and spec documents for ``seed``; same seed, same inputs."""
    return _GENERATORS[name](random.Random(f"{name}:{seed}"))


# A known defect, run once per benchmark run outside the timed passes: with
# --approx, counts above about 1.8e308 go through float() and the CLI dies
# with OverflowError and exit 1.  A job that crashes fast would make its fix
# read as a wall-time regression, so it is reported by name and never timed.
PROBE = Workload(
    "probe",
    (Job("approx-overflow", ("analyze", "probe.json", "--approx", "--no-meta")),),
    {"probe.json": {"chambers": _chambers({"a": 600, "b": 700})}},
)
