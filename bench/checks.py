"""Output checks for benchmark jobs, and the tally that feeds ``fail_ratio``.

A job fails on an unexpected exit code, on an ``oracle`` row that is not
``match``, on a broken exact identity in a JSON report, or on stdout that
differs from the job's first run in this benchmark run or from the reference
digest stored for the default seed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from workloads import Job


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def _option(args: tuple[str, ...], flag: str, default: str) -> str:
    return args[args.index(flag) + 1] if flag in args else default


def _class_sizes(spec: dict[str, str]) -> dict[str, int]:
    sizes = {k.removesuffix(".size"): int(v) for k, v in spec.items() if k.endswith(".size")}
    if spec["kind"] != "us-style":
        return sizes
    senate, house = sizes.values()
    out = {"senator": senate, "representative": house}
    if spec["president"] == "true":
        out["president"] = 1
    if spec["vice_president"] == "true":
        out["vice_president"] = 1
    return out


def _identity_failure(sections: dict[str, dict]) -> str | None:
    """Banzhaf value = sum of counts / 2^(n-1); Shapley values are efficient."""
    spec = dict(sections["spec"]["rows"])
    n = int(spec["players"])
    sizes = _class_sizes(spec)
    if sum(sizes.values()) != n:
        return f"class sizes {sizes} do not add up to {n} players"
    totals: dict[str, int] = {}
    for cls, _, count in sections["critical_vectors"]["rows"]:
        totals[cls] = totals.get(cls, 0) + int(count)
    shapley: dict[str, Fraction] = {}
    for cls, index, value in sections["index_values"]["rows"]:
        if index == "banzhaf" and Fraction(value) != Fraction(totals.get(cls, 0), 2 ** (n - 1)):
            return f"banzhaf value of {cls} is not its critical count over 2^(n-1)"
        if index == "shapley":
            shapley[cls] = Fraction(value)
    if shapley:
        if set(shapley) != set(sizes):
            return f"shapley values cover {sorted(shapley)}, classes are {sorted(sizes)}"
        efficiency = sum(sizes[cls] * value for cls, value in shapley.items())
        if efficiency != 1:
            return f"shapley values sum to {efficiency}, not 1"
    return None


def output_failure(job: Job, code: int, stdout: bytes) -> str | None:
    """Why the job's exit code or stdout is wrong on its own, or None."""
    if code != 0:
        return f"exit code {code}"
    if _option(job.args, "--format", "table") != "json":
        return None
    try:
        sections = {s["id"]: s for s in json.loads(stdout)["sections"]}
        if job.args[0] == "oracle":
            bad = [row for row in sections["oracle"]["rows"] if row[1] != "match"]
            return f"oracle row {bad[0]}" if bad else None
        if "index_values" in sections:
            return _identity_failure(sections)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed report: {exc!r}"
    return None


class Tally:
    """Judges every job result of one benchmark run and counts the failures.

    The first correct stdout of each job becomes that job's expected digest,
    so a later pass, or an in-process or traced replay, must repeat it byte
    for byte.  With a reference (the digests stored for the default seed),
    every stdout must also match it.
    """

    def __init__(self, reference: dict[str, str] | None = None):
        self.reference = reference
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def judge(self, job: Job, code: int, stdout: bytes) -> bool:
        self.attempted += 1
        reason = output_failure(job, code, stdout)
        if reason is None:
            d = digest(stdout)
            if d != self.seen.setdefault(job.id, d):
                reason = "stdout differs from an earlier run of the same job"
            elif self.reference is not None and self.reference.get(job.id) != d:
                reason = "stdout differs from the reference digest"
        if reason is not None:
            self.failures.append((job.id, reason))
        return reason is None

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
