"""Spans around legipower's cross-module calls, recorded from outside ``src/``.

``instrumented`` replaces, for the duration of a ``with`` block, every
function that one legipower module imports from another (``counting.binomial``,
``specfile.class_critical_vector``, ``cli.evaluate``, ...) with a wrapper that
records a span: name, start, end, parent span and job id.  A few functions
that are reached through their own module's globals or through a module
attribute (``oracle.from_spec``, ``counting.template_counts`` called by
``joint_quota_vector``, ...) are wrapped in their defining module as well.
Spans stay in memory; ``layer_metrics`` turns one pass's spans into the
per-layer metrics and ``write_spans`` writes them out at the end of a run.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import inspect
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator

LAYERS = ("cli", "specfile", "combinat", "counting", "chambers", "uslike",
          "semivalues", "oracle", "reporting")

# Reached through their defining module's globals or a module attribute, so
# wrapping the importing module's name alone would miss some calls.
ENTRY_POINTS = (
    ("oracle", "from_spec"),
    ("oracle", "critical_vector"),
    ("counting", "template_counts"),
    ("chambers", "member_critical_vector"),
    ("chambers", "compare_members"),
    ("uslike", "critical_templates"),
    ("uslike", "class_critical_vector"),
    ("semivalues", "point_mass"),
    ("semivalues", "weak_desirability"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Tracer.spans, -1 for a job's root span
    job: str


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    job: str = ""
    unaudited: list = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def keep_max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def audit(self) -> None:
        """Time one extra exhaustive axiom audit of each game built since the last call.

        Construction runs the same audit, so table time = build - audit.  Call
        it between jobs: the extra audit then adds to no span.
        """
        for game in self.unaudited:
            start = perf_counter_ns()
            game.validate()
            self.add("oracle.audit_ns", perf_counter_ns() - start)
        self.unaudited.clear()

    def _open(self, name: str) -> Span:
        stack = self._stack
        span = Span(name, 0, 0, stack[-1] if stack else -1, self.job)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


# Counters taken after a span has closed: they cost the wrapped call nothing
# and add a little to its parent's time and to trace.overhead_ratio.

def _binomial(tracer: Tracer, args: tuple, result: int) -> None:
    tracer.keep_max("combinat.binomial_max", result)


def _template(tracer: Tracer, args: tuple, result) -> None:
    entries = 1
    for pool in args[0].pools:
        width = pool.max_pick - pool.min_pick + 1
        tracer.add("counting.pool_entries", width)
        tracer.add("counting.convolution_products", entries * width)
        entries += width - 1
    tracer.keep_max("counting.max_count", max(result.to_dict().values(), default=0))


def _certify(tracer: Tracer, args: tuple, result: dict) -> None:
    tracer.add("combinat.verdicts", len(result))
    tracer.add("combinat.not_certified",
               sum(v.outcome.value == "not-certified" for v in result.values()))


def _templates(tracer: Tracer, args: tuple, result: tuple) -> None:
    tracer.add("uslike.rects", len(result))


def _from_spec(tracer: Tracer, args: tuple, game) -> None:
    tracer.add("oracle.table_entries", 1 << game.n)
    tracer.unaudited.append(game)


def _render(tracer: Tracer, args: tuple, result: str) -> None:
    tracer.add("reporting.bytes_out", len(result.encode()))


_AFTER = {
    "combinat.binomial": _binomial,
    "counting.template_counts": _template,
    "combinat.certify_comparison": _certify,
    "uslike.critical_templates": _templates,
    "oracle.from_spec": _from_spec,
    "reporting.render": _render,
}


def modules() -> dict[str, object]:
    """The layer modules that exist; a layer merged away later simply reads 0."""
    return {layer: importlib.import_module(f"legipower.{layer}") for layer in LAYERS
            if importlib.util.find_spec(f"legipower.{layer}") is not None}


def _span_name(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def patch_points(mods: dict[str, object]) -> list[tuple[object, str, Callable]]:
    """(module, attribute, function) for every call site the tracer wraps."""
    points = []
    for mod in mods.values():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ != mod.__name__
                    and obj.__module__.startswith("legipower.")):
                points.append((mod, name, obj))
    points += [(mods[layer], name, getattr(mods[layer], name)) for layer, name in ENTRY_POINTS
               if inspect.isfunction(getattr(mods.get(layer), name, None))]
    return points


@contextlib.contextmanager
def instrumented(tracer: Tracer, mods: dict[str, object]) -> Iterator[None]:
    points = patch_points(mods)
    try:
        for mod, name, fn in points:
            span = _span_name(fn)
            setattr(mod, name, tracer.wrap(span, fn, _AFTER.get(span)))
        yield
    finally:
        for mod, name, fn in points:
            setattr(mod, name, fn)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its child spans cover, in ns."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _outer_ns(spans: list[Span], names: set[str] | str) -> int:
    """Time inside spans of ``names`` (a set, or a layer prefix), nesting counted once."""
    match = (lambda n: n.startswith(names)) if isinstance(names, str) else names.__contains__
    inside = [False] * len(spans)
    total = 0
    for i, s in enumerate(spans):  # parents precede their children
        hit = match(s.name)
        outer = s.parent >= 0 and inside[s.parent]
        inside[i] = hit or outer
        if hit and not outer:
            total += s.end - s.start
    return total


# metric -> span names whose (outermost) time it sums
_TIMES = {
    "combinat.binomial_s": {"combinat.binomial"},
    "combinat.certify_s": {"combinat.certify_comparison"},
    "semivalues.build_s": {"semivalues.banzhaf", "semivalues.shapley_shubik",
                           "semivalues.point_mass"},
    "semivalues.evaluate_s": {"semivalues.evaluate"},
    "semivalues.dominance_s": {"semivalues.weak_desirability",
                               "semivalues.distinguishing_indices"},
    "chambers.member_vector_s": {"chambers.member_critical_vector"},
    "chambers.compare_s": {"chambers.crossover_sizes", "chambers.compare_members"},
    "uslike.critical_templates_s": {"uslike.critical_templates"},
    "uslike.class_vector_s": {"uslike.class_critical_vector"},
    "uslike.sign_table_s": {"uslike.vp_rep_sign_table"},
    "oracle.build_s": {"oracle.from_spec"},
    "oracle.sweep_s": {"oracle.critical_vector"},
    "specfile.load_s": {"specfile.load_spec_file"},
    "reporting.render_s": "reporting.",
}

UNITS = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{metric: "s" for metric in _TIMES},
    "combinat.binomial_calls": "count",
    "combinat.binomial_max_digits": "digits",
    "combinat.not_certified_ratio": "ratio",
    "semivalues.evaluate_calls": "count",
    "counting.template_counts_s": "s",
    "counting.templates": "count",
    "counting.pool_entries": "count",
    "counting.convolution_products": "count",
    "counting.max_count_digits": "digits",
    "uslike.rects": "count",
    "oracle.audit_s": "s",
    "oracle.table_s": "s",
    "oracle.table_entries": "count",
    "oracle.masks_per_s": "1/s",
    "reporting.bytes_out": "B",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    spans, counts = tracer.spans, tracer.counts
    own = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own)
                                     if s.name.startswith(layer + ".")) / 1e9
    for metric, names in _TIMES.items():
        out[metric] = _outer_ns(spans, names) / 1e9
    calls: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    out["combinat.binomial_calls"] = calls.get("combinat.binomial", 0)
    out["combinat.binomial_max_digits"] = len(str(counts.get("combinat.binomial_max", 0)))
    verdicts = counts.get("combinat.verdicts", 0)
    out["combinat.not_certified_ratio"] = (
        counts.get("combinat.not_certified", 0) / verdicts if verdicts else 0.0)
    out["semivalues.evaluate_calls"] = calls.get("semivalues.evaluate", 0)
    out["counting.template_counts_s"] = sum(
        t for s, t in zip(spans, own) if s.name == "counting.template_counts") / 1e9
    out["counting.templates"] = calls.get("counting.template_counts", 0)
    out["counting.pool_entries"] = counts.get("counting.pool_entries", 0)
    out["counting.convolution_products"] = counts.get("counting.convolution_products", 0)
    out["counting.max_count_digits"] = len(str(counts.get("counting.max_count", 0)))
    out["uslike.rects"] = counts.get("uslike.rects", 0)
    audit = counts.get("oracle.audit_ns", 0) / 1e9
    table = out["oracle.build_s"] - audit
    entries = counts.get("oracle.table_entries", 0)
    out["oracle.audit_s"] = audit
    out["oracle.table_s"] = table
    out["oracle.table_entries"] = entries
    out["oracle.masks_per_s"] = entries / table if table > 0 else 0.0
    out["reporting.bytes_out"] = counts.get("reporting.bytes_out", 0)
    roots = [(s, t) for s, t in zip(spans, own) if s.parent < 0]
    root_ns = sum(s.end - s.start for s, _ in roots)
    out["trace.coverage"] = 1 - sum(t for _, t in roots) / root_ns if root_ns else 0.0
    return out


def write_spans(spans: list[Span], path: Path) -> None:
    """Tab-separated spans: index, job, name, parent, start_ns, end_ns, self_ns."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write("index\tjob\tname\tparent\tstart_ns\tend_ns\tself_ns\n")
        for i, (s, own) in enumerate(zip(spans, self_times(spans))):
            f.write(f"{i}\t{s.job}\t{s.name}\t{s.parent}\t{s.start}\t{s.end}\t{own}\n")
