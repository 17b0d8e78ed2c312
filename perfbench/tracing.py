"""In-memory spans around the calls the benchmark makes into each module.

The package is not instrumented.  Instead the tracer replaces public
names in the module namespaces through which they are called (for
example ``fisher_infer.experiments.solve_sample_eg``) with wrappers that
record a span, and restores them afterwards.  This only sees calls made
in this process, so traced runs pin the experiment pool to one worker.

A span is [name, start, end, parent index, task id]; the parent is the
innermost span open when it started.  Self time is a span's duration
minus the part of its interval covered by its child spans.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

from stats import percentile

# (module, attribute, span name).  A public name is wrapped in every
# module namespace it is called through, so experiments.self_s keeps only
# the harness's own work.
SPAN_SITES = (
    ("experiments", "run_clt_experiment", "experiments.run"),
    ("experiments", "run_qlin_revenue", "experiments.run"),
    ("experiments", "sample_items", "markets.sample_items"),
    ("markets", "sample_items", "markets.sample_items"),
    ("experiments", "solve_sample_eg", "finite.solve"),
    ("experiments", "solve_sample_qeg", "finite.solve"),
    ("finite", "solve_sample_eg", "finite.solve"),
    ("finite", "verify_kkt", "finite.verify_kkt"),
    ("experiments", "solve_longrun_eg", "longrun.solve"),
    ("experiments", "solve_longrun_qeg", "longrun.solve"),
    ("longrun", "solve_longrun_eg", "longrun.solve"),
    ("experiments", "sigma2_nsw", "longrun.sigma2_nsw"),
    ("experiments", "estimate_sigma2_nsw", "inference.estimate_sigma2_nsw"),
    ("experiments", "ci_nsw", "inference.ci_nsw"),
    ("inference", "build_report", "inference.build_report"),
    ("inference", "estimate_omega2", "inference.estimate_omega2"),
    ("inference", "hessian_numdiff", "inference.hessian_numdiff"),
    ("inference", "ci_beta_u", "inference.ci_beta_u"),
    ("inference", "estimate_sigma2_nsw", "inference.estimate_sigma2_nsw"),
    ("inference", "ci_nsw", "inference.ci_nsw"),
    ("experiments", "ks_normal_test", "statkit.ks_normal_test"),
    ("experiments", "qq_points", "statkit.qq_points"),
    ("experiments", "fit_rate", "statkit.fit_rate"),
    ("experiments", "summarize_reps", "statkit.summarize_reps"),
)
# Called thousands of times per Hessian: counted, not spanned.
COUNT_SITES = (
    ("inference", "dual_value_sample", "inference.dual_evals"),
)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.task = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: set[str] = set()

    def span(self, fn, name: str, on_result=None, new_task: bool = False):
        """Wrap fn so each call records a span; on_result(tracer, result)
        records counts from what the call returned."""
        def traced(*args, **kwargs):
            if new_task:
                self.task += 1
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.task])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if on_result is not None:
                on_result(self, result)
            return result
        return traced

    def counter(self, fn, name: str):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_site(self, fn, name: str):
        return self.span(fn, name, on_result=ON_RESULT.get(name),
                         new_task=name == "markets.sample_items")

    def install(self):
        """Wrap every site.  A site the package no longer has is skipped
        and listed in self.missing, so a refactor shows in the report
        instead of stopping the run."""
        for sites, wrap in ((SPAN_SITES, self._span_site), (COUNT_SITES, self.counter)):
            for mod, attr, name in sites:
                module = importlib.import_module(f"fisher_infer.{mod}")
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.add(f"fisher_infer.{mod}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, wrap(original, name))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        children = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        return [end - start - _covered(children[i], start, end)
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, total self time, and p90 of durations."""
        selfs = self.self_times()
        groups = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
        for (name, start, end, _, _), own in zip(self.spans, selfs):
            g = groups[name]
            g["calls"] += 1
            g["self_s"] += own
            g["durations"].append(end - start)
        return {name: {"calls": g["calls"], "self_s": g["self_s"],
                       "s_p90": percentile(g["durations"], 90)}
                for name, g in groups.items()}


def wrapper_cost(calls: int = 20000, reps: int = 5) -> tuple[float, float]:
    """Seconds a span and a count add to one call: the median over reps of
    the per-call time of `calls` calls to a wrapped no-op, minus that of
    the bare no-op."""
    def noop():
        return None

    probe = Tracer()
    spanned, counted = probe.span(noop, "probe"), probe.counter(noop, "probe")

    def per_call(fn) -> float:
        probe.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    bare, span, count = (statistics.median(per_call(fn) for _ in range(reps))
                         for fn in (noop, spanned, counted))
    return max(span - bare, 0.0), max(count - bare, 0.0)


def overhead_s(tracer: Tracer) -> float:
    """What the wrappers added to the traced run: spans and counts recorded,
    each at the cost wrapper_cost measures."""
    span, count = wrapper_cost()
    counted = sum(tracer.counts[name] for _, _, name in COUNT_SITES)
    return len(tracer.spans) * span + counted * count


def _solve_counts(tracer: Tracer, eq):
    cert = eq.certificate
    tracer.counts["finite.solves"] += 1
    tracer.counts["finite.pr_iters"] += cert.iterations
    tracer.counts["finite.escalated"] += bool(cert.escalated)


ON_RESULT = {"finite.solve": _solve_counts}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics a traced slice yields, as name -> (value, unit)."""
    g = tracer.by_name()

    def self_s(name):
        return g[name]["self_s"] if name in g else 0.0

    def calls(name):
        return g[name]["calls"] if name in g else 0

    solves = tracer.counts["finite.solves"]
    return {
        "experiments.self_s": (self_s("experiments.run"), "s"),
        "markets.sample_items.self_s": (self_s("markets.sample_items"), "s"),
        "markets.sample_items.calls": (calls("markets.sample_items"), "count"),
        "finite.solve.self_s": (self_s("finite.solve"), "s"),
        "finite.solve.calls": (calls("finite.solve"), "count"),
        "finite.solve.s_p90": (g["finite.solve"]["s_p90"] if "finite.solve" in g else 0.0,
                               "s"),
        "finite.pr_iters": (int(tracer.counts["finite.pr_iters"]), "count"),
        "finite.escalated_frac": (tracer.counts["finite.escalated"] / solves
                                  if solves else 0.0, "fraction"),
        "finite.verify_kkt.self_s": (self_s("finite.verify_kkt"), "s"),
        "longrun.solve.self_s": (self_s("longrun.solve"), "s"),
        "inference.build_report.self_s": (self_s("inference.build_report"), "s"),
        "inference.hessian_numdiff.self_s": (self_s("inference.hessian_numdiff"), "s"),
        "inference.estimate_omega2.self_s": (self_s("inference.estimate_omega2"), "s"),
        "inference.dual_evals": (int(tracer.counts["inference.dual_evals"]), "count"),
        "statkit.ks_normal_test.self_s": (self_s("statkit.ks_normal_test"), "s"),
    }
