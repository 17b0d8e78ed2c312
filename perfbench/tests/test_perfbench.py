"""Tests of the benchmark's own helpers and a smoke run of each workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# --- highest percentile with at least ten samples beyond it -----------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_samples_beyond_is_exact_at_the_boundary():
    assert stats.samples_beyond(100, 90.0) == 10
    assert stats.samples_beyond(99, 90.0) == 9
    assert stats.samples_beyond(10000, 99.9) == 10


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    values = list(rng.exponential(size=137))
    for q in (0, 12.5, 50, 90, 99, 100):
        assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q))


# --- self time from nested and overlapping child spans ----------------------

def _tracer(spans):
    tr = tracing.Tracer()
    tr.spans = [list(s) for s in spans]
    return tr


def test_self_time_subtracts_nested_children():
    tr = _tracer([("run", 0.0, 10.0, -1, 0),
                  ("solve", 1.0, 4.0, 0, 0),
                  ("polish", 2.0, 3.0, 1, 0),
                  ("ks", 6.0, 7.0, 0, 0)])
    assert tr.self_times() == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tr = _tracer([("run", 0.0, 10.0, -1, 0),
                  ("a", 1.0, 5.0, 0, 0),
                  ("b", 3.0, 6.0, 0, 0),     # overlaps a: union is [1, 6]
                  ("c", 2.0, 4.0, 0, 0),     # inside a and b
                  ("d", 9.0, 12.0, 0, 0)])   # runs past the parent's end
    assert tr.self_times()[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_wrappers_record_parents_tasks_and_counts():
    tr = tracing.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tr.span(inner, "inner", new_task=True)
    outer = tr.span(lambda x: wrapped_inner(x) * 2, "outer")
    counted = tr.counter(lambda: None, "calls")
    assert outer(1) == 4 and outer(2) == 6
    counted()
    assert [(s[0], s[3], s[4]) for s in tr.spans] == [
        ("outer", -1, -1), ("inner", 0, 0), ("outer", -1, 0), ("inner", 2, 1)]
    assert tr.counts["calls"] == 1
    groups = tr.by_name()
    assert groups["inner"]["calls"] == 2 and groups["outer"]["calls"] == 2


def test_overhead_is_spans_and_counts_at_the_measured_wrapper_cost():
    span, count = tracing.wrapper_cost(calls=2000, reps=3)
    assert 0 < span < 1e-3 and 0 <= count < 1e-3
    tr = _tracer([("run", 0.0, 1.0, -1, 0)] * 1000)
    tr.counts["inference.dual_evals"] = 5000
    tr.counts["finite.pr_iters"] = 10 ** 9     # a tally, not a wrapped call
    assert 0 < tracing.overhead_s(tr) < 1000 * 1e-3 + 5000 * 1e-3


def test_install_skips_missing_sites_and_restores_the_rest(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    from fisher_infer import experiments

    original = experiments.solve_sample_eg
    monkeypatch.delattr(experiments, "fit_rate")
    with tracing.Tracer() as tr:
        assert experiments.solve_sample_eg is not original
    assert tr.missing == {"fisher_infer.experiments.fit_rate"}
    assert experiments.solve_sample_eg is original


# --- pair-win rule ----------------------------------------------------------

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2]


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_iqr():
    faster = [p * 0.8 for p in PARENT]
    assert stats.verdict(PARENT, faster, "lower", 0.1) == "gain"
    # eight wins and two ties out of ten: ties count for neither side
    mixed = faster[:8] + PARENT[8:]
    assert stats.pair_wins(PARENT, mixed, "lower") == (8, 0, 2)
    assert stats.verdict(PARENT, mixed, "lower", 0.1) != "gain"
    # nine wins but a median gap inside the parent's own spread
    slight = [p - 0.01 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    assert stats.pair_wins(PARENT, slight, "lower") == (9, 1, 0)
    assert stats.verdict(PARENT, slight, "lower", 0.1) == "within bound"


def _write_records(directory, tasks_per_s, failed=0, correct=True):
    """One record per seed; failed and correct apply to the last seed only."""
    directory.mkdir()
    end_to_end = [m["name"] for m in _benchmark()["end_to_end"]]
    for seed, rate in enumerate(tasks_per_s, start=1):
        last = seed == len(tasks_per_s)
        metrics = {name: {"value": 1.0} for name in end_to_end}
        metrics["tasks_per_s"] = {"value": rate}
        record = {"workload": "clt_sym2", "seed": seed, "trace": 0, "smoke": False,
                  "started_at": float(seed), "csv_sha256": [[0, "x"]], "metrics": metrics,
                  "failed": failed if last else 0, "correct": correct or not last}
        (directory / f"clt_sym2-trace0-seed{seed}.json").write_text(json.dumps(record))


@pytest.mark.parametrize("failed, correct, code, verdict", [
    (0, True, 0, "gain"),
    (1, True, 1, "gain refused"),
    (0, False, 1, "gain refused"),
])
def test_gain_refused_when_the_change_fails_more_tasks_or_a_check(
        tmp_path, capsys, failed, correct, code, verdict):
    _write_records(tmp_path / "parent", PARENT)
    _write_records(tmp_path / "change", [p * 1.3 for p in PARENT], failed, correct)
    assert compare.report(str(tmp_path / "parent"), str(tmp_path / "change")) == code
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.strip().startswith("tasks_per_s"))
    assert row.endswith(verdict)


def test_direction_regression_and_unresolved():
    higher = [p * 1.3 for p in PARENT]
    assert stats.verdict(PARENT, higher, "higher", 0.1) == "gain"
    assert stats.verdict(PARENT, higher, "lower", 0.1) == "regressed"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert stats.spread(noisy) > 0.1
    assert stats.verdict(noisy, list(reversed(noisy)), "lower", 0.1) == "unresolved"


# --- smoke runs -------------------------------------------------------------

def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, workload, trace, out):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["clt_sym2", "qlin_sweep", "infer_n50"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace, tmp_path):
    done = _run(ROOT, workload, trace, tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    bench = _benchmark()
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in bench["per_layer"] + bench["end_to_end"]}
    assert all(result["metrics"][k]["unit"] == units[k] for k in names)
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(tmp_path, "clt_sym2", 0, tmp_path / "out")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
