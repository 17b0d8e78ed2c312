"""Benchmark of fisher-infer, driven through the package's public API.

    python3 perfbench/run.py --workload clt_sym2 --seed 1 --seconds 40 --trace 0

Run from the root of a source tree: the package is imported from ./src.
One untimed task warms up, then batches run until --seconds of timed
work is done and at least the workload's minimum task count has run.
Set-up (process start, import, inputs, and the long-run solve on
infer_n50) is timed in SETUP_REPS fresh processes spread between the
batches.  Every output is checked; the human-readable report goes to
stdout, followed by one JSON line with the metrics.  The exit code is 0
only when every check passed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
reports the per-layer metrics: half the time runs untraced with the
normal pool (for experiments.busy_frac), then a fixed slice of the
workload runs twice in this process with the pool pinned to one worker:
untraced, then traced (tracing.py, which gives self times, counts and
the tracing overhead).  Both passes must write the same CSV bytes.

Each run writes a record to .perfbench/results (or --out), which
compare.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("clt_sym2", "qlin_sweep", "infer_n50")
# Set-up is timed this many times per run; the median is reported.
SETUP_REPS = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The metrics BENCHMARK.json gates; a --trace 0 run reports these.
END_TO_END = ("setup_s", "tasks_per_s", "task_s_p50", "task_s_p90", "certified_frac",
              "peak_rss_mb")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads():
    """One BLAS thread per process and a pool of nproc workers, so the
    processes the benchmark starts never run more threads than cores."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["FISHER_INFER_THREADS"] = str(nproc())


def import_workloads():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fisher_infer", "__init__.py")):
        raise SystemExit(f"perfbench: no fisher_infer source under {src}")
    sys.path.insert(0, src)
    import workloads
    return workloads


def setup_probe(args) -> int:
    """Child side of a set-up measurement: import, build the inputs, and
    print the monotonic clock when the first task could start."""
    pin_threads()
    workloads = import_workloads()
    workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    print(repr(time.monotonic()))
    return 0


class SetupTimer:
    """Times set-up in fresh processes, spread over the run: a probe is due
    each time another 1/reps of the run's seconds has passed, so the median
    sees the same machine conditions as the timed tasks."""

    def __init__(self, args, reps: int):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            self.cmd.append("--smoke")
        self.reps, self.seconds = reps, args.seconds
        self.times: list[float] = []

    def probe(self):
        start = time.monotonic()
        out = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120,
                             check=True, cwd=ROOT, env=os.environ.copy())
        self.times.append(float(out.stdout.split()[-1]) - start)

    def catch_up(self, elapsed: float):
        while len(self.times) < self.reps and len(self.times) * self.seconds <= (
                elapsed * self.reps):
            self.probe()

    def finish(self):
        while len(self.times) < self.reps:
            self.probe()


def timed_batches(wl, seconds: float, min_tasks: int, out_dir: str, between=None):
    """Run batches until `seconds` of timed work (stopping at the batch whose
    midpoint passes it) and at least min_tasks tasks are done.  between(elapsed)
    runs after each batch, outside the timed work."""
    batches, elapsed, tasks = [], 0.0, 0
    while not batches or tasks < min_tasks or elapsed - 0.5 * batches[-1].wall < seconds:
        index = len(batches)
        batch = wl.run_batch(index, os.path.join(out_dir, f"batch{index}"))
        batches.append(batch)
        elapsed += batch.wall
        tasks += len(batch.task_walls)
        if between is not None:
            between(elapsed)
    return batches


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any process it started (pool workers
    and set-up probes), whichever is larger."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(setup_times, batches) -> dict:
    """name -> (value, unit, sample count).  tasks_per_s is the median of
    the batches' throughputs, so one disturbed batch does not move it."""
    walls = [w for b in batches for w in b.task_walls]
    n = len(walls)
    certified = sum(b.certified for b in batches)
    out = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "tasks_per_s": (statistics.median(len(b.task_walls) / b.wall for b in batches),
                        "1/s", n),
        "task_s_p50": (stats.percentile(walls, 50), "s", n),
        "task_s_p90": (stats.percentile(walls, 90), "s", n),
        "certified_frac": (certified / n, "fraction", n),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        # reported, not gated: it is 0 on a healthy run, and "failed" counts it
        "uncertified_frac": ((n - certified) / n, "fraction", n),
    }
    tail = stats.tail_percentile(n)
    if tail is not None and tail > 90:
        out[f"task_s_p{tail:g}"] = (stats.percentile(walls, tail), "s", n)
    return out


def env_info(args, pool: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "pool": pool,
            "seed": args.seed, "git_commit": git_commit(), "src_sha256": src_digest()}


def git_commit() -> str | None:
    """HEAD of this tree's own repository, or None outside one."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return None
    try:
        out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured
    when the tree is not a git checkout."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "fisher_infer")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def measure_untraced(args, wl, work: str, setup: SetupTimer):
    """Timed batches with the normal pool; set-up probes run between them."""
    setup.probe()
    batches = timed_batches(wl, args.seconds, wl.sizes.min_tasks, work,
                            between=setup.catch_up)
    setup.finish()
    metrics = {k: {"value": v, "unit": u, "n": n}
               for k, (v, u, n) in end_to_end(setup.times, batches).items()}
    return batches, wl.checks(batches), metrics


def measure_traced(args, wl, work: str, tracer):
    """Untraced batches with the normal pool for busy_frac, then the slice
    in this process, once plain and once traced."""
    from workloads import Check

    batches = timed_batches(wl, args.seconds / 2, 1, work)
    plain = wl.slice_batch(os.path.join(work, "plain"))
    with tracer:
        traced = wl.slice_batch(os.path.join(work, "traced"))
    checked = batches + [plain, traced]
    checks = wl.checks(checked) + [Check(
        "tracing leaves outputs unchanged", plain.csv_sha256 == traced.csv_sha256,
        "traced slice CSV matches the untraced slice")]

    layer = tracing.layer_metrics(tracer)
    layer["experiments.busy_frac"] = (
        sum(w for b in batches for w in b.task_walls)
        / (wl.pool * sum(b.wall for b in batches)), "fraction")
    layer["trace.overhead_s"] = (tracing.overhead_s(tracer), "s")
    n = len(traced.task_walls)
    metrics = {k: {"value": v, "unit": u, "n": n} for k, (v, u) in layer.items()}
    metrics["experiments.busy_frac"]["n"] = sum(len(b.task_walls) for b in batches)
    return checked, checks, metrics


def run(args) -> int:
    started = time.time()
    pin_threads()
    workloads = import_workloads()
    setup = SetupTimer(args, 1 if args.smoke else SETUP_REPS)
    cls = workloads.WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench", "work", f"{args.workload}-{os.getpid()}")
    tracer = tracing.Tracer()
    try:
        if args.trace:
            with tracer:  # traces the long-run solve that infer_n50 does in set-up
                wl = cls(args.seed, smoke=args.smoke)
        else:
            wl = cls(args.seed, smoke=args.smoke)
        wl.warmup(os.path.join(work, "warmup"))
        if args.trace:
            checked, checks, metrics = measure_traced(args, wl, work, tracer)
            reported = metrics
        else:
            checked, checks, metrics = measure_untraced(args, wl, work, setup)
            reported = {k: metrics[k] for k in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(b.task_walls) for b in checked)
    failed = attempted - sum(b.certified for b in checked)
    correct = all(c.passed for c in checks)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "started_at": started,
        "env": env_info(args, wl.pool), "setup_times": setup.times,
        "metrics": metrics, "correct": correct, "attempted": attempted, "failed": failed,
        "checks": [vars(c) for c in checks],
        "csv_sha256": [[b.index, b.csv_sha256] for b in checked],
        "batch_walls": [[b.index, len(b.task_walls), b.wall] for b in checked],
    }
    if args.trace:
        record["spans"] = tracer.by_name()
        record["counts"] = dict(tracer.counts)
        record["missing_trace_sites"] = sorted(tracer.missing)

    out_dir = args.out or os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)

    print_report(record)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in reported.items()}}))
    return 0 if correct else 1


def print_report(record: dict):
    env = record["env"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"commit={env['git_commit']} src_sha256={env['src_sha256'][:16]}")
    print(f"  nproc={env['nproc']} pool={env['pool']} cpu={env['cpu']!r} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']}")
    for index, digest in record["csv_sha256"]:
        print(f"  csv batch {index:>3} sha256 {digest}")
    for c in record["checks"]:
        print(f"  check {'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    if record.get("missing_trace_sites"):
        print(f"  trace sites not found: {', '.join(record['missing_trace_sites'])}")
    if "spans" in record:
        print("  span                                calls      self_s       p90_s")
        for name, s in sorted(record["spans"].items()):
            print(f"  {name:34s} {s['calls']:7d} {s['self_s']:11.6f} {s['s_p90']:11.6f}")
    for name, m in record["metrics"].items():
        print(f"  metric {name:34s} {m['value']:<14.6g} {m['unit']:9s} (n={m['n']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory for the run record")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for testing the benchmark itself")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
