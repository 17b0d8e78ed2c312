"""Summarize run records, and compare a change against its parent.

    python3 perfbench/compare.py summary DIR [--json FILE]
    python3 perfbench/compare.py pairs --parent TREE --change TREE \
        --workload clt_sym2 --pairs 10 --out DIR
    python3 perfbench/compare.py report DIR/parent DIR/change

`summary` prints, per workload and end-to-end metric, the median,
quartiles and spread (interquartile range over median) of a set of
--trace 0 records, and the bound the spread is held to.

`pairs` runs the benchmark in two source trees, the parent commit and
the change, one pair per seed, and flips which side runs first from one
pair to the next.  It runs seeds 1..--pairs for BENCHMARK.json's
run_seconds on both sides.  The records land in DIR/parent and
DIR/change.

`report` pairs the --trace 0 records of two sets by (workload, seed) and
prints one row per workload and end-to-end metric of BENCHMARK.json:
each side's median and quartiles, pair wins, and the verdict of
stats.verdict ("gain", "within bound", "regressed", "unresolved").  It
also counts pairs whose result CSVs are byte-identical batch for batch,
the pairs in which the parent ran first, and each side's failed tasks.
A gain does not count on a workload where the change failed more tasks
than the parent or failed an output check: its verdict reads "gain
refused".  It exits 1 when any metric regressed, or when the change
failed more tasks than the parent or failed an output check.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def load_records(directory: str) -> dict:
    """(workload, seed) -> record, for the untraced full-size runs."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0 and not rec.get("smoke") and "workload" in rec:
            out[(rec["workload"], rec["seed"])] = rec
    return out


def summary(directory: str, json_path: str | None) -> int:
    bench = load_benchmark()
    records = load_records(directory)
    out = {}
    for workload in sorted({w for w, _ in records}):
        runs = [r for (w, _), r in sorted(records.items()) if w == workload]
        print(f"{workload}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}")
        out[workload] = {"runs": len(runs), "seeds": [r["seed"] for r in runs],
                         "correct": all(r["correct"] for r in runs), "metrics": {}}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = stats.quartiles(values)
            sp = stats.spread(values)
            out[workload]["metrics"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": sp,
                "bound": m["bound"], "values": values}
            print(f"  {m['name']:16s} median {med:<12.6g} [{q1:.6g}, {q3:.6g}] {m['unit']:9s}"
                  f" spread {sp:.4f} (bound {m['bound']})")
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(out, fh, indent=1)
    return 0 if records else 2


def csv_identical(a: dict, b: dict) -> bool:
    """True when two runs wrote the same CSV bytes for every batch both ran."""
    ha, hb = dict(map(tuple, a["csv_sha256"])), dict(map(tuple, b["csv_sha256"]))
    common = ha.keys() & hb.keys()
    return bool(common) and all(ha[i] == hb[i] for i in common)


def report(parent_dir: str, change_dir: str) -> int:
    bench = load_benchmark()
    parent, change = load_records(parent_dir), load_records(change_dir)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no (workload, seed) pairs in common")
        return 2
    bad = False
    for workload in sorted({w for w, _ in keys}):
        pairs = [(parent[k], change[k]) for k in keys if k[0] == workload]
        first = sum(p["started_at"] < c["started_at"] for p, c in pairs)
        same = sum(csv_identical(p, c) for p, c in pairs)
        p_failed = sum(p["failed"] for p, _ in pairs)
        c_failed = sum(c["failed"] for _, c in pairs)
        wrong = [c["seed"] for _, c in pairs if not c["correct"]]
        print(f"{workload}: {len(pairs)} pairs, parent ran first in {first}, "
              f"result CSVs identical in {same}, failed tasks {p_failed} parent, "
              f"{c_failed} change")
        refuse = []
        if c_failed > p_failed:
            refuse.append(f"the change failed {c_failed} tasks, the parent {p_failed}")
        if wrong:
            refuse.append(f"the change failed an output check at seeds {wrong}")
        if refuse:
            print(f"  no gain counts: {'; '.join(refuse)}")
            bad = True
        print(f"  {'metric':16s} {'parent median [Q1, Q3]':>36s} "
              f"{'change median [Q1, Q3]':>36s} {'wins':>7s}  verdict")
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            (p1, pm, p3), (c1, cm, c3) = stats.quartiles(pv), stats.quartiles(cv)
            wins, _, _ = stats.pair_wins(pv, cv, m["better"])
            verdict = stats.verdict(pv, cv, m["better"], m["bound"])
            if verdict == "gain" and refuse:
                verdict = "gain refused"
            bad |= verdict in ("regressed", "gain refused")
            print(f"  {name:16s} {pm:12.6g} [{p1:10.6g}, {p3:10.6g}] "
                  f"{cm:12.6g} [{c1:10.6g}, {c3:10.6g}] {wins:3d}/{len(pairs):<3d}  {verdict}")
    return 1 if bad else 0


def run_pairs(args) -> int:
    seconds = load_benchmark()["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for i in range(args.pairs):
        seed = 1 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = sides[side]
            cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0",
                   "--out", os.path.abspath(os.path.join(args.out, side))]
            done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
            print(f"pair {i} seed {seed} {side}: exit {done.returncode}", flush=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
                return done.returncode
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("summary", help="median and quartiles of one set of records")
    sp.add_argument("directory")
    sp.add_argument("--json", help="also write the summary to this file")
    rp = sub.add_parser("report", help="compare two sets of run records")
    rp.add_argument("parent_dir")
    rp.add_argument("change_dir")
    pp = sub.add_parser("pairs", help="run alternating parent/change pairs")
    pp.add_argument("--parent", required=True, help="source tree of the parent commit")
    pp.add_argument("--change", required=True, help="source tree of the change")
    pp.add_argument("--workload", required=True)
    pp.add_argument("--pairs", type=int, default=10)
    pp.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.cmd == "summary":
        return summary(args.directory, args.json)
    if args.cmd == "report":
        return report(args.parent_dir, args.change_dir)
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
