"""Smoke tests of the experiment scripts: each runs four replications at
tiny t in a subprocess, exits 0, prints its failed count and writes its
documented CSV header."""

import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


@pytest.mark.parametrize("script,args,csv,header", [
    ("run_clt.py", ["--symmetric", "--t", "50", "--k", "4"],
     "clt.csv", "rep,seed,standardized_nsw"),
    ("run_convergence.py", ["--n", "5", "--t-min", "20", "--t-max", "40", "--t-step", "20",
                            "--k", "2"],
     "convergence.csv", "t,rep,seed,nsw_hat,nsw_star,abs_err"),
    ("run_convergence.py", ["--n", "5", "--dim", "10", "--t-min", "20", "--t-max", "40",
                            "--t-step", "20", "--k", "2"],
     "convergence.csv", "t,rep,seed,nsw_hat,nsw_star,abs_err"),
    ("run_qlin.py", ["--t-min", "20", "--t-max", "40", "--k", "2"],
     "qlin.csv", "t,rep,seed,rev_hat,rev_star,abs_err"),
])
def test_script_writes_its_csv(tmp_path, script, args, csv, header):
    out = tmp_path / "out"
    env = dict(os.environ, FISHER_INFER_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args,
                           "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "failed=0" in proc.stdout
    lines = (out / csv).read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + 4  # one row per replication
