"""Experiment harness tests: seeding, configs, determinism, CSV layout, CLI.

The determinism contract is the load-bearing one: replication seeds
depend only on (base_seed, t, rep), and output CSVs must be
byte-identical no matter how many workers produced them.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fisher_infer import experiments
from fisher_infer.cli import main as cli_main
from fisher_infer.experiments import (
    CltResult,
    ConvergenceResult,
    CoverageResult,
    ExperimentConfig,
    QlinRevenueResult,
    config_from_dict,
    derive_seed,
    load_config,
    run_clt_experiment,
    run_convergence_sweep,
    run_coverage_experiment,
    run_experiment,
    run_qlin_revenue,
)
from fisher_infer.finite import solve_sample_eg, solve_sample_qeg
from fisher_infer.markets import (
    Linear1DValuation,
    LinearMDValuation,
    LongRunSpec,
    UniformCubeSupply,
    random_linear1d_spec,
    sample_items,
    save_spec,
)


def _single_buyer_spec(budget=1.0, slope=0.0):
    # v(theta) = slope*theta + intercept with mean 1 on [0,1]
    return LongRunSpec(budgets=np.array([budget]),
                       valuation=Linear1DValuation(c=np.array([slope]),
                                                   d=np.array([1.0 - slope / 2.0])))


def _mini_config(spec, **kw):
    defaults = dict(mode="convergence", t_grid=(30, 60), k=4, base_seed=7)
    defaults.update(kw)
    return ExperimentConfig(spec=spec, **defaults)


# ---------------------------------------------------------------------------
# seed derivation


def test_derive_seed_reproducible():
    assert derive_seed(0, 100, 3) == derive_seed(0, 100, 3)
    assert 0 <= derive_seed(0, 100, 3) < 2**64


def test_derive_seed_pairwise_distinct():
    seeds = {derive_seed(5, t, rep) for t in range(100, 200) for rep in range(20)}
    assert len(seeds) == 100 * 20


def test_derive_seed_depends_on_all_inputs():
    base = derive_seed(1, 100, 0)
    assert derive_seed(2, 100, 0) != base
    assert derive_seed(1, 101, 0) != base
    assert derive_seed(1, 100, 1) != base


# ---------------------------------------------------------------------------
# config


def test_config_validation(symmetric_spec):
    with pytest.raises(ValueError):
        _mini_config(symmetric_spec, t_grid=())
    with pytest.raises(ValueError):
        _mini_config(symmetric_spec, t_grid=(100, 50))
    with pytest.raises(ValueError):
        _mini_config(symmetric_spec, t_grid=(100, 100))
    with pytest.raises(ValueError):
        _mini_config(symmetric_spec, k=0)
    with pytest.raises(ValueError):
        _mini_config(symmetric_spec, alpha=0.0)
    with pytest.raises(ValueError):
        _mini_config(symmetric_spec, mode="bogus")


@pytest.mark.parametrize("key,value", [("t_grid", (30, 60.7)), ("k", 2.9), ("k", True),
                                       ("base_seed", True), ("base_seed", 1.5)])
def test_config_rejects_fractional_and_bool_counts(symmetric_spec, key, value):
    # int() truncated these: t_grid [50.7] ran as (50,), k 2.9 as 2 and
    # base_seed true as 1
    with pytest.raises(ValueError, match=repr(key)):
        _mini_config(symmetric_spec, **{key: value})
    cfg = _mini_config(symmetric_spec, t_grid=(30.0, 60), k=4.0, base_seed=np.int64(7))
    assert (cfg.t_grid, cfg.k, cfg.base_seed) == ((30, 60), 4, 7)
    assert all(type(x) is int for x in (*cfg.t_grid, cfg.k, cfg.base_seed))


def test_config_round_trip(symmetric_spec):
    data = json.loads("""{
        "spec": {"budgets": [0.5, 0.5],
                 "valuation": {"kind": "linear1d", "c": [-2.0, 2.0], "d": [2.0, 0.0]}},
        "mode": "clt", "t_grid": [30, 60], "k": 4, "base_seed": 13,
        "alpha": 0.1, "tol": 1e-8, "out_dir": "results"}""")
    cfg = config_from_dict(data)
    assert cfg.mode == "clt"
    assert cfg.t_grid == (30, 60)
    assert cfg.k == 4
    assert cfg.base_seed == 13
    assert cfg.alpha == 0.1
    assert cfg.tol == 1e-8
    assert cfg.out_dir == "results"
    assert np.array_equal(cfg.spec.budgets, symmetric_spec.budgets)
    assert np.array_equal(cfg.spec.valuation.c, symmetric_spec.valuation.c)
    assert np.array_equal(cfg.spec.valuation.d, symmetric_spec.valuation.d)


def test_load_config_resolves_spec_path(tmp_path, symmetric_spec):
    save_spec(symmetric_spec, str(tmp_path / "spec.json"))
    cfg_data = {"spec_path": "spec.json", "mode": "convergence",
                "t_grid": [50, 100], "k": 2}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg_data))
    cfg = load_config(str(tmp_path / "cfg.json"))
    assert np.array_equal(cfg.spec.budgets, symmetric_spec.budgets)
    assert cfg.t_grid == (50, 100)


# ---------------------------------------------------------------------------
# determinism


def test_csv_byte_identical_across_worker_counts(tmp_path, symmetric_spec, monkeypatch):
    cfg = _mini_config(symmetric_spec)
    monkeypatch.setenv("FISHER_INFER_THREADS", "1")
    run_convergence_sweep(dataclasses.replace(cfg, out_dir=str(tmp_path / "serial")))
    monkeypatch.setenv("FISHER_INFER_THREADS", "8")
    run_convergence_sweep(dataclasses.replace(cfg, out_dir=str(tmp_path / "parallel")))
    serial = (tmp_path / "serial" / "convergence.csv").read_bytes()
    parallel = (tmp_path / "parallel" / "convergence.csv").read_bytes()
    assert serial == parallel
    assert len(serial) > 0


@pytest.mark.parametrize("value", ["abc", "0", "-4"])
def test_bad_thread_count_names_the_variable(symmetric_spec, monkeypatch, value):
    monkeypatch.setenv("FISHER_INFER_THREADS", value)
    with pytest.raises(ValueError, match=f"FISHER_INFER_THREADS.*'{value}'"):
        run_convergence_sweep(_mini_config(symmetric_spec))


def test_import_leaves_the_pool_module_out():
    # the pool's module is imported only where a pool starts
    code = "import sys, fisher_infer; print('concurrent.futures' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_rerun_reproduces_csv(tmp_path, symmetric_spec):
    cfg = _mini_config(symmetric_spec, mode="coverage", t_grid=(50,), k=6)
    run_coverage_experiment(dataclasses.replace(cfg, out_dir=str(tmp_path / "a")))
    run_coverage_experiment(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
    assert (tmp_path / "a" / "coverage.csv").read_bytes() == \
        (tmp_path / "b" / "coverage.csv").read_bytes()


def test_results_ordered_by_t_then_rep(symmetric_spec, monkeypatch):
    monkeypatch.setenv("FISHER_INFER_THREADS", "4")
    res = run_convergence_sweep(_mini_config(symmetric_spec))
    keys = [(r.t, r.rep) for r in res.rows]
    assert keys == sorted(keys)
    assert keys == [(t, rep) for t in (30, 60) for rep in range(4)]


# ---------------------------------------------------------------------------
# convergence sweep


def test_convergence_csv_layout(tmp_path, symmetric_spec):
    cfg = _mini_config(symmetric_spec)
    run_convergence_sweep(dataclasses.replace(cfg, out_dir=str(tmp_path)))
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "t,rep,seed,nsw_hat,nsw_star,abs_err"
    assert len(lines) == 1 + len(cfg.t_grid) * cfg.k
    first = lines[1].split(",")
    assert first[0] == "30" and first[1] == "0"
    assert int(first[2]) == derive_seed(cfg.base_seed, 30, 0)
    # float cells are full-precision reprs, so they parse back exactly
    assert repr(float(first[3])) == first[3]


def test_convergence_attaches_longrun_reference(symmetric_spec):
    res = run_convergence_sweep(_mini_config(symmetric_spec))
    assert res.nsw_star == pytest.approx(math.log(0.75), abs=1e-9)
    assert res.beta_star == pytest.approx((2 / 3, 2 / 3), abs=1e-9)
    assert all(e["n_ok"] == 4 and e["n_failed"] == 0 for e in res.summary)


def test_convergence_propagates_longrun_solver_errors(symmetric_spec, monkeypatch):
    def fail(spec):
        raise RuntimeError("no certificate")

    monkeypatch.setattr(experiments, "solve_longrun_eg", fail)
    with pytest.raises(RuntimeError, match="no certificate"):
        run_convergence_sweep(_mini_config(symmetric_spec))


@pytest.mark.parametrize("budgets", [(0.3, 0.3), (1.0, 1.0)])
def test_convergence_rejects_unnormalized_budgets_before_solving(budgets, monkeypatch):
    # no long-run reference for a multidimensional spec, so the sweep must
    # check the budgets itself before any replication runs
    spec = LongRunSpec(budgets=np.array(budgets),
                       valuation=LinearMDValuation(a=np.eye(2), c=np.array([0.5, 0.5])),
                       supply=UniformCubeSupply(dim=2))

    def no_jobs(config, t_values):
        raise AssertionError("replications dispatched")

    monkeypatch.setattr(experiments, "_run_jobs", no_jobs)
    cfg = _mini_config(spec, t_grid=(50,), k=2)
    with pytest.raises(ValueError, match="normalize_spec"):
        run_convergence_sweep(cfg)


def test_convergence_single_buyer_exact_nsw():
    spec = _single_buyer_spec()
    cfg = _mini_config(spec, t_grid=(50, 200))
    res = run_convergence_sweep(cfg)
    # constant unit values: nsw_hat = log(mean value) = 0 in every row
    for r in res.rows:
        assert r.status == "ok"
        assert r.nsw_hat == pytest.approx(0.0, abs=1e-12)
    assert res.nsw_star == pytest.approx(0.0, abs=1e-12)
    assert res.nsw_rate is None  # zero errors leave nothing to fit


def test_convergence_flags_uncertified_rows(five_buyer_spec):
    cfg = ExperimentConfig(spec=five_buyer_spec, mode="convergence",
                           t_grid=(200,), k=2, base_seed=3, tol=-math.inf)
    res = run_convergence_sweep(cfg)
    assert all(r.status == "uncertified" for r in res.rows)
    assert res.summary[0]["n_failed"] == 2
    assert res.summary[0]["n_ok"] == 0
    assert math.isnan(res.summary[0]["mean_abs_err"])


# ---------------------------------------------------------------------------
# CLT experiment


def test_clt_csv_layout_and_samples(tmp_path, symmetric_spec):
    cfg = _mini_config(symmetric_spec, mode="clt", t_grid=(400,), k=12)
    res = run_clt_experiment(dataclasses.replace(cfg, out_dir=str(tmp_path)))
    lines = (tmp_path / "clt.csv").read_text().splitlines()
    assert lines[0] == "rep,seed,standardized_nsw"
    assert len(lines) == 1 + 12
    assert res.samples.shape == (12,)
    assert res.sigma2 == pytest.approx(1.0 / 27.0, abs=1e-9)
    assert res.ks is not None and res.qq is not None
    assert not res.degenerate
    # samples in the file are sqrt(t) (nsw_hat - nsw_star), unscaled by sigma
    row = lines[1].split(",")
    r0 = next(r for r in res.rows if r.rep == 0)
    assert float(row[2]) == math.sqrt(400) * (r0.nsw_hat - math.log(0.75))
    assert float(row[2]) == res.samples[0]


def test_clt_degenerate_single_buyer():
    cfg = _mini_config(_single_buyer_spec(), mode="clt", t_grid=(100,), k=5)
    res = run_clt_experiment(cfg)
    assert res.degenerate
    assert res.sigma2 == pytest.approx(0.0, abs=1e-12)
    assert res.ks is None and res.qq is None
    assert np.allclose(res.samples, 0.0, atol=1e-10)


def test_clt_requires_exact_reference():
    # multi-d valuations have no closed-form long-run solution
    spec = LongRunSpec(
        budgets=np.array([0.5, 0.5]),
        valuation=LinearMDValuation(a=np.array([[1.0, 0.5], [0.2, 1.0]]),
                                    c=np.array([0.1, 0.1])),
        supply=UniformCubeSupply(dim=2),
    )
    cfg = _mini_config(spec, t_grid=(100,), k=3)
    for mode, run in (("clt", run_clt_experiment), ("coverage", run_coverage_experiment),
                      ("revenue_qlin", run_qlin_revenue)):
        with pytest.raises(ValueError, match=f"^{mode} needs a 1-D linear spec"):
            run(dataclasses.replace(cfg, mode=mode))


# ---------------------------------------------------------------------------
# coverage experiment


def test_coverage_csv_layout(tmp_path, symmetric_spec):
    cfg = _mini_config(symmetric_spec, mode="coverage", t_grid=(300,), k=20)
    res = run_coverage_experiment(dataclasses.replace(cfg, out_dir=str(tmp_path)))
    lines = (tmp_path / "coverage.csv").read_text().splitlines()
    assert lines[0] == "rep,seed,lo,hi,covered"
    assert len(lines) == 1 + 20
    assert all(line.split(",")[4] in ("0", "1") for line in lines[1:])
    assert 0.0 <= res.coverage <= 1.0
    assert len(res.covered) == 20
    assert res.stderr == pytest.approx(
        math.sqrt(res.coverage * (1 - res.coverage) / 20), abs=1e-15)


def test_coverage_half_alpha_near_half(symmetric_spec):
    cfg = _mini_config(symmetric_spec, mode="coverage", t_grid=(500,), k=200,
                       alpha=0.5)
    res = run_coverage_experiment(cfg)
    band = 4.0 * math.sqrt(0.25 / 200)
    assert abs(res.coverage - 0.5) <= band


def test_coverage_degenerate_market_is_total():
    cfg = _mini_config(_single_buyer_spec(), mode="coverage", t_grid=(100,), k=10)
    res = run_coverage_experiment(cfg)
    assert res.coverage == 1.0
    assert res.nsw_star == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# quasilinear revenue sweep


def test_qlin_boundary_single_buyer_exact(tmp_path):
    # b=2 caps beta at 1, so rev_hat = mean value = 1 identically
    cfg = _mini_config(_single_buyer_spec(budget=2.0), mode="revenue_qlin",
                       t_grid=(50, 200), k=3)
    res = run_qlin_revenue(dataclasses.replace(cfg, out_dir=str(tmp_path)))
    assert res.rev_star == pytest.approx(1.0, abs=1e-10)
    for r in res.rows:
        assert r.status == "ok"
        assert r.rev_hat == pytest.approx(1.0, abs=1e-10)
        assert r.comp_slack <= 1e-8
    lines = (tmp_path / "qlin.csv").read_text().splitlines()
    assert lines[0] == "t,rep,seed,rev_hat,rev_star,abs_err"
    assert len(lines) == 1 + 2 * 3


def test_qlin_interior_single_buyer_noisy_errors():
    # sloped values make the sample mean noisy, so errors are positive
    cfg = _mini_config(_single_buyer_spec(budget=0.5, slope=1.0),
                       mode="revenue_qlin", t_grid=(100, 400), k=6)
    res = run_qlin_revenue(cfg)
    assert res.rev_star == pytest.approx(0.5, abs=1e-10)
    assert all(r.status == "ok" for r in res.rows)
    assert res.rate is not None
    assert res.max_comp_slack <= 1e-8
    assert all(e["mean_abs_err"] > 0 for e in res.summary)


# ---------------------------------------------------------------------------
# dispatcher


def test_run_experiment_dispatch(symmetric_spec):
    modes = {
        "convergence": ConvergenceResult,
        "clt": CltResult,
        "coverage": CoverageResult,
    }
    for mode, cls in modes.items():
        cfg = _mini_config(symmetric_spec, mode=mode, t_grid=(40,), k=2)
        assert isinstance(run_experiment(cfg), cls)
    qcfg = _mini_config(_single_buyer_spec(budget=2.0), mode="revenue_qlin",
                        t_grid=(40,), k=2)
    assert isinstance(run_experiment(qcfg), QlinRevenueResult)
    with pytest.raises(ValueError):
        run_experiment(_mini_config(symmetric_spec, mode="single_solve"))


def _two_lines(budgets):
    return LongRunSpec(budgets=np.array(budgets),
                       valuation=Linear1DValuation(c=np.array([-2.0, 2.0]),
                                                   d=np.array([2.0, 0.0])))


@pytest.mark.parametrize("mode,csv,spec,t_grid,k", [
    ("clt", "clt.csv", _two_lines([0.5, 0.5]), (400,), 30),
    ("coverage", "coverage.csv", _two_lines([0.5, 0.5]), (300,), 30),
    ("convergence", "convergence.csv", random_linear1d_spec(5, 42), (50, 200), 6),
    ("revenue_qlin", "qlin.csv", _two_lines([0.8, 0.6]), (100, 400), 6),
])
def test_default_route_writes_the_pr_route_csvs(mode, csv, spec, t_grid, k):
    # on the markets of the harness's (t, rep) seeds the default route and
    # "pr" give the same bits of what the mode's csv is written from: nsw
    # and the prices of the sigma2 estimate, or the revenue
    qlin = mode == "revenue_qlin"
    solve = solve_sample_qeg if qlin else solve_sample_eg
    for t in t_grid:
        for rep in range(k):
            market = sample_items(spec, t, derive_seed(7, t, rep))
            default, pr = solve(market), solve(market, method="pr")
            assert default.certificate.certified and pr.certificate.certified
            if qlin:
                assert default.rev == pr.rev
            else:
                assert default.nsw == pr.nsw and np.array_equal(default.p, pr.p)


def test_rows_are_one_record_array(symmetric_spec, five_buyer_spec):
    res = run_clt_experiment(_mini_config(symmetric_spec, mode="clt", t_grid=(200,), k=5))
    rows = res.rows
    assert isinstance(rows, np.recarray) and rows.dtype.names == (
        "t", "rep", "seed", "status", "wall_time", "nsw_hat", "rev_hat", "sigma2_hat", "ci",
        "beta_hat", "u_hat", "comp_slack")
    assert rows.beta_hat.shape == (5, 2) and rows.u_hat.shape == (5, 2)
    assert rows.ci.shape == (5, 2) and np.all(rows.ci[:, 0] < rows.ci[:, 1])
    assert list(rows.rep) == list(range(5)) and all(rows.status == "ok")
    first = rows[0]
    assert first.t == 200 and first.seed == derive_seed(7, 200, 0) and first.status == "ok"
    assert np.array_equal(first.u_hat, rows.u_hat[0]) and math.isnan(first.rev_hat)
    assert res.qq.shape == (5, 2) and np.array_equal(res.qq[:, 1], np.sort(res.samples))
    # an uncertified replication keeps its place with NaN estimates
    flagged = run_convergence_sweep(ExperimentConfig(
        spec=five_buyer_spec, mode="convergence", t_grid=(100,), k=1,
        tol=-math.inf)).rows
    assert flagged.status[0] == "uncertified" and flagged.beta_hat.shape == (1, 5)
    assert np.isnan(flagged.beta_hat).all() and np.isnan(flagged.ci).all()


# ---------------------------------------------------------------------------
# command line


@pytest.fixture()
def cli_files(tmp_path, symmetric_spec):
    spec_path = tmp_path / "spec.json"
    save_spec(symmetric_spec, str(spec_path))
    cfg = {"spec_path": "spec.json", "mode": "convergence",
           "t_grid": [30, 60], "k": 2, "base_seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, spec_path, cfg_path


def test_cli_solve(cli_files, capsys):
    tmp_path, spec_path, _ = cli_files
    out = tmp_path / "eq.json"
    rc = cli_main(["solve", "--spec", str(spec_path), "--t", "100",
                   "--seed", "7", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "certified equilibrium" in printed
    assert "beta_hat" in printed
    data = json.loads(out.read_text())
    assert set(data) >= {"beta", "u", "p", "x", "certificate"}


def test_cli_solve_uncertified_exits_nonzero(cli_files, capsys, monkeypatch):
    import dataclasses

    import fisher_infer.cli as cli

    solve = cli.solve_sample_eg

    def uncertified(market, **kwargs):
        eq = solve(market, **kwargs)
        cert = dataclasses.replace(eq.certificate, duality_gap=1e-3, certified=False)
        return dataclasses.replace(eq, certificate=cert)

    monkeypatch.setattr(cli, "solve_sample_eg", uncertified)
    _, spec_path, _ = cli_files
    rc = cli_main(["solve", "--spec", str(spec_path), "--t", "100", "--seed", "7"])
    assert rc != 0
    printed = capsys.readouterr().out
    assert "certified equilibrium" not in printed
    assert "not certified" in printed
    assert "1.000e-03" in printed and "1.0e-09" in printed


def test_cli_solve_unnormalized_budgets_exits_nonzero(tmp_path, symmetric_spec, capsys):
    spec_path = tmp_path / "spec.json"
    save_spec(dataclasses.replace(symmetric_spec, budgets=np.array([1.0, 1.0])), str(spec_path))
    rc = cli_main(["solve", "--spec", str(spec_path), "--t", "100", "--seed", "7"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "normalize_spec" in captured.err
    assert "beta_hat" not in captured.out


@pytest.mark.parametrize("args", [["--t", "1"], ["--alpha", "2"]])
def test_cli_solve_report_error_prints_no_certificate(cli_files, capsys, args):
    _, spec_path, _ = cli_files
    rc = cli_main(["solve", "--spec", str(spec_path), "--t", "100", "--seed", "7", *args])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "certified equilibrium" not in captured.out


def test_cli_solve_spec_without_valuation_is_an_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"budgets": [0.5, 0.5]}))
    rc = cli_main(["solve", "--spec", str(spec_path), "--t", "100", "--seed", "7"])
    assert rc == 1
    assert "'valuation'" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("valuation", "linear1d"), ("supply", "uniform01"),
                                       ("n", [2]), ("dim", [2])])
def test_cli_solve_spec_entry_of_the_wrong_type_is_an_error(cli_files, capsys, key, value):
    # a TypeError traceback ("string indices must be integers") would
    # leave the user to guess the entry
    _, spec_path, _ = cli_files
    data = json.loads(spec_path.read_text())
    if key == "dim":  # an entry of the supply
        data["supply"] = {"kind": "uniform_cube", key: value}
    else:
        data[key] = value
    spec_path.write_text(json.dumps(data))
    rc = cli_main(["solve", "--spec", str(spec_path), "--t", "100", "--seed", "7"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err


def test_cli_solve_quasilinear(cli_files, capsys):
    _, spec_path, _ = cli_files
    rc = cli_main(["solve", "--spec", str(spec_path), "--t", "80",
                   "--seed", "3", "--qlin"])
    assert rc == 0
    assert "rev_hat" in capsys.readouterr().out


def test_cli_sweep(cli_files, capsys):
    tmp_path, _, cfg_path = cli_files
    rc = cli_main(["sweep", "--config", str(cfg_path), "--out",
                   str(tmp_path / "res")])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "mean_abs_err" in printed
    assert (tmp_path / "res" / "convergence.csv").exists()


def test_cli_clt_and_coverage(cli_files, capsys):
    tmp_path, spec_path, _ = cli_files
    for mode, needle in (("clt", "KS:"), ("coverage", "coverage =")):
        cfg = {"spec_path": str(spec_path), "mode": mode,
               "t_grid": [200], "k": 15, "base_seed": 2}
        cfg_path = tmp_path / f"{mode}.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli_main([mode, "--config", str(cfg_path)])
        assert rc == 0
        assert needle in capsys.readouterr().out


def test_cli_qlin(cli_files, capsys):
    tmp_path, spec_path, _ = cli_files
    cfg = {"spec_path": str(spec_path), "mode": "revenue_qlin",
           "t_grid": [50, 100], "k": 2, "base_seed": 4}
    cfg_path = tmp_path / "qlin.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["qlin", "--config", str(cfg_path)])
    assert rc == 0
    assert "rev_star" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["max_iter", "method", "metod"])
def test_unknown_config_key_is_an_error(cli_files, capsys, key):
    # an old config's max_iter or method, or a misspelt key, is not
    # dropped silently
    _, _, cfg_path = cli_files
    data = json.loads(cfg_path.read_text())
    data[key] = 10
    with pytest.raises(ValueError, match=key):
        config_from_dict(data)
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["sweep", "--config", str(cfg_path)]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["clt", "coverage"])
@pytest.mark.parametrize("k,tol", [(1, 1e-9), (3, -math.inf)])
def test_cli_single_t_modes_print_failures(cli_files, capsys, mode, k, tol):
    # one certified sample, or none, is too few for a KS test; the run
    # still exits 0 and says how many replications failed
    tmp_path, spec_path, _ = cli_files
    cfg = {"spec_path": str(spec_path), "mode": mode, "t_grid": [100], "k": k,
           "base_seed": 2, "tol": tol}
    cfg_path = tmp_path / f"{mode}.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main([mode, "--config", str(cfg_path)]) == 0
    failed = k if tol < 0 else 0
    assert f"certified={k - failed} failed={failed}" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["k", "mode", "t_grid", "spec"])
def test_missing_config_key_is_an_error(cli_files, capsys, key):
    tmp_path, _, cfg_path = cli_files
    data = json.loads(cfg_path.read_text())
    del data["spec_path" if key == "spec" else key]
    with pytest.raises(ValueError, match=key):
        config_from_dict(data, base_dir=str(tmp_path))
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["sweep", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize("key,value", [("t_grid", 50), ("spec", [0.5, 0.5]), ("k", [2]),
                                       ("alpha", None), ("t_grid", [[50]]), ("out_dir", 5)])
def test_config_key_of_the_wrong_type_is_an_error(cli_files, capsys, key, value):
    tmp_path, _, cfg_path = cli_files
    # "t_grid": 50 ended the sweep in "'int' object is not iterable", and
    # "k": [2] in a TypeError traceback from int()
    data = json.loads(cfg_path.read_text())
    data.pop("spec_path" if key == "spec" else key, None)
    data[key] = value
    with pytest.raises(ValueError, match=key):
        config_from_dict(data, base_dir=str(tmp_path))
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["sweep", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize("command,run,mode", [
    ("sweep", run_convergence_sweep, "convergence"), ("clt", run_clt_experiment, "clt"),
    ("coverage", run_coverage_experiment, "coverage"), ("qlin", run_qlin_revenue, "revenue_qlin")])
def test_a_config_of_another_mode_is_an_error(cli_files, capsys, command, run, mode):
    tmp_path, _, cfg_path = cli_files
    data = json.loads(cfg_path.read_text())
    data["mode"] = "coverage" if mode == "convergence" else "convergence"
    cfg_path.write_text(json.dumps(data))
    assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 1
    err = capsys.readouterr().err
    assert repr(data["mode"]) in err and repr(mode) in err
    assert not (tmp_path / "res").exists()
    with pytest.raises(ValueError, match=repr(mode)):
        run(dataclasses.replace(load_config(str(cfg_path)), out_dir=str(tmp_path / "res")))
    assert not (tmp_path / "res").exists()


def test_cli_errors_return_nonzero(tmp_path, capsys):
    rc = cli_main(["sweep", "--config", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli_main(["sweep", "--config", str(bad)])
    assert rc == 1
