"""Smoke tests of scripts/solve_digest.py: every corpus builds, and the
digest of its first market counts, certifies and hashes each solve of it;
the harness digest runs every replication of its tiny configs."""

import itertools

import solve_digest


def test_digest_of_each_corpus_first_market():
    names = []
    for name, solves, markets in solve_digest.corpora():
        count, certified, hexdigest = solve_digest.digest(solves, itertools.islice(markets, 1))
        assert (count, certified, len(hexdigest)) == (len(solves), len(solves), 64), name
        names.append(name)
    assert len(names) == len(set(names)) == 9


def test_harness_digest_runs_every_mode(monkeypatch):
    monkeypatch.setenv("FISHER_INFER_THREADS", "1")
    configs = list(solve_digest.harness_configs())
    assert {c.mode for c in configs} == {"convergence", "clt", "coverage", "revenue_qlin"}
    count, certified, hexdigest = solve_digest.harness_digest(configs)
    assert (count, certified, len(hexdigest)) == (58, 58, 64)
