"""Smoke test of scripts/solve_digest.py: every corpus builds, and the
digest of its first market counts, certifies and hashes each solve of it."""

import itertools

import solve_digest


def test_digest_of_each_corpus_first_market():
    names = []
    for name, solves, markets in solve_digest.corpora():
        count, certified, hexdigest = solve_digest.digest(solves, itertools.islice(markets, 1))
        assert (count, certified, len(hexdigest)) == (len(solves), len(solves), 64), name
        names.append(name)
    assert len(names) == len(set(names)) == 9
