"""Smoke test of scripts/solve_digest.py: every corpus builds, and the
digest of its first market counts, certifies and hashes it."""

import itertools

import solve_digest


def test_digest_of_each_corpus_first_market():
    names = []
    for name, solve, markets in solve_digest.corpora():
        count, certified, hexdigest = solve_digest.digest(solve, itertools.islice(markets, 1))
        assert (count, certified, len(hexdigest)) == (1, 1, 64), name
        names.append(name)
    assert len(names) == len(set(names)) == 8
