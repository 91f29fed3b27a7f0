import itertools
import re

import numpy as np
import pytest

from spectra_census import group as gr
from conftest import brute_force_classes, free_reduce, random_reduced_word


def test_stratum_counts_match_closed_form():
    for k in (2, 3):
        seen = {}
        for w in gr.enumerate_reduced_words(k, 6):
            seen[w.length] = seen.get(w.length, 0) + 1
        for n in range(1, 7):
            assert seen[n] == gr.stratum_size(k, n)


def test_stratum_brute_force():
    # every length-3 tuple over the rank-2 alphabet, filtered and deduped
    letters = [1, -1, 2, -2]
    words = {
        w
        for w in itertools.product(letters, repeat=3)
        if all(w[i + 1] != -w[i] for i in range(2))
    }
    assert len(words) == 36
    enumerated = {w.letters for w in gr.enumerate_reduced_words(2, 3) if w.length == 3}
    assert enumerated == words
    letters3 = [1, -1, 2, -2, 3, -3]
    pairs = {w for w in itertools.product(letters3, repeat=2) if w[1] != -w[0]}
    assert len(pairs) == 30


def test_depth_first_lexicographic_order():
    got = [str(w) for w in gr.enumerate_reduced_words(2, 2)]
    assert got == [
        "a", "aa", "ab", "aB",
        "A", "AA", "Ab", "AB",
        "b", "ba", "bA", "bb",
        "B", "Ba", "BA", "BB",
    ]


def test_words_are_reduced_and_unique():
    seen = set()
    for w in gr.enumerate_reduced_words(3, 4):
        assert all(w.letters[i + 1] != -w.letters[i] for i in range(w.length - 1))
        assert w.letters not in seen
        seen.add(w.letters)


def test_capacity_exceeded(monkeypatch):
    monkeypatch.setenv("SPECTRA_CENSUS_MAX_WORDS", "100")
    with pytest.raises(gr.CapacityExceeded):
        list(gr.enumerate_reduced_words(2, 10))
    with pytest.raises(gr.CapacityExceeded):
        list(gr.enumerate_conjugacy_classes(2, 10))
    # top stratum 4 * 3^44 is within the budget but beyond int64 word indices
    monkeypatch.setenv("SPECTRA_CENSUS_MAX_WORDS", str(10**30))
    with pytest.raises(gr.CapacityExceeded, match="int64"):
        next(gr.enumerate_reduced_words(2, 45))
    with pytest.raises(gr.CapacityExceeded, match="int64"):
        next(gr.enumerate_conjugacy_classes(2, 45))
    # far beyond the budget the message names the budget, not a word count
    # of thousands of digits, which Python refuses to format
    monkeypatch.delenv("SPECTRA_CENSUS_MAX_WORDS")
    for max_len in (10_000, 10**6):
        with pytest.raises(gr.CapacityExceeded, match=f"more than {gr.DEFAULT_BUDGET} words"):
            next(gr.enumerate_reduced_words(2, max_len))
        with pytest.raises(gr.CapacityExceeded, match=f"more than {gr.DEFAULT_BUDGET} words"):
            next(gr.enumerate_conjugacy_classes(2, max_len))
    # a budget that is not an integer is the variable's fault, and named so
    for value in ("1e9", "10**8", "lots", " "):
        monkeypatch.setenv("SPECTRA_CENSUS_MAX_WORDS", value)
        with pytest.raises(gr.CapacityExceeded, match=re.escape(f"SPECTRA_CENSUS_MAX_WORDS={value!r}")):
            next(gr.enumerate_reduced_words(2, 3))
    monkeypatch.setenv("SPECTRA_CENSUS_MAX_WORDS", " 1000 ")
    assert len(list(gr.enumerate_reduced_words(2, 3))) == gr.total_words(2, 3)


def test_cyclic_reduce_examples():
    core, conj = gr.cyclic_reduce(gr.Word((1, 2, -1)))
    assert core.letters == (2,)
    assert conj.letters == (1,)
    core, conj = gr.cyclic_reduce(gr.Word((1, 2)))
    assert core.letters == (1, 2)
    assert conj.letters == ()


def test_cyclic_reduce_empty_word():
    with pytest.raises(gr.EmptyWord):
        gr.cyclic_reduce(gr.Word(()))
    with pytest.raises(gr.EmptyWord):
        gr.canonical_rep(gr.Word(()))


def test_cyclic_reduce_conjugation_property():
    rng = np.random.default_rng(5)
    for _ in range(200):
        w = random_reduced_word(rng, 2, int(rng.integers(1, 8)))
        u = random_reduced_word(rng, 2, int(rng.integers(1, 5)))
        conjugated = free_reduce(u.letters + w.letters + tuple(-l for l in reversed(u.letters)))
        if not conjugated:
            continue
        lhs = gr.canonical_rep(gr.cyclic_reduce(gr.Word(conjugated))[0])
        rhs = gr.canonical_rep(gr.cyclic_reduce(w)[0])
        assert lhs == rhs


def test_canonical_rep_examples():
    cw = gr.canonical_rep(gr.Word((2, 1)))
    assert cw.letters == (1, 2)
    sq = gr.canonical_rep(gr.Word((1, 2, 1, 2)))
    assert sq.letters == (1, 2, 1, 2)
    assert sq.period == 2
    assert not sq.primitive


def test_canonical_rep_rotation_invariance():
    rng = np.random.default_rng(9)
    count = 0
    while count < 100:
        w = random_reduced_word(rng, 3, int(rng.integers(2, 9)))
        if not gr.is_cyclically_reduced(w):
            continue
        count += 1
        base = gr.canonical_rep(w)
        n = w.length
        for i in range(n):
            rot = w.letters[i:] + w.letters[:i]
            assert gr.canonical_rep(gr.Word(rot)) == base
        assert gr.canonical_rep(base.word()) == base


def test_conjugacy_classes_match_brute_force():
    for max_core in (4, 6):
        enumerated = list(gr.enumerate_conjugacy_classes(2, max_core))
        assert len(enumerated) == len(set(enumerated))
        assert set(enumerated) == brute_force_classes(2, max_core)


def test_conjugacy_class_counts_small():
    by_len = {}
    for c in gr.enumerate_conjugacy_classes(2, 2):
        by_len[c.length] = by_len.get(c.length, 0) + 1
    assert by_len == {1: 4, 2: 8}


def test_power_classes_not_primitive():
    primitives = [c for c in gr.enumerate_conjugacy_classes(2, 3) if c.primitive]
    assert primitives
    for c in primitives[:20]:
        for m in (2, 3, 4):
            powered = gr.canonical_rep(gr.Word(c.letters * m))
            assert not powered.primitive
            assert powered.period == c.length


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("SPECTRA_CENSUS_MAX_WORDS", "50")
    with pytest.raises(gr.CapacityExceeded):
        list(gr.enumerate_reduced_words(2, 5))
    monkeypatch.setenv("SPECTRA_CENSUS_MAX_WORDS", "1000000")
    assert sum(1 for _ in gr.enumerate_reduced_words(2, 5)) == sum(
        gr.stratum_size(2, n) for n in range(1, 6)
    )
