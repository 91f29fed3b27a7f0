"""The prefix-tree walk against word-by-word evaluation, byte for byte."""

import numpy as np
import pytest

from spectra_census import algebra
from spectra_census import census as cn
from spectra_census import group as gr
from spectra_census import regions as rg
from spectra_census import reps as rp


def _random_factor(rng, k: int, field: str) -> rp.Factor:
    gens = []
    for _ in range(k):
        a, b, c = rng.uniform(0.5, 3.0, size=3)
        if field == algebra.COMPLEX:
            a, b = a * np.exp(1j * rng.uniform(0, 2)), b * np.exp(1j * rng.uniform(0, 2))
        gens.append(algebra.from_raw(np.array([[a, b], [c, (1 + b * c) / a]]), field))
    return rp.Factor(field, tuple(gens))


def _assert_same(got, want):
    """(P, S) pairs equal byte for byte."""
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.uint8), w.view(np.uint8))


def _ranges(total: int, chunk: int, offset: int):
    """Unaligned [lo, hi) chunks; small chunks only near the ends and middle."""
    cuts = list(range(offset, total, chunk))
    if chunk < 1000:
        cuts = cuts[:40] + cuts[len(cuts) // 2 : len(cuts) // 2 + 40] + cuts[-40:]
    return [(0, offset)] + [(lo, min(lo + chunk, total)) for lo in sorted(set(cuts))]


@pytest.mark.parametrize("field", [algebra.REAL, algebra.COMPLEX])
@pytest.mark.parametrize("k, n_max", [(2, 10), (3, 7)])
def test_prefix_walk_is_bit_identical(k, n_max, field):
    rng = np.random.default_rng(1000 * k + n_max)
    mats, logs = rp.generator_arrays(_random_factor(rng, k, field), k)
    for n in range(1, n_max + 1):
        total = gr.stratum_size(k, n)
        P, S = cn.evaluate_chunk(cn.decode_words(k, n, 0, total), mats, logs)
        _assert_same(cn.prefix_walk(k, n, 0, total, mats, logs), (P, S))
        for chunk in (1, 7, 1000, cn.CHUNK):
            for lo, hi in _ranges(total, chunk, offset=min(5, total - 1)):
                if lo == hi:
                    continue
                _assert_same(cn.prefix_walk(k, n, lo, hi, mats, logs), (P[lo:hi], S[lo:hi]))


def test_word_chunks_independent_of_chunk_size(two_factor_rep):
    def stream(**kw):
        chunks = list(cn.iter_word_chunks(two_factor_rep, 7, **kw))
        return np.concatenate([c[0].ravel() for c in chunks]), np.concatenate([c[1] for c in chunks])

    letters, mu = stream()
    letters7, mu7 = stream(chunk=7)
    assert np.array_equal(letters, letters7)
    assert np.array_equal(mu.view(np.uint8), mu7.view(np.uint8))


def test_cartan_census_independent_of_workers(two_factor_rep):
    family = cn.TubeBallFamily(rg.TubeSpec(rg.unit([1.0, 1.4]), 1.3))
    grid = np.arange(2.0, 24.0, 0.61) + 0.017
    runs = [cn.census_cartan(two_factor_rep, family, grid, 8, workers=w) for w in (1, 2, 8)]
    for series in runs[1:]:
        assert series.counts == runs[0].counts
        assert series.c_min_hat == runs[0].c_min_hat
        assert series.t_trust == runs[0].t_trust
