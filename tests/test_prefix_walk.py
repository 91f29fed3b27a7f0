"""The prefix-tree walks against word-by-word decoding, filtering and
evaluation, and the struct-of-arrays 2x2 fold against its (m, 2, 2) form,
byte for byte."""

import math

import numpy as np
import pytest

from spectra_census import algebra
from spectra_census import census as cn
from spectra_census import fitting
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
    """(P, S) pairs equal byte for byte; P may be a 4-tuple of entry arrays."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, tuple):
            assert isinstance(g, tuple)
            _assert_same(g, w)
            continue
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.uint8), w.view(np.uint8))


def _soa(M: np.ndarray):
    """An (m, 2, 2) array as the 4-tuple (p00, p01, p10, p11) of entry arrays."""
    return tuple(M[:, i, j].copy() for i in (0, 1) for j in (0, 1))


# ---------------------------------------------------------------------------
# the 2x2 fold in (m, 2, 2) form with stride-four entries: the oracle the
# struct-of-arrays kernel replaces


def _oracle_extend(P, S, B, logB):
    a00, a01 = P[:, 0, 0], P[:, 0, 1]
    a10, a11 = P[:, 1, 0], P[:, 1, 1]
    b00, b01 = B[:, 0, 0], B[:, 0, 1]
    b10, b11 = B[:, 1, 0], B[:, 1, 1]
    Q = np.empty_like(P)
    Q[:, 0, 0] = a00 * b00 + a01 * b10
    Q[:, 0, 1] = a00 * b01 + a01 * b11
    Q[:, 1, 0] = a10 * b00 + a11 * b10
    Q[:, 1, 1] = a10 * b01 + a11 * b11
    S = S + logB
    A = np.abs(Q)
    mx = np.maximum(np.maximum(A[:, 0, 0], A[:, 0, 1]), np.maximum(A[:, 1, 0], A[:, 1, 1]))
    _, e = np.frexp(mx)
    e = np.where((mx >= 0.5) & (mx <= 2.0), 0, e).astype(np.int32)
    Q /= np.ldexp(1.0, e)[:, None, None]
    S += e * math.log(2.0)
    return Q, S


def _oracle_evaluate(letters, mats, logs):
    P = mats[letters[:, 0]]
    S = logs[letters[:, 0]]
    for j in range(1, letters.shape[1]):
        P, S = _oracle_extend(P, S, mats[letters[:, j]], logs[letters[:, j]])
    return P, S


def _oracle_cartan(P, S):
    fro2 = np.sum(np.abs(P) ** 2, axis=(1, 2))
    h = 2.0 * S + np.log(fro2) - math.log(2.0)
    h = np.maximum(h, 0.0)
    return h + np.log1p(np.sqrt(-np.expm1(-2.0 * h)))


def _oracle_jordan(P, S, is_complex, tol=algebra.DEFAULT_TOL):
    t = P[:, 0, 0] + P[:, 1, 1]
    det = np.exp(-2.0 * S)
    if is_complex:
        r = np.sqrt(t * t - 4.0 * det + 0j)
        lam_p, lam_m = t + r, t - r
        lam = np.where(np.abs(lam_p) >= np.abs(lam_m), lam_p, lam_m) * 0.5
        mod = np.abs(lam)
        bad = ~(S + np.log(np.where(mod > 0, mod, 1.0)) > math.log(1.0 + tol)) | (mod == 0.0)
        if bad.any():
            raise algebra.NonLoxodromic(f"{int(bad.sum())} non-loxodromic products in a complex factor")
        return 2.0 * (S + np.log(mod)), np.angle(lam) % math.pi
    ta = np.abs(t)
    bad = ~(S + np.log(np.where(ta > 0, ta, 1.0)) > math.log(2.0 + tol)) | (ta == 0.0)
    if bad.any():
        raise algebra.NonLoxodromic(f"{int(bad.sum())} non-loxodromic products in a real factor")
    lam = 0.5 * (ta + np.sqrt(ta * ta - 4.0 * det))
    return 2.0 * (S + np.log(lam)), None


def _outcome(jordan, P, S, is_complex):
    """jordan(P, S, is_complex), or the message of the NonLoxodromic it raises."""
    try:
        lengths, holos = jordan(P, S, is_complex)
    except algebra.NonLoxodromic as exc:
        return str(exc)
    return lengths, holos


def _walk(k, n, lo, hi, mats, logs):
    """prefix_walk's blocks, checked to tile [lo, hi) in order with 1..BLOCK
    rows each, concatenated into one (P, S)."""
    blocks = list(cn.prefix_walk(k, n, lo, hi, mats, logs))
    assert [b[0] for b in blocks] == [0] + list(np.cumsum([b[2].size for b in blocks[:-1]]))
    assert all(1 <= b[2].size <= cn.BLOCK and all(x.size == b[2].size for x in b[1]) for b in blocks)
    assert sum(b[2].size for b in blocks) == hi - lo
    P = tuple(np.concatenate([b[1][j] for b in blocks]) for j in range(4))
    return P, np.concatenate([b[2] for b in blocks])


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
    mats = _soa(mats)
    for n in range(1, n_max + 1):
        total = gr.stratum_size(k, n)
        P, S = cn.evaluate_chunk(cn.decode_words(k, n, 0, total), mats, logs)
        _assert_same(_walk(k, n, 0, total, mats, logs), (P, S))
        for chunk in (1, 7, 1000, 4095, 4097, cn.CHUNK):
            for lo, hi in _ranges(total, chunk, offset=min(5, total - 1)):
                if lo == hi:
                    continue
                _assert_same(_walk(k, n, lo, hi, mats, logs), (tuple(x[lo:hi] for x in P), S[lo:hi]))


@pytest.mark.parametrize("block", [6, 10, 50])
@pytest.mark.parametrize("k, n_max", [(2, 9), (3, 6)])
def test_prefix_walk_blocks_tile_any_block_size(monkeypatch, k, n_max, block):
    # blocks far below the default split runs of single nodes whose leaves
    # outnumber a block, and split them again further down
    monkeypatch.setattr(cn, "BLOCK", block)
    rng = np.random.default_rng(3000 + 100 * k + block)
    mats, logs = rp.generator_arrays(_random_factor(rng, k, algebra.COMPLEX), k)
    mats = _soa(mats)
    for n in range(1, n_max + 1):
        total = gr.stratum_size(k, n)
        P, S = cn.evaluate_chunk(cn.decode_words(k, n, 0, total), mats, logs)
        for lo, hi in [(0, total), (1, total - 1), (total // 3, total // 3 + 1), (5, min(total, 301))]:
            if lo < hi:
                _assert_same(_walk(k, n, lo, hi, mats, logs), (tuple(x[lo:hi] for x in P), S[lo:hi]))


@pytest.mark.parametrize("field", [algebra.REAL, algebra.COMPLEX])
@pytest.mark.parametrize("k, n_max", [(2, 10), (3, 7)])
def test_soa_kernel_matches_stride_four_oracle(k, n_max, field):
    rng = np.random.default_rng(7000 + 1000 * k + n_max)
    mats, logs = rp.generator_arrays(_random_factor(rng, k, field), k)
    images = _soa(mats)
    is_complex = field == algebra.COMPLEX
    for n in range(1, n_max + 1):
        total = gr.stratum_size(k, n)
        letters = cn.decode_words(k, n, 0, total)
        P, S = _oracle_evaluate(letters, mats, logs)
        want = (_soa(P), S)
        for got in (cn.evaluate_chunk(letters, images, logs), _walk(k, n, 0, total, images, logs)):
            _assert_same(got, want)
        _assert_same((cn.cartan_chunk(*want),), (_oracle_cartan(P, S),))
        # the loxodromic rows, where jordan_chunk returns spectra, then the
        # whole stratum, which may raise
        t = np.abs(P[:, 0, 0] + P[:, 1, 1])
        lox = S + np.log(np.where(t > 0, t, 1.0)) > math.log(2.5)
        assert n == 1 or lox.any()
        for rows in (lox, slice(None)):
            got = _outcome(cn.jordan_chunk, tuple(x[rows] for x in want[0]), S[rows], is_complex)
            expected = _outcome(_oracle_jordan, P[rows], S[rows], is_complex)
            if isinstance(expected, str):
                assert got == expected
                continue
            assert not isinstance(got, str)
            _assert_same(got[:1], expected[:1])
            if is_complex:
                _assert_same(got[1:], expected[1:])
            else:
                assert got[1] is None and expected[1] is None


def test_cartan_path_decodes_no_word(monkeypatch, two_factor_rep):
    def no_decode(*args):
        raise AssertionError("the Cartan path decoded words")

    monkeypatch.setattr(cn, "decode_words", no_decode)
    v = rg.unit([1.0, 1.4])
    grid = np.arange(2.0, 24.0, 0.61) + 0.017
    series = cn.census_cartan(two_factor_rep, cn.TubeBallFamily(rg.TubeSpec(v, 1.3)), grid, 7)
    assert series.counts[-1] > 0
    ladder = fitting.growth_indicator_ladder(two_factor_rep, v, [1.6, 1.1], grid, 7, "cartan-tube")
    assert ladder.c_min_hat == series.c_min_hat
    assert cn.completeness_horizon(two_factor_rep, 7, "cartan")[1] == series.c_min_hat


def test_word_chunks_independent_of_chunk_size(two_factor_rep):
    def stream(L_max, **kw):
        chunks = list(cn.iter_word_chunks(two_factor_rep, L_max, **kw))
        return np.concatenate([c[0].ravel() for c in chunks]), np.concatenate([c[1] for c in chunks])

    # at L_max 10 the strata span several chunks and blocks
    for L_max, sizes in [(7, (7,)), (10, (7, 4097))]:
        letters, mu = stream(L_max)
        for chunk in sizes:
            letters_c, mu_c = stream(L_max, chunk=chunk)
            assert np.array_equal(letters, letters_c)
            assert np.array_equal(mu.view(np.uint8), mu_c.view(np.uint8))


def test_cartan_walk_folds_in_blocks(monkeypatch, real_pair):
    # a deterministic stand-in for the walk's page faults: no 2x2 step of
    # the Cartan walk runs over more than a block of rows
    seen = []
    extend = cn._extend

    def counted(P, S, B, logB):
        seen.append(S.size)
        return extend(P, S, B, logB)

    monkeypatch.setattr(cn, "_extend", counted)
    grid = np.arange(2.0, 24.0, 0.61) + 0.017
    family = cn.TubeBallFamily(rg.TubeSpec(rg.unit([1.0]), 1.3))
    # the census prunes its walk; a spectra sink reads every word, so the
    # second walk folds the whole tree
    for sink in (None, lambda letters, X, holos: None):
        seen.clear()
        cn.census_cartan(real_pair, family, grid, 11, spectra_sink=sink)
        assert max(seen) <= cn.BLOCK
    assert sum(seen) > gr.stratum_size(2, 11)


def test_cartan_census_independent_of_workers(two_factor_rep):
    family = cn.TubeBallFamily(rg.TubeSpec(rg.unit([1.0, 1.4]), 1.3))
    grid = np.arange(2.0, 24.0, 0.61) + 0.017
    runs = [cn.census_cartan(two_factor_rep, family, grid, 8, workers=w) for w in (1, 2, 8)]
    for series in runs[1:]:
        assert series.counts == runs[0].counts
        assert series.c_min_hat == runs[0].c_min_hat
        assert series.t_trust == runs[0].t_trust


@pytest.mark.parametrize("k, n_max", [(2, 10), (3, 7)])
def test_necklace_walk_matches_decode_and_filters(k, n_max):
    for n in range(1, n_max + 1):
        total = gr.stratum_size(k, n)
        rows = cn.decode_words(k, n, 0, total)
        keep = cn.cyclically_reduced_mask(rows)
        keep[keep] = cn.canonical_mask(rows[keep])
        for chunk in (1, 7, 1000, cn.CHUNK):
            for lo, hi in _ranges(total, chunk, offset=min(5, total - 1)):
                if lo == hi:
                    continue
                want = rows[lo:hi][keep[lo:hi]]
                letters, period = cn.necklace_walk(k, n, lo, hi)
                assert letters.dtype == want.dtype
                assert np.array_equal(letters, want)
                assert np.array_equal(period, cn.periods(want))


def _decoded_class_chunks(rep, L_max, shard, chunk):
    """iter_class_chunks by decoding, filtering and evaluating every word of
    each chunk."""
    images = cn._factor_images(rep)
    any_complex = any(f.field == algebra.COMPLEX for f in rep.factors)
    for n, lo, hi in cn._chunk_ranges(rep.k, L_max, shard, chunk):
        letters = cn.decode_words(rep.k, n, lo, hi)
        letters = letters[cn.cyclically_reduced_mask(letters)]
        letters = letters[cn.canonical_mask(letters)]
        if not letters.size:
            continue
        lam = np.empty((letters.shape[0], rep.d))
        holos = np.full((letters.shape[0], rep.d), np.nan) if any_complex else None
        for i, (mats, logs) in enumerate(images):
            P, S = cn.evaluate_chunk(letters, mats, logs)
            lengths, h = cn.jordan_chunk(P, S, rep.factors[i].field == algebra.COMPLEX)
            lam[:, i] = lengths
            if h is not None:
                holos[:, i] = h
        yield letters, lam, holos, cn.periods(letters) == n


@pytest.mark.parametrize("rep_name", ["two_factor_rep", "complex_pair"])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("chunk", [7, 1000, cn.CHUNK])
def test_class_chunks_match_decoded_pipeline(request, rep_name, workers, chunk):
    rep = request.getfixturevalue(rep_name)
    rows = 0
    for shard in cn._shards(workers):
        got = list(cn.iter_class_chunks(rep, 8, shard=shard, chunk=chunk))
        want = list(_decoded_class_chunks(rep, 8, shard, chunk))
        assert len(got) == len(want)
        rows += sum(len(w[0]) for w in want)
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                if b is None:
                    assert a is None
                    continue
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a.view(np.uint8), b.view(np.uint8))
    assert rows == len(list(gr.enumerate_conjugacy_classes(rep.k, 8)))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_shard_chunks_partition_every_stratum(k, workers):
    L_max, chunk = 6, 7
    ranges = {}
    for shard in cn._shards(workers):
        walk = list(cn._chunk_ranges(k, L_max, shard, chunk))
        assert walk == sorted(walk)
        for n, lo, hi in walk:
            ranges.setdefault(n, []).append((lo, hi))
    assert sorted(ranges) == list(range(1, L_max + 1))
    for n, spans in ranges.items():
        spans.sort()
        assert spans[0][0] == 0 and spans[-1][1] == gr.stratum_size(k, n)
        assert all(lo < hi for lo, hi in spans)
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
