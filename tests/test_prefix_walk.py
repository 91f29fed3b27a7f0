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


def _walk(k, n_max, mats, logs, workers=1):
    """The unpruned one-factor walk to n_max at this many workers, each
    block checked to hold 1..BLOCK rows, as {n: (letters, (P, S))} per
    length in word-index order (shards merged back into it)."""
    parts = []
    for shard in [(w, workers) for w in range(workers)]:
        blocks = []
        for letters, period, evals in cn._walk(k, n_max, [(mats, logs)], shard):
            ((P, S),) = evals
            assert period is None
            assert 1 <= S.size <= cn.BLOCK and letters.shape[0] == S.size
            assert all(x.size == S.size for x in P)
            blocks.append([letters, *P, S])
        parts.append(_per_length(blocks))
    merged = parts[0] if workers == 1 else _merge_shards(parts)
    return {n: (letters, (tuple(P), S)) for n, (letters, *P, S) in merged.items()}


def _assert_walk_is_evaluate_chunk(k, n_max, mats, logs):
    # the letters of every length, in word-index order, and their (P, S)
    # at 1, 2 and 3 workers
    want = {}
    for n in range(1, n_max + 1):
        letters = cn.decode_words(k, n, 0, gr.stratum_size(k, n))
        want[n] = (letters, cn.evaluate_chunk(letters, mats, logs))
    for workers in (1, 2, 3):
        got = _walk(k, n_max, mats, logs, workers)
        assert sorted(got) == sorted(want)
        for n, (letters, evals) in want.items():
            assert got[n][0].dtype == letters.dtype and np.array_equal(got[n][0], letters)
            _assert_same(got[n][1], evals)


# The walk once also took unaligned word-index ranges [lo, hi) of a stratum
# and clipped the first and last node of each level to them; it now always
# walks the whole tree, so those cases went with the clipping.
@pytest.mark.parametrize("field", [algebra.REAL, algebra.COMPLEX])
@pytest.mark.parametrize("k, n_max", [(2, 10), (3, 7)])
def test_prefix_walk_is_bit_identical(k, n_max, field):
    rng = np.random.default_rng(1000 * k + n_max)
    mats, logs = rp.generator_arrays(_random_factor(rng, k, field))
    _assert_walk_is_evaluate_chunk(k, n_max, _soa(mats), logs)


@pytest.mark.parametrize("block", [6, 10, 50])
@pytest.mark.parametrize("k, n_max", [(2, 9), (3, 6)])
def test_prefix_walk_blocks_tile_any_block_size(monkeypatch, k, n_max, block):
    # blocks far below the default split runs of single nodes whose children
    # outnumber a block, and split them again further down
    monkeypatch.setattr(cn, "BLOCK", block)
    rng = np.random.default_rng(3000 + 100 * k + block)
    for field in (algebra.REAL, algebra.COMPLEX):
        mats, logs = rp.generator_arrays(_random_factor(rng, k, field))
        _assert_walk_is_evaluate_chunk(k, n_max, _soa(mats), logs)


@pytest.mark.parametrize("field", [algebra.REAL, algebra.COMPLEX])
@pytest.mark.parametrize("k, n_max", [(2, 10), (3, 7)])
def test_soa_kernel_matches_stride_four_oracle(k, n_max, field):
    rng = np.random.default_rng(7000 + 1000 * k + n_max)
    mats, logs = rp.generator_arrays(_random_factor(rng, k, field))
    images = _soa(mats)
    is_complex = field == algebra.COMPLEX
    walked = _walk(k, n_max, images, logs)
    for n in range(1, n_max + 1):
        total = gr.stratum_size(k, n)
        letters = cn.decode_words(k, n, 0, total)
        P, S = _oracle_evaluate(letters, mats, logs)
        want = (_soa(P), S)
        for got in (cn.evaluate_chunk(letters, images, logs), walked[n][1]):
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
    # the word stream reads the letters the walk carries, and sees every word
    rows = list(cn.iter_word_chunks(two_factor_rep, 7))
    assert sum(len(letters) for letters, *_ in rows) == gr.total_words(2, 7)
    images = cn._factor_images(two_factor_rep)
    for letters, X, *_ in rows:
        mu = np.column_stack([cn.cartan_chunk(*cn.evaluate_chunk(letters, *f)) for f in images])
        assert np.array_equal(X.view(np.uint8), mu.view(np.uint8))


def test_word_chunks_independent_of_chunk_size(monkeypatch, two_factor_rep):
    # the chunks are the walk's blocks: per length, their words and Cartan
    # vectors are the same for any BLOCK
    def stream(L_max):
        chunks = list(cn.iter_word_chunks(two_factor_rep, L_max))
        assert max(len(c[0]) for c in chunks) <= cn.BLOCK
        return _per_length(chunks)

    # at L_max 10 the strata span several blocks
    for L_max, sizes in [(7, (7,)), (10, (7, 4097))]:
        want = stream(L_max)
        for block in sizes:
            monkeypatch.setattr(cn, "BLOCK", block)
            got = stream(L_max)
            monkeypatch.undo()
            assert sorted(got) == sorted(want) == list(range(1, L_max + 1))
            for n in want:
                assert np.array_equal(got[n][0], want[n][0])
                assert np.array_equal(got[n][1].view(np.uint8), want[n][1].view(np.uint8))


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
    # the census prunes its walk; the word stream reads every word, so the
    # second walk folds the whole tree
    for walk in (lambda: cn.census_cartan(real_pair, family, grid, 11),
                 lambda: list(cn.iter_word_chunks(real_pair, 11))):
        seen.clear()
        walk()
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


def _per_length(chunks):
    """The chunks' columns (arrays of rows, or None), each concatenated per
    word length in stream order; the first column is the letters."""
    groups = {}
    for columns in chunks:
        groups.setdefault(columns[0].shape[1], []).append(columns)
    return {
        n: [None if col[0] is None else np.concatenate(col) for col in zip(*group)]
        for n, group in groups.items()
    }


def _merge_shards(parts):
    """_per_length of every shard, per length merged into word-index order,
    the lexicographic order of the letters."""
    merged = {}
    for n in set().union(*parts):
        columns = [part[n] for part in parts if n in part]
        cat = [None if col[0] is None else np.concatenate(col) for col in zip(*columns)]
        order = np.lexsort(cat[0].T[::-1])
        merged[n] = [None if col is None else col[order] for col in cat]
    return merged


def _walk_columns(letters, period, evals):
    """A class walk chunk as columns: letters, period, then each factor's
    four entries of P and S."""
    return [letters, period] + [x for P, S in evals for x in (*P, S)]


@pytest.mark.parametrize("k, n_max", [(2, 10), (3, 7)])
def test_necklace_walk_matches_decode_and_filters(k, n_max):
    # per length, the necklaces of the class walk at 1, 2 and 3 workers are
    # the cyclically reduced canonical rows of the decoded stratum, with their
    # periods, and each real and complex factor's (P, S) is evaluate_chunk's
    rng = np.random.default_rng(5000 + k)
    factors = []
    for field in (algebra.REAL, algebra.COMPLEX):
        mats, logs = rp.generator_arrays(_random_factor(rng, k, field))
        factors.append((_soa(mats), logs))
    want = {}
    for n in range(1, n_max + 1):
        rows = cn.decode_words(k, n, 0, gr.stratum_size(k, n))
        keep = cn.cyclically_reduced_mask(rows)
        keep[keep] = cn.canonical_mask(rows[keep])
        letters = rows[keep]
        evals = [cn.evaluate_chunk(letters, mats, logs) for mats, logs in factors]
        want[n] = _walk_columns(letters, cn.periods(letters), evals)
    for workers in (1, 2, 3):
        parts = [
            _per_length(_walk_columns(*c) for c in cn._walk(k, n_max, factors, shard, classes=True))
            for shard in [(w, workers) for w in range(workers)]
        ]
        got = parts[0] if workers == 1 else _merge_shards(parts)
        assert sorted(got) == sorted(want)
        for n, (letters, period, *evals) in want.items():
            assert got[n][0].dtype == letters.dtype
            assert np.array_equal(got[n][0], letters)
            assert np.array_equal(got[n][1], period)
            _assert_same(got[n][2:], evals)


def _decoded_class_chunks(rep, L_max):
    """iter_class_chunks by decoding, filtering and evaluating every word,
    one chunk per length."""
    images = cn._factor_images(rep)
    any_complex = any(f.field == algebra.COMPLEX for f in rep.factors)
    for n in range(1, L_max + 1):
        letters = cn.decode_words(rep.k, n, 0, gr.stratum_size(rep.k, n))
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
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block", [7, 1000, 1 << 15])
def test_class_chunks_match_decoded_pipeline(monkeypatch, request, rep_name, workers, block):
    # blocks from two nodes a run to whole levels; per length, the chunks of
    # one worker come in word-index order
    monkeypatch.setattr(cn, "BLOCK", block)
    rep = request.getfixturevalue(rep_name)
    want = _per_length(_decoded_class_chunks(rep, 8))
    shards = [(w, workers) for w in range(workers)]
    parts = [_per_length(cn._stream(rep, 8, shard, classes=True)) for shard in shards]
    got = parts[0] if workers == 1 else _merge_shards(parts)
    assert sorted(got) == sorted(want)
    rows = 0
    for n, w in want.items():
        rows += len(w[0])
        for a, b in zip(got[n], w):
            if b is None:
                assert a is None
                continue
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))
    assert rows == len(list(gr.enumerate_conjugacy_classes(rep.k, 8)))


def _assert_shards_partition(k, L_max, workers, classes):
    # the shards' items are every class (with its primitivity) or every
    # word once, and each shard yields each length in word-index order
    seen = []
    for shard in [(w, workers) for w in range(workers)]:
        order = {}
        for letters, period, evals in cn._walk(k, L_max, [], shard, classes=classes):
            assert evals == [] and (period is None) != classes
            rows = [tuple(int(c) for c in row) for row in letters]
            order.setdefault(letters.shape[1], []).extend(rows)
            seen += rows if period is None else [(row, bool(p == len(row))) for row, p in zip(rows, period)]
        assert all(rows == sorted(rows) for rows in order.values())
    if classes:
        expected = {
            (tuple(gr.letter_code(l) for l in c.letters), c.primitive)
            for c in gr.enumerate_conjugacy_classes(k, L_max)
        }
    else:
        expected = {tuple(gr.letter_code(l) for l in w.letters) for w in gr.enumerate_reduced_words(k, L_max)}
    assert len(seen) == len(set(seen))
    assert set(seen) == expected


@pytest.mark.parametrize("k, L_max", [(2, 1), (2, 3), (2, 7), (3, 5)])
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_class_walk_shards_partition_the_classes(k, L_max, workers):
    # below depth 5 the walk deals the nodes of depth L_max, or none at
    # L_max 1, where shard 0 yields every class; the word walk deals alike
    _assert_shards_partition(k, L_max, workers, classes=True)
    _assert_shards_partition(k, L_max, workers, classes=False)


@pytest.mark.parametrize("block", [6, 50])
def test_class_walk_folds_in_blocks(monkeypatch, complex_pair, block):
    # no 2x2 step and no chunk of the class walk runs over more than a
    # block of rows, and the runs a small block splits change no row
    seen = []
    extend = cn._extend

    def counted(P, S, B, logB):
        seen.append(S.size)
        return extend(P, S, B, logB)

    monkeypatch.setattr(cn, "_extend", counted)
    edges = np.linspace(0.0, math.pi, 5)
    grid = np.arange(2.0, 24.0, 0.61) + 0.017
    cn.census_box(complex_pair, [1.0], [0.8], grid, 11, sectors=edges)
    assert max(seen) <= cn.BLOCK
    assert sum(seen) > 4 * cn.BLOCK
    want = _per_length(cn.iter_class_chunks(complex_pair, 9))
    seen.clear()
    monkeypatch.setattr(cn, "BLOCK", block)
    chunks = list(cn.iter_class_chunks(complex_pair, 9))
    assert max(seen) <= block and max(len(c[0]) for c in chunks) <= block
    got = _per_length(chunks)
    assert sorted(got) == sorted(want)
    for n in want:
        for a, b in zip(got[n], want[n]):
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def test_class_path_never_evaluates_word_by_word(monkeypatch, complex_pair, two_factor_rep):
    def no_evaluate(*args):
        raise AssertionError("the class path evaluated a necklace letter by letter")

    monkeypatch.setattr(cn, "evaluate_chunk", no_evaluate)
    grid = np.arange(2.0, 24.0, 0.61) + 0.017
    series, hist = cn.census_box(complex_pair, [1.0], [0.8], grid, 8, sectors=np.linspace(0.0, math.pi, 5))
    assert series.counts[-1] > 0 and sum(hist[0][-1].counts) > 0
    assert rp.detect_dependence(two_factor_rep, 6).n_classes > 0


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_shard_chunks_partition_every_stratum(k, workers):
    # the word walk's shards, at one worker too, past the depth of the deal
    _assert_shards_partition(k, 6, workers, classes=False)
