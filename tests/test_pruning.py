"""The certified quasi-additivity defects (reps.defect_table and its maximum,
reps.defect_constant) and the Cartan and class walks they prune: the lemma,
per letter pair, against every split of the short words and against mpmath
on long ones, its C_lambda corollary on every short necklace, every
pruned census against the unpruned walk, and the factor fits' cut grid
against the fit of the whole grid."""

import collections
import functools
import json
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest

from spectra_census import algebra
from spectra_census import census as cn
from spectra_census import cli
from spectra_census import fitting as ft
from spectra_census import group as gr
from spectra_census import regions as rg
from spectra_census import reps as rp

# the factors of the A4 pair, the complex twist-0.9 pair and a weak pair
FACTORS = {
    "a4_first": lambda: rp.schottky_pair(3.0, 3.0),
    "a4_second": lambda: rp.schottky_pair(5.0, 3.0),
    "complex": lambda: rp.schottky_pair(3.0, 3.0, "complex", twist=0.9),
    "weak": lambda: rp.schottky_pair(2.0, 3.0),
}
# the largest mu(u) + mu(v) - mu(uv) over reduced uv with |uv| <= 10,
# measured with this walk; the certificate must lie above it
MEASURED = {"a4_first": 4.6186, "a4_second": 4.6187, "complex": 4.7377, "weak": 4.6148}
INF = np.inf
# the A4 factor-0 table, C[a, b] for the cut (a, b) in letter-code order; the
# splits of short words barely tell a table from one with the letters of its
# cut misread, so the entries are pinned
A4_FIRST_TABLE = [
    [0.50, -INF, 2.10, 2.95],
    [-INF, 0.50, 1.61, 1.19],
    [1.19, 2.95, 6.00, -INF],
    [1.61, 2.10, -INF, 6.00],
]


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_defect_table_maximum_is_defect_constant(name):
    factor = FACTORS[name]().factors[0]
    table = rp.defect_table(factor)
    assert table.max() == rp.defect_constant(factor)
    # -inf exactly at the cuts (a, a^-1), and the cut (a, b) of uv is the cut
    # (b^-1, a^-1) of its inverse
    codes = np.arange(4)
    assert np.array_equal(np.isinf(table), codes[:, None] == codes[None, :] ^ 1)
    assert np.array_equal(table, table[codes ^ 1][:, codes ^ 1].T)


def test_defect_table_pinned_on_a4():
    table = rp.defect_table(FACTORS["a4_first"]().factors[0])
    assert np.allclose(table, A4_FIRST_TABLE, rtol=0.0, atol=0.005)


@functools.lru_cache(maxsize=None)
def _lengths():
    """Conjugacy classes of F_2 per core length up to 10, from the scalar
    enumeration."""
    return collections.Counter(len(c.letters) for c in gr.enumerate_conjugacy_classes(2, 10))


def _classes(L_max):
    """Conjugacy classes of F_2 of core length 1..L_max, L_max <= 10."""
    return sum(count for n, count in _lengths().items() if n <= L_max)


def _mu_by_stratum(rep, L_max):
    """Per word length n, (letters, mu) of every reduced word in index order."""
    out = {}
    for letters, mu in cn.iter_word_chunks(rep, L_max):
        out.setdefault(letters.shape[1], []).append((letters, mu[:, 0]))
    return {n: tuple(np.concatenate(x) for x in zip(*parts)) for n, parts in out.items()}


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_defect_constant_bounds_every_split(name):
    rep = FACTORS[name]()
    C = rp.defect_constant(rep.factors[0])
    table = rp.defect_table(rep.factors[0])
    strata = _mu_by_stratum(rep, 10)
    worst = -np.inf
    for n, (letters, mu) in strata.items():
        idx = np.arange(mu.size)
        for j in range(1, n):
            # u is the prefix of length j, v the suffix: its first letter,
            # then the same digits as w's last n - j - 1
            tail = 3 ** (n - j - 1)
            u = strata[j][1][idx // (3 * tail)]
            v = strata[n - j][1][letters[:, j].astype(np.int64) * tail + idx % tail]
            worst = max(worst, float(np.max(u + v - mu)))
            # the lemma per letter pair, at the cut (last of u, first of v)
            assert np.all(u + v - mu <= table[letters[:, j - 1], letters[:, j]]), (n, j)
    assert worst == pytest.approx(MEASURED[name], abs=1e-4)
    assert C >= worst


def _mp_matrix(g: algebra.RenormMatrix):
    true = g.true_matrix().astype(complex)
    return mpmath.matrix([[mpmath.mpc(complex(true[i, j])) for j in (0, 1)] for i in (0, 1)])


def _mp_mu(M) -> mpmath.mpf:
    fro2 = sum(abs(M[i, j]) ** 2 for i in (0, 1) for j in (0, 1))
    return mpmath.acosh(fro2 / 2)


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_defect_constant_holds_in_mpmath_on_long_words(name):
    rep = FACTORS[name]()
    C = rp.defect_constant(rep.factors[0])
    table = rp.defect_table(rep.factors[0])
    rng = random.Random(name)
    with mpmath.workdps(60):
        images = []
        for g in rep.factors[0].generators:
            M = _mp_matrix(g)
            images += [M, mpmath.inverse(M)]  # letter codes 2i, 2i + 1
        for _ in range(60):
            n = rng.randint(2, 40)
            word = [rng.randrange(4)]
            while len(word) < n:
                word.append(rng.choice([c for c in range(4) if c != word[-1] ^ 1]))
            j = rng.randint(1, n - 1)
            prod = [mpmath.eye(2)] * 3
            for pos, c in enumerate(word):
                part = 0 if pos < j else 1
                prod[part] = prod[part] * images[c]
                prod[2] = prod[2] * images[c]
            u, v, uv = (_mp_mu(M) for M in prod)
            assert uv >= u + v - C
            assert uv >= u + v - table[word[j - 1], word[j]]


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_c_lambda_holds_on_every_short_necklace(name):
    # lambda(w) >= mu(w) - C[last(w), first(w)] for cyclically reduced w
    rep = FACTORS[name]()
    table = rp.defect_table(rep.factors[0])
    ((images, logs),) = cn._factor_images(rep)
    seen = 0
    for letters, lam, _, _ in cn.iter_class_chunks(rep, 10):
        mu = cn.cartan_chunk(*cn.evaluate_chunk(letters, images, logs))
        assert np.all(lam[:, 0] >= mu - table[letters[:, -1], letters[:, 0]])
        seen += len(lam)
    assert seen == _classes(10)


def _affine(factor: rp.Factor, scale: float, shift: float) -> rp.Factor:
    """Conjugate by z -> scale^2 z + scale shift, which moves the isometric
    circles by the same Euclidean similarity."""
    return rp.conjugate_factor(factor, np.array([[scale, shift], [0.0, 1.0 / scale]]))


def test_defect_constant_not_applicable():
    factor = rp.schottky_pair(3.0, 3.0).factors[0]
    report = rp.validate_ping_pong(rp.schottky_pair(3.0, 3.0))
    # rank 3
    third = algebra.from_raw(np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert rp.defect_constant(rp.Factor(algebra.REAL, factor.generators + (third,))) is None
    # overlapping circles: the pair is not certified, as under force
    g1 = np.array([[3.0, 0.0], [0.0, 1.0 / 3.0]])
    h = np.array([[np.cosh(0.25), np.sinh(0.25)], [np.sinh(0.25), np.cosh(0.25)]])
    close = rp.Factor(algebra.REAL, tuple(algebra.from_raw(m) for m in (g1, h @ g1 @ np.linalg.inv(h))))
    assert not rp.validate_ping_pong(rp.Representation(k=2, factors=(close,))).passed
    assert rp.defect_constant(close) is None
    # forced through the gate, its census walks every word
    profile = {}
    tube = cn.TubeBallFamily(rg.TubeSpec(rg.unit([1.0]), 1.0))
    cn.census_cartan(rp.Representation(k=2, factors=(close,)), tube, [4.0, 8.0], 6, force=True,
                     profile=profile)
    assert profile["cartan_leaves"] == gr.total_words(2, 6)
    # certified circles, one of them moved onto the basepoint and widened
    framed = rp.conjugate_factor(factor, rp._rotation_frame(report.frame_rotation))
    center, radius, _ = report.circles[0]
    scale = (2.0 / radius) ** 0.5
    moved = _affine(framed, scale, -scale * center.real)
    moved_report = rp.validate_ping_pong(rp.Representation(k=2, factors=(moved,)))
    assert moved_report.passed and moved_report.frame_rotation is None
    assert abs(moved_report.circles[0][0]) < 1e-9 and moved_report.circles[0][1] > 1.0
    assert rp.defect_constant(moved) is None
    # the same similarity without the shift keeps the basepoint outside
    assert rp.defect_constant(_affine(framed, 0.5, 0.0)) is not None


# ---------------------------------------------------------------------------
# the pruned walk against the unpruned one


def _unpruned(monkeypatch):
    # the census reads the certificates through defect_table alone
    monkeypatch.setattr(cn, "defect_table", lambda factor: None)


@pytest.fixture(scope="module")
def mixed_pair():
    return rp.join(rp.schottky_pair(3.0, 3.0, "complex", twist=0.9), rp.schottky_pair(5.0, 3.0))


def _families(d):
    v = rg.unit([1.0, 1.4][:d])
    return {
        "tube": cn.TubeBallFamily(rg.TubeSpec(v, 1.1, [0.2, -0.1][:d])),
        "cone": cn.ConeBallFamily(rg.ConeSpec(v, 0.08)),
        "ladder": cn.ApertureLadderFamily([rg.TubeSpec(v, e) for e in (1.6, 1.1, 0.8)]),
        "ray": cn.CoordinateRayFamily(d - 1, d),
        "truncated": cn.TruncatedTubeFamily(v, [1.0] * d, "upper"),
    }


def _run(rep, family, workers, L_max=9):
    grid = np.arange(3.0, 9.0 + 9.0 * rep.d, 0.7) + 0.013
    profile = {}
    series, part = cn._series(rep, cn.KIND_CARTAN, family, grid, L_max, workers, False, profile=profile)
    return part.counts, series.c_min_hat, series.t_trust, profile["cartan_leaves"]


@pytest.mark.parametrize("rep_name", ["two_factor_rep", "mixed_pair", "real_pair"])
def test_pruned_census_equals_unpruned(request, monkeypatch, rep_name):
    rep = request.getfixturevalue(rep_name)
    total = gr.total_words(2, 9)
    pruned = {}
    for name, family in _families(rep.d).items():
        runs = [_run(rep, family, w) for w in (1, 2, 3)]
        assert all(r[3] == runs[0][3] for r in runs)  # the same leaves in every sharding
        assert (runs[0][3] < total) == (name != "truncated")
        pruned[name] = runs
    _unpruned(monkeypatch)
    for name, family in _families(rep.d).items():
        counts, c_min, t_trust, leaves = _run(rep, family, 1)
        assert leaves == total
        for got in pruned[name]:
            assert np.array_equal(got[0], counts), name
            assert got[1] == c_min and got[2] == t_trust, name


@pytest.mark.parametrize("rep_name", ["two_factor_rep", "mixed_pair"])
def test_pruned_horizon_equals_unpruned(request, monkeypatch, rep_name):
    rep = request.getfixturevalue(rep_name)
    runs = []
    for workers in (1, 2, 3):
        profile = {}
        runs.append((cn.completeness_horizon(rep, 9, "cartan", workers, profile=profile), profile))
    assert runs[0][1]["cartan_leaves"] < gr.total_words(2, 9) / 10
    assert all(r == runs[0] for r in runs)
    _unpruned(monkeypatch)
    assert cn.completeness_horizon(rep, 9, "cartan") == runs[0][0]


def _class_families(d):
    families = _families(d)
    families["box"] = cn.BoxWindowFamily(rg.unit([1.0, 1.4][:d]), [1.5, 2.0][:d])
    return families


def _class_run(rep, family, workers, primitive=False, L_max=9):
    grid = np.arange(3.0, 9.0 + 9.0 * rep.d, 0.7) + 0.013
    kind = cn.KIND_JORDAN_PRIMITIVE if primitive else cn.KIND_JORDAN
    # the holonomy sectors of the first complex factor, if any
    edges = np.linspace(0.0, np.pi, 6) if isinstance(family, cn.BoxWindowFamily) else None
    profile = {}
    part, t_trust = cn._census(rep, kind, (family,), grid, L_max, workers, False, edges=edges,
                               profile=profile)
    return part.counts, part.histograms, part.c_min, t_trust, profile["class_leaves"]


@pytest.mark.parametrize("rep_name", ["two_factor_rep", "mixed_pair", "complex_pair"])
def test_pruned_class_census_equals_unpruned(request, monkeypatch, rep_name):
    rep = request.getfixturevalue(rep_name)
    total = _classes(9)
    cases = [(name, family, False) for name, family in _class_families(rep.d).items()]
    cases.append(("primitive tube", _class_families(rep.d)["tube"], True))
    pruned = {}
    for name, family, primitive in cases:
        runs = [_class_run(rep, family, w, primitive) for w in (1, 2, 3)]
        assert all(r[4] == runs[0][4] for r in runs)  # the same classes in every sharding
        assert (runs[0][4] < total) == (name != "truncated"), name
        pruned[name] = runs
    _unpruned(monkeypatch)
    for name, family, primitive in cases:
        counts, hist, c_min, t_trust, leaves = _class_run(rep, family, 1, primitive)
        assert leaves == total
        assert (hist is not None) == (name == "box")
        if hist is not None and rep_name != "two_factor_rep":
            assert hist.sum() > 0
        for got in pruned[name]:
            assert np.array_equal(got[0], counts), name
            assert (hist is None and got[1] is None) or np.array_equal(got[1], hist), name
            assert got[2] == c_min and got[3] == t_trust, name


@pytest.mark.parametrize("rep_name", ["two_factor_rep", "complex_pair"])
def test_pruned_jordan_horizon_equals_unpruned(request, monkeypatch, rep_name):
    rep = request.getfixturevalue(rep_name)
    runs = []
    for workers in (1, 2, 3):
        profile = {}
        runs.append((cn.completeness_horizon(rep, 9, "jordan", workers, profile=profile), profile))
    assert runs[0][1]["class_leaves"] < _classes(9) / 2
    assert all(r == runs[0] for r in runs)
    _unpruned(monkeypatch)
    assert cn.completeness_horizon(rep, 9, "jordan") == runs[0][0]


def test_class_stream_and_dependence_probe_see_every_class(two_factor_rep):
    total = _classes(8)
    family = _class_families(2)["tube"]
    grid = np.arange(3.0, 27.0, 0.7) + 0.013
    profile = {}
    cn.census_jordan(two_factor_rep, family, grid, 8, profile=profile)
    assert sum(len(X) for _, X, *_ in cn.iter_class_chunks(two_factor_rep, 8)) == total
    assert profile["class_leaves"] < total
    assert rp.detect_dependence(two_factor_rep, 8).n_classes == total


def test_box_reach_is_the_far_corner():
    box = cn.BoxWindowFamily([0.6, 0.8], [1.5, 2.0])
    grid = np.array([3.0, 7.5, 12.25])
    axis, reach = box.reach(12.25)
    corner = np.array([[0.6 * 12.25 + 1.5, 0.8 * 12.25 + 2.0]])
    assert axis == "norm" and reach == pytest.approx(float(np.linalg.norm(corner)), rel=1e-15)
    assert box.count_grid(corner, grid).tolist() == [0, 0, 1]
    assert box.count_grid(corner * (1.0 + 1e-9), grid).tolist() == [0, 0, 0]
    # no nonnegative row beyond the reach is in the box at any grid time
    rows = np.random.default_rng(3).uniform(0.0, 20.0, size=(20000, 2))
    outside = rows[np.sqrt(np.sum(rows * rows, axis=1)) > reach]
    assert len(outside) and box.count_grid(outside, grid).sum() == 0


def test_block_pruned_to_nothing_is_not_yielded(monkeypatch, two_factor_rep):
    # a coordinate ray and runs of two nodes: the pruned walk yields no empty
    # block, so neither does the stream, whose chunks _tally reads unchecked
    monkeypatch.setattr(cn, "BLOCK", 6)
    images = cn._factor_images(two_factor_rep)
    reach = ((cn.CoordinateRayFamily(0, 2),), np.array([15.0]))
    bound = cn._Pruning.of(two_factor_rep, *reach, 9, images)
    blocks = list(cn._walk(2, 9, images, bound=bound))
    assert all(evals[0][1].size > 0 for _, _, evals in blocks)
    chunks = list(cn._stream(two_factor_rep, 9, bound=bound))
    assert len(chunks) == len(blocks) and all(len(letters) and len(mu) for letters, mu, _, _ in chunks)


def test_pruning_minima_equal_decoded_strata(mixed_pair):
    # the exact per-letter minima of one walk and the smallest generator
    # spectrum, against every decoded word of each stratum, for a complex
    # and a real factor; beyond EXACT the same extension of both
    images = cn._factor_images(mixed_pair)
    tables = np.stack([rp.defect_table(f) for f in mixed_pair.factors], axis=-1)
    fields = [f.field == algebra.COMPLEX for f in mixed_pair.factors]
    L_top = cn._Pruning.EXACT + 4
    m = np.zeros((L_top, 4, 2))
    for r in range(1, cn._Pruning.EXACT + 1):
        letters = cn.decode_words(2, r, 0, gr.stratum_size(2, r))
        mu = np.column_stack([cn.cartan_chunk(*cn.evaluate_chunk(letters, *f)) for f in images])
        m[r] = [mu[letters[:, 0] == b].min(axis=0) for b in range(4)]
    for r in range(cn._Pruning.EXACT + 1, L_top):
        low = m[r - 1 : 0 : -1].min(axis=1)
        m[r] = np.max(m[1:r] + low[:, None], axis=0) - tables.max(axis=(0, 1))
    slack = np.min(m[:, None] - tables[None], axis=2)
    gens = cn.decode_words(2, 1, 0, 4)
    for jordan in (False, True):
        evals = [cn.evaluate_chunk(gens, *f) for f in images]
        one = [cn.jordan_chunk(P, S, c)[0] if jordan else cn.cartan_chunk(P, S) for (P, S), c in zip(evals, fields)]
        c1 = float(np.min(np.sqrt(np.sum(np.column_stack(one) ** 2, axis=1))))
        for L_max in (2, 5, cn._Pruning.EXACT + 1, L_top):
            bound = cn._Pruning.of(mixed_pair, (), np.array([1.0]), L_max, images, jordan=jordan)
            assert np.array_equal(bound.slack.view(np.uint8), slack[:L_max].view(np.uint8)), (jordan, L_max)
            scale = 1.0 + bound.MARGIN
            assert bound.norm2 == [(n * c1 * scale + bound.MARGIN) ** 2 for n in range(L_max + 1)]


# ---------------------------------------------------------------------------
# the command line: artifacts and the MANIFEST profile block

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
CARTAN_TUBE = {
    "kind": "census-cartan",
    "representation": {"factors": [
        {"builder": "schottky_pair", "stretch": 3, "separation": 3, "field": "complex", "twist": 0.9},
        {"builder": "schottky_pair", "stretch": 5, "separation": 3},
    ]},
    "region": {"type": "tube", "direction": [0.6, 0.8], "epsilon": 1.1},
    "t_grid": {"t_min": 3.013, "t_max": 26.0, "step": 0.7},
    "L_max": 7,
}


def _cli_run(tmp_path, name, doc, workers=1, dump=False):
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / f"{name}-{workers}-{dump}"
    argv = [doc["kind"], "--config", str(cfg), "--out", str(out), "--workers", str(workers)]
    assert cli.main(argv + (["--dump-spectra"] if dump else [])) == 0
    manifest = json.loads((out / "MANIFEST.json").read_text())
    manifest.pop("wall_time_s")
    artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".csv", ".dat")}
    return artifacts, manifest


def _shrunk(path):
    """A config of the repository at L_max 11 at most, for test time."""
    doc = json.loads(path.read_text())
    if "L_max" in doc:
        doc["L_max"] = min(doc["L_max"], 11)
    return doc


def test_config_artifacts_equal_unpruned(tmp_path, monkeypatch):
    docs = {p.stem: _shrunk(p) for p in CONFIGS}
    runs = {name: _cli_run(tmp_path / "pruned", name, doc) for name, doc in docs.items()}
    runs["dump"] = _cli_run(tmp_path / "pruned", "dump", CARTAN_TUBE, dump=True)
    _unpruned(monkeypatch)
    for name, doc in list(docs.items()) + [("dump", CARTAN_TUBE)]:
        artifacts, manifest = _cli_run(tmp_path / "full", name, doc, dump=name == "dump")
        assert artifacts == runs[name][0], name
        want = {k: v for k, v in runs[name][1].items() if k != "profile"}
        assert {k: v for k, v in manifest.items() if k != "profile"} == want, name
        if "profile" in manifest:
            pruned = runs[name][1]["profile"]
            assert manifest["profile"].keys() == pruned.keys(), name
            for key in ("cartan_leaves", "class_leaves"):
                assert manifest["profile"].get(key, 0) >= pruned.get(key, 0), name
    assert "spectra.csv" in runs["dump"][0]


def test_manifest_profile_block(tmp_path):
    doc = dict(CARTAN_TUBE, L_max=9)
    manifests = [_cli_run(tmp_path, "cc", doc, workers=w)[1] for w in (1, 2)]
    profile = manifests[0]["profile"]
    assert manifests[1]["profile"] == profile
    rep = cli.parse_representation(doc["representation"], tmp_path)
    assert profile["defect_constants"] == [rp.defect_constant(f) for f in rep.factors]
    assert 0 < profile["cartan_leaves"] < gr.total_words(2, 9)
    # a dump run's census is pruned like any other; a Jordan census walks
    # classes, not words
    assert _cli_run(tmp_path, "cc", doc, dump=True)[1]["profile"] == profile
    jordan = dict(doc, kind="census-jordan")
    profiles = [_cli_run(tmp_path, "cj", jordan, workers=w)[1]["profile"] for w in (1, 2)]
    assert profiles[1] == profiles[0] and "cartan_leaves" not in profiles[0]
    assert profiles[0]["defect_constants"] == profile["defect_constants"]
    assert 0 < profiles[0]["class_leaves"] < _classes(9)
    assert _cli_run(tmp_path, "cj", jordan, dump=True)[1]["profile"] == profiles[0]


# ---------------------------------------------------------------------------
# the factor fits' cut grid

FACTOR_GRIDS = {
    "ends low": np.arange(1.017, 8.0, 0.5),  # below c1 (L_max - 2) from L_max 6 on
    "starts high": np.arange(30.017, 40.0, 0.5),  # above it up to L_max 10
    "fine": np.arange(0.013, 40.0, 0.1),
    "correlate": cli.parse_grid({"t_min": 2.037, "t_max": 40.0, "step": 0.5}),
}


def _outcome(call):
    """call()'s result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@pytest.mark.parametrize("L_max", [1, 2, 3, 5, 8, 10])
@pytest.mark.parametrize("name,index", [("two_factor_rep", 0), ("two_factor_rep", 1), ("complex_pair", 0)])
def test_factor_fit_equals_fit_of_whole_grid(request, name, index, L_max):
    rep = request.getfixturevalue(name)
    sub = rp.Representation(k=rep.k, factors=(rep.factors[index],))
    bound = cn._generator_norm(sub, cn._factor_images(sub)) * 8
    assert FACTOR_GRIDS["ends low"][-1] < bound < FACTOR_GRIDS["starts high"][0]
    ray = cn.CoordinateRayFamily(0, 1)
    for label, grid in FACTOR_GRIDS.items():
        for workers in (1, 3):
            got = _outcome(lambda: ft.factor_critical_exponent(rep, index, grid, L_max, workers=workers))
            want = _outcome(
                lambda: ft.fit_growth(cn.census_cartan(sub, ray, grid, L_max, workers=workers), fix_alpha=0.0)
            )
            assert got == want, (label, workers)


def test_factor_fit_refuses_an_unsorted_grid(real_pair):
    # cut after its first point above c1 (L_max - 2), this grid would be sorted
    with pytest.raises(ValueError, match="strictly increasing"):
        ft.factor_critical_exponent(real_pair, 0, [1.0, 50.0, 3.0], 8)


def test_correlate_factor_walks_stop_at_the_fit_horizon(tmp_path):
    doc = dict(json.loads((CONFIGS[0].parent / "correlate_pair.json").read_text()), L_max=10)
    manifest = _cli_run(tmp_path, "co", doc)[1]
    rep = cli.parse_representation(doc["representation"], tmp_path)
    whole = {}
    grid = cli.parse_grid(doc["factor_t_grid"])
    for factor in rep.factors:
        sub = rp.Representation(k=rep.k, factors=(factor,))
        cn.census_cartan(sub, cn.CoordinateRayFamily(0, 1), grid, 10, profile=whole)
    assert 0 < manifest["profile"]["cartan_leaves"] < whole["cartan_leaves"] / 10
