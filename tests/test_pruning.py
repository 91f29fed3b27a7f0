"""The certified quasi-additivity defect (reps.defect_constant) and the Cartan
walk it prunes: the lemma against every split of the short words and against
mpmath on long ones, and every pruned census against the unpruned walk."""

import json
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest

from spectra_census import algebra
from spectra_census import census as cn
from spectra_census import cli
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
    monkeypatch.setattr(cn, "defect_constant", lambda factor: None)


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


def test_block_pruned_to_nothing_is_not_yielded(two_factor_rep):
    # no family and the smallest possible reach: whole strata vanish, and
    # _tally must step over their empty chunks
    images = cn._factor_images(two_factor_rep)
    bound = cn._Pruning.of(two_factor_rep, (), np.array([1.0]), 9, images)
    chunks = list(cn._word_stream(two_factor_rep, 9, chunk=100, reach=((), np.array([1.0]))))
    assert any(len(mu) == 0 for _, _, _, mu, _ in chunks)
    for n in range(2, 10):
        blocks = list(cn._fold_walk(2, n, 0, gr.stratum_size(2, n), images, bound))
        assert all(evals[0][1].size > 0 for evals in blocks)


def test_tally_skips_empty_chunks(two_factor_rep):
    family = cn.TubeBallFamily(rg.TubeSpec(rg.unit([1.0, 1.4]), 1.3))
    grid = np.arange(2.0, 24.0, 0.61) + 0.017
    chunks = [(n, None, mu, None, None) for n, _, _, mu, _ in cn._word_stream(two_factor_rep, 6)]
    empty = (7, None, np.empty((0, 2)), None, None)
    want = cn._tally(two_factor_rep, iter(chunks), (family,), grid, False, None, None)
    got = cn._tally(two_factor_rep, iter([empty] + chunks + [empty]), (family,), grid, False, None, None)
    assert np.array_equal(got.counts, want.counts) and got.c_min == want.c_min


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
            assert manifest["profile"]["cartan_leaves"] >= pruned["cartan_leaves"]
    assert "spectra.csv" in runs["dump"][0]


def test_manifest_profile_block(tmp_path):
    doc = dict(CARTAN_TUBE, L_max=9)
    manifests = [_cli_run(tmp_path, "cc", doc, workers=w)[1] for w in (1, 2)]
    profile = manifests[0]["profile"]
    assert manifests[1]["profile"] == profile
    rep = cli.parse_representation(doc["representation"], tmp_path)
    assert profile["defect_constants"] == [rp.defect_constant(f) for f in rep.factors]
    assert 0 < profile["cartan_leaves"] < gr.total_words(2, 9)
    # a dump walks every word; a Jordan census walks none
    assert _cli_run(tmp_path, "cc", doc, dump=True)[1]["profile"]["cartan_leaves"] == gr.total_words(2, 9)
    jordan = dict(doc, kind="census-jordan", L_max=6)
    assert "profile" not in _cli_run(tmp_path, "cj", jordan)[1]
