import json
import math

import numpy as np
import pytest

import mpmath

from spectra_census import algebra as al
from spectra_census import cli
from spectra_census import group as gr
from spectra_census import reps as rp
from conftest import random_reduced_word


def test_schottky_pair_valid():
    rep = rp.schottky_pair(4.0, 3.0)
    report = rp.validate_ping_pong(rep)
    assert report.passed
    assert report.margin > 0


def test_schottky_pair_overlapping_fails():
    with pytest.raises(rp.PingPongFailure):
        rp.schottky_pair(4.0, 0.01)


def test_schottky_pair_complex_twist():
    rep = rp.schottky_pair(3.0, 3.0, "complex", twist=0.7)
    for g in rep.factors[0].generators:
        assert al.holonomy_angle(g) == pytest.approx(0.7, abs=1e-12)


def test_schottky_pair_rejects_twist_on_real():
    with pytest.raises(ValueError):
        rp.schottky_pair(3.0, 3.0, "real", twist=0.4)


def test_validate_same_axis_fails():
    g = rp.schottky_pair(4.0, 3.0).factors[0].generators[0]
    g2 = al.mul(g, g)
    rep = rp.Representation(k=2, factors=(rp.Factor("real", (g, g2)),))
    report = rp.validate_ping_pong(rep)
    assert not report.passed


def test_validate_identity_generator_never_passes():
    rep = rp.Representation(
        k=2, factors=(rp.Factor("real", (al.identity(), al.identity())),)
    )
    try:
        report = rp.validate_ping_pong(rep)
    except rp.NotApplicable:
        return
    assert not report.passed


def test_load_round_trip(real_pair):
    rng = np.random.default_rng(21)
    doc = rp.to_document(real_pair)
    # survives JSON serialization
    reloaded = rp.load_representation(json.loads(json.dumps(doc)))
    for _ in range(100):
        w = random_reduced_word(rng, 2, int(rng.integers(1, 9)))
        a = rp.mu_vector(real_pair, w).coords
        b = rp.mu_vector(reloaded, w).coords
        assert a == pytest.approx(b, rel=1e-12)


def test_load_not_unimodular():
    doc = {
        "rank": 1,
        "factors": [
            {"field": "real", "generators": [[[1.01, 0], [0, 0], [0, 0], [1.0, 0]]]}
        ],
    }
    with pytest.raises(rp.NotUnimodular) as err:
        rp.load_representation(doc)
    assert err.value.factor == 0
    assert err.value.generator == 0


def test_load_schema_errors():
    with pytest.raises(rp.SchemaError):
        rp.load_representation({"factors": []})
    with pytest.raises(rp.SchemaError):
        rp.load_representation({"rank": 2, "factors": [{"field": "real", "generators": []}]})
    with pytest.raises(rp.SchemaError):
        rp.load_representation(
            {"rank": 1, "factors": [{"field": "real", "generators": [[[1, 0.5], [0, 0], [0, 0], [1, 0]]]}]}
        )


def test_evaluate_homomorphism(real_pair):
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = random_reduced_word(rng, 2, int(rng.integers(1, 6)))
        b = random_reduced_word(rng, 2, int(rng.integers(1, 6)))
        if a.letters[-1] == -b.letters[0]:
            continue
        whole = rp.evaluate(real_pair, gr.concat(a, b)).matrices[0]
        split = al.mul(rp.evaluate(real_pair, a).matrices[0], rp.evaluate(real_pair, b).matrices[0])
        assert np.allclose(whole.entries, split.entries, rtol=1e-12, atol=1e-14)
        assert whole.log_scale == pytest.approx(split.log_scale, rel=1e-12)


def test_evaluate_against_mpmath_oracle():
    rep = rp.schottky_pair(3.0, 3.0)
    rng = np.random.default_rng(17)
    with mpmath.workdps(60):
        mats = []
        for g in rep.factors[0].generators:
            true = g.true_matrix()
            mats.append(mpmath.matrix([[true[0, 0], true[0, 1]], [true[1, 0], true[1, 1]]]))
        inv = [m**-1 for m in mats]
        w = random_reduced_word(rng, 2, 30)
        exact = mpmath.eye(2)
        for l in w.letters:
            exact = exact * (mats[abs(l) - 1] if l > 0 else inv[abs(l) - 1])
        got = rp.evaluate(rep, w).matrices[0]
        scale = mpmath.exp(got.log_scale)
        norm = max(abs(exact[i, j]) for i in range(2) for j in range(2))
        for i in range(2):
            for j in range(2):
                approx = scale * got.entries[i, j]
                assert abs(approx - exact[i, j]) / norm < 1e-9


def test_lambda_vector_rotation_invariance(two_factor_rep):
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 1000:
        w = random_reduced_word(rng, 2, int(rng.integers(2, 9)))
        if not gr.is_cyclically_reduced(w):
            continue
        checked += 1
        c = gr.canonical_rep(w)
        base = rp.lambda_vector(two_factor_rep, c)
        i = int(rng.integers(c.length))
        rotated = gr.CyclicWord(c.letters[i:] + c.letters[:i], c.period)
        rot = rp.lambda_vector(two_factor_rep, rotated)
        assert rot.coords == pytest.approx(base.coords, rel=1e-9)


def test_lambda_power_rule(two_factor_rep):
    c = gr.canonical_rep(gr.Word((1, 2)))
    base = rp.lambda_vector(two_factor_rep, c)
    for m in (2, 3, 4, 5):
        powered = gr.CyclicWord(c.letters * m, c.period)
        got = rp.lambda_vector(two_factor_rep, powered)
        assert got.coords == pytest.approx(tuple(m * x for x in base.coords), rel=1e-8)


def test_lambda_single_generator(real_pair):
    lv = rp.lambda_vector(real_pair, gr.CyclicWord((1,), 1))
    assert lv.coords == pytest.approx((2 * math.log(3.0),), rel=1e-12)


def test_mu_dominates_lambda(two_factor_rep):
    rng = np.random.default_rng(14)
    for _ in range(150):
        w = random_reduced_word(rng, 2, int(rng.integers(1, 8)))
        mu = rp.mu_vector(two_factor_rep, w).coords
        core, _ = gr.cyclic_reduce(w)
        lam = rp.lambda_vector(two_factor_rep, gr.canonical_rep(core)).coords
        for m, l in zip(mu, lam):
            assert m >= l - 1e-9


def test_mu_inverse_invariance(two_factor_rep):
    rng = np.random.default_rng(15)
    for _ in range(100):
        w = random_reduced_word(rng, 2, int(rng.integers(1, 9)))
        a = rp.mu_vector(two_factor_rep, w).coords
        b = rp.mu_vector(two_factor_rep, gr.word_inverse(w)).coords
        assert a == pytest.approx(b, rel=1e-9)


def test_mu_diag_generator(real_pair):
    assert rp.mu_vector(real_pair, gr.Word((1,))).coords == pytest.approx(
        (2 * math.log(3.0),), rel=1e-12
    )


def test_anosov_linear_growth(real_pair):
    # displacement grows at least linearly in word length for a certified pair
    from spectra_census import census as cn

    worst = math.inf
    for letters, mu in cn.iter_word_chunks(real_pair, 10):
        worst = min(worst, float(np.min(mu[:, 0] / letters.shape[1])))
    assert worst > 0.3


def test_detect_dependence_self_pair(real_pair):
    pair = rp.join(real_pair, real_pair)
    report = rp.detect_dependence(pair, 6)
    assert report.dependent
    assert report.rank == 1
    assert report.m_hat == pytest.approx(1.0, abs=1e-12)
    assert report.M_hat == pytest.approx(1.0, abs=1e-12)


def test_detect_dependence_conjugate_pair(real_pair):
    th = 0.5
    h = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
    conj = rp.Representation(k=2, factors=(rp.conjugate_factor(real_pair.factors[0], h),))
    pair = rp.join(real_pair, conj)
    report = rp.detect_dependence(pair, 6)
    assert report.dependent
    assert report.rank == 1


def test_detect_dependence_independent_swapped_stretches():
    # factor 1: stretches (3 on a, 5 on b); factor 2: roles swapped
    f1 = _mixed_factor(3.0, 5.0)
    f2 = _mixed_factor(5.0, 3.0)
    pair = rp.Representation(k=2, factors=(f1, f2))
    report = rp.detect_dependence(pair, 8)
    assert not report.dependent
    assert report.rank == 2
    assert report.m_hat < 1.0 < report.M_hat


def _mixed_factor(stretch_a: float, stretch_b: float) -> rp.Factor:
    c, s = math.cosh(1.5), math.sinh(1.5)
    h = np.array([[c, s], [s, c]])
    hinv = np.array([[c, -s], [-s, c]])
    g1 = np.array([[stretch_a, 0.0], [0.0, 1.0 / stretch_a]])
    g2 = h @ np.array([[stretch_b, 0.0], [0.0, 1.0 / stretch_b]]) @ hinv
    return rp.Factor("real", (al.from_raw(g1), al.from_raw(g2)))


def test_detect_dependence_insufficient_data(real_pair):
    pair = rp.join(real_pair, real_pair)
    with pytest.raises(rp.InsufficientData):
        rp.detect_dependence(pair, 1, tol=1e-6)


def _scalar_dependence(rep, L_probe, tol=rp.DEFAULT_DEPENDENCE_TOL):
    """Reference probe on the scalar enumerator and lambda_vector."""
    classes = list(gr.enumerate_conjugacy_classes(rep.k, L_probe))
    lam = np.array([rp.lambda_vector(rep, c).coords for c in classes])
    sv = np.linalg.svd(lam, compute_uv=False)
    rank = int(np.sum(sv > tol * sv[0]))
    ratios = lam[:, 1] / lam[:, 0]
    return len(classes), rank, float(ratios.min()), float(ratios.max()), sv


def _probe_pairs():
    base = rp.schottky_pair(3.0, 3.0)
    th = 0.5
    h = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
    conj = rp.Representation(k=2, factors=(rp.conjugate_factor(base.factors[0], h),))
    swapped = rp.Representation(k=2, factors=(_mixed_factor(3.0, 5.0), _mixed_factor(5.0, 3.0)))
    return {
        "self": (rp.join(base, base), 6),
        "conjugate": (rp.join(base, conj), 6),
        "swapped": (swapped, 6),
        "a4": (rp.join(base, rp.schottky_pair(5.0, 3.0)), 8),
    }


@pytest.mark.parametrize("name", ["self", "conjugate", "swapped", "a4"])
def test_detect_dependence_matches_scalar_reference(name):
    rep, L_probe = _probe_pairs()[name]
    report = rp.detect_dependence(rep, L_probe)
    n, rank, m_hat, M_hat, sv = _scalar_dependence(rep, L_probe)
    assert report.n_classes == n
    assert report.rank == rank
    assert report.dependent == (rank < 2)
    assert (report.m_hat, report.M_hat) == (m_hat, M_hat)
    np.testing.assert_allclose(report.singular_values, sv, rtol=1e-12, atol=0.0)


def test_detect_dependence_runs_without_scalar_engine(monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("scalar engine called at runtime")

    monkeypatch.setattr(rp, "lambda_vector", forbidden)
    monkeypatch.setattr(rp, "evaluate", forbidden)
    monkeypatch.setattr(gr, "enumerate_conjugacy_classes", forbidden)
    rep, L_probe = _probe_pairs()["a4"]
    assert rp.detect_dependence(rep, L_probe).rank == 2
    pair = {"builder": "schottky_pair", "separation": 3, "field": "real"}
    cfg = tmp_path / "corr.json"
    cfg.write_text(json.dumps({
        "representation": {"factors": [dict(pair, stretch=3), dict(pair, stretch=5)]},
        "direction": "auto",
        "widths": [1.5, 1.5],
        "t_grid": {"t_min": 3.0, "t_max": 20.0, "step": 0.8},
        "L_max": 7,
        "L_probe": 5,
    }))
    out = tmp_path / "out"
    assert cli.main(["correlate", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "MANIFEST.json").read_text())["dependence"]["rank"] == 2


def test_detect_dependence_rejects_bad_depth_and_rank(real_pair):
    with pytest.raises(ValueError):
        rp.detect_dependence(rp.join(real_pair, real_pair), 0)
    g = real_pair.factors[0].generators[0]
    rank_one = rp.Representation(k=1, factors=(rp.Factor("real", (g,)),) * 2)
    with pytest.raises(ValueError):
        rp.detect_dependence(rank_one, 4)
