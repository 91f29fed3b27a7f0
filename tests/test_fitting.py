import math
import tracemalloc

import numpy as np
import pytest

from spectra_census import census as cn
from spectra_census import fitting as ft
from spectra_census import regions as rg
from spectra_census import reps as rp


def synthetic_series(delta, alpha, t_lo=8.0, t_hi=16.0, step=0.5, scale=1.0):
    t = np.arange(t_lo, t_hi + 1e-9, step)
    counts = np.round(scale * np.exp(delta * t) / t**alpha).astype(int)
    return cn.CountSeries(
        t_grid=tuple(t),
        counts=tuple(int(c) for c in counts),
        kind="jordan-classes",
        region="synthetic",
        L_max=0,
        t_trust=float(t[-1]),
        c_min_hat=1.0,
        cumulative=False,
    )


@pytest.mark.parametrize("delta,alpha", [(1.5, 1.5), (2.0, 0.5)])
def test_fit_recovery(delta, alpha):
    series = synthetic_series(delta, alpha)
    fixed = ft.fit_growth(series, window=(8.0, 16.0), fix_alpha=alpha)
    assert fixed.delta_hat == pytest.approx(delta, rel=0.02)
    free = ft.fit_growth(series, window=(8.0, 16.0))
    assert free.alpha_hat == pytest.approx(alpha, abs=0.3)
    assert free.delta_hat == pytest.approx(delta, rel=0.02)


def test_fit_pure_exponential_and_flat():
    series = synthetic_series(1.0, 0.0)
    fit = ft.fit_growth(series, window=(8.0, 16.0), fix_alpha=0.0)
    assert fit.delta_hat == pytest.approx(1.0, abs=0.01)
    t = np.arange(4.0, 12.1, 0.5)
    flat = cn.CountSeries(
        tuple(t), tuple([7] * t.size), "jordan-classes", "flat", 0, float(t[-1]), 1.0, False
    )
    fit = ft.fit_growth(flat, window=(4.0, 12.0), fix_alpha=0.0)
    assert fit.delta_hat == pytest.approx(0.0, abs=0.01)


def test_fit_scale_consistency():
    base = ft.fit_growth(synthetic_series(1.2, 1.0), window=(8.0, 16.0))
    scaled = ft.fit_growth(synthetic_series(1.2, 1.0, scale=37.0), window=(8.0, 16.0))
    assert scaled.delta_hat == pytest.approx(base.delta_hat, abs=1e-3)
    assert scaled.alpha_hat == pytest.approx(base.alpha_hat, abs=2e-2)
    assert scaled.log_c_hat - base.log_c_hat == pytest.approx(math.log(37.0), abs=1e-2)


def test_fit_errors():
    series = synthetic_series(1.0, 0.0)
    with pytest.raises(ft.EmptyWindow):
        ft.fit_growth(series, window=(1.0, 2.0))
    with pytest.raises(ft.UntrustedWindow):
        ft.fit_growth(series, window=(8.0, 20.0))
    t = (8.0, 9.0, 10.0, 11.0)
    zeros = cn.CountSeries(t, (1, 0, 2, 3), "jordan-classes", "z", 0, 11.0, 1.0, False)
    with pytest.raises(ft.ZeroCounts):
        ft.fit_growth(zeros, window=(8.0, 11.0))
    short = cn.CountSeries(t[:2], (3, 5), "jordan-classes", "s", 0, 9.0, 1.0, False)
    with pytest.raises(ft.IllConditioned):
        ft.fit_growth(short, window=(8.0, 9.0), fix_alpha=0.0)


def test_default_window_is_upper_half_of_horizon():
    series = synthetic_series(1.0, 0.0)
    assert ft.default_window(series) == (8.0, 16.0)


def test_bounds_arithmetic():
    v = (1 / math.sqrt(2), 1 / math.sqrt(2))
    report = ft.check_correlation_bounds(0.3, (1.0, 1.0), v)
    expected = 1 / math.sqrt(2) - 0.3
    assert report.slack_min_bound == pytest.approx(expected, rel=1e-12)
    assert report.slack_mean_bound == pytest.approx(expected, rel=1e-12)
    assert report.pass_min_bound and report.pass_mean_bound


def test_bounds_failure_flagged():
    report = ft.check_correlation_bounds(0.9, (1.0, 1.0), (0.6, 0.8), tol=0.05)
    assert report.slack_min_bound < -0.05
    assert not report.pass_min_bound


def test_bounds_d1_has_no_mean_bound():
    report = ft.check_correlation_bounds(0.2, (1.0,), (1.0,))
    assert report.slack_mean_bound is None
    assert report.pass_mean_bound is None


def test_ratio_identical_series():
    series = synthetic_series(1.0, 0.0)
    report = ft.jordan_cartan_ratio(series, series)
    assert report.slope == pytest.approx(0.0, abs=1e-12)
    assert report.intercept == pytest.approx(1.0, rel=1e-12)


def test_ratio_alpha_gap_one_recovers_linear_slope():
    t = np.arange(8.0, 16.01, 0.25)
    nc = np.round(np.exp(t)).astype(int)
    nj = np.round(np.exp(t) / t).astype(int)
    mk = lambda counts: cn.CountSeries(
        tuple(t), tuple(int(c) for c in counts), "k", "r", 0, float(t[-1]), 1.0, True
    )
    report = ft.jordan_cartan_ratio(mk(nc), mk(nj), window=(8.0, 16.0))
    assert report.slope == pytest.approx(1.0, rel=0.05)
    assert report.r_squared > 0.99


def test_ratio_errors():
    series = synthetic_series(1.0, 0.0)
    other = synthetic_series(1.0, 0.0, t_lo=9.0, t_hi=17.0)
    with pytest.raises(ValueError):
        ft.jordan_cartan_ratio(series, other)
    t = (8.0, 9.0, 10.0, 11.0)
    zeros = cn.CountSeries(t, (1, 0, 2, 3), "k", "synthetic", 0, 11.0, 1.0, False)
    with pytest.raises(ft.DivisionByZeroCount):
        ft.jordan_cartan_ratio(synthetic_series(1.0, 0.0, t_lo=8.0, t_hi=11.0, step=1.0), zeros,
                               window=(8.0, 11.0))


def test_ladder_rank_one_epsilon_independent(real_pair):
    grid = np.arange(2.0, 14.0, 0.5) + 0.013
    ladder = ft.growth_indicator_ladder(
        real_pair, (1.0,), [2.0, 1.0, 0.5], grid, 8, "jordan-tube"
    )
    assert len(set(ladder.delta_hats)) == 1
    assert ladder.extrapolated == ladder.delta_hats[-1]
    assert ladder.extrapolated > 0


def test_ladder_off_cone_direction_reports_sentinel(real_pair):
    pair = rp.join(real_pair, real_pair)
    grid = np.arange(2.0, 14.0, 0.5) + 0.013
    ladder = ft.growth_indicator_ladder(
        pair, rg.unit([1.0, 2.0]), [0.4, 0.3], grid, 6, "jordan-tube"
    )
    assert ladder.delta_hats == (float("-inf"), float("-inf"))
    assert ladder.extrapolated == float("-inf")


def test_ladder_validates_arguments(real_pair):
    grid = np.arange(2.0, 10.0, 0.5)
    with pytest.raises(ValueError):
        ft.growth_indicator_ladder(real_pair, (1.0,), [0.5, 0.5], grid, 6, "jordan-tube")
    with pytest.raises(ValueError):
        ft.growth_indicator_ladder(real_pair, (1.0,), [1.0, 0.5], grid, 6, "nope")
    with pytest.raises(ValueError):
        ft.growth_indicator_ladder(real_pair, (1.0,), [2.0, 1.6], grid, 6, "jordan-cone")
    with pytest.raises(ValueError, match="epsilons"):
        ft.growth_indicator_ladder(real_pair, (1.0,), [0.5, -1.0], grid, 6, "cartan-tube")


def test_factor_exponent_combinatorial_oracle():
    # all-letters-stretch model: N(T) = #(words with n <= T / s_len) for the
    # rank-2 free group; the fitted rate must approach log(3) / s_len
    s_len = 2 * math.log(3.0)
    t = np.arange(10.0, 60.0, 1.0)
    counts = []
    for T in t:
        n_max = int(T // s_len)
        counts.append(sum(4 * 3 ** (n - 1) for n in range(1, n_max + 1)))
    series = cn.CountSeries(
        tuple(t), tuple(counts), cn.KIND_CARTAN, "model", 0, float(t[-1]), s_len, True
    )
    fit = ft.fit_growth(series, window=(20.0, 59.0), fix_alpha=0.0)
    assert fit.delta_hat == pytest.approx(math.log(3.0) / s_len, rel=0.1)


def test_factor_exponent_positive_and_conjugation_invariant(real_pair):
    grid = np.arange(2.0, 22.0, 0.5) + 0.017
    base = ft.factor_critical_exponent(real_pair, 0, grid, 9)
    assert base.delta_hat > 0
    th = 0.5
    h = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
    conj = rp.Representation(k=2, factors=(rp.conjugate_factor(real_pair.factors[0], h),))
    moved = ft.factor_critical_exponent(conj, 0, grid, 9)
    assert moved.delta_hat == pytest.approx(base.delta_hat, abs=0.02)


def _tube(v, e):
    return cn.TubeBallFamily(rg.TubeSpec(v, e))


def _cone(v, e):
    return cn.ConeBallFamily(rg.ConeSpec(v, e))


@pytest.mark.parametrize(
    "source, census, family, rep, direction, t_max, epsilons",
    [
        ("jordan-tube", cn.census_jordan, _tube, "real_pair", (1.0,), 14.0, [1.3]),
        ("cartan-tube", cn.census_cartan, _tube, "two_factor_rep", (1.0, 1.4), 24.0, [1.3, 0.6]),
        ("jordan-cone", cn.census_jordan, _cone, "two_factor_rep", (1.0, 1.4), 24.0, [0.03, 0.015]),
    ],
    ids=["jordan-tube", "cartan-tube", "jordan-cone"],
)
def test_ladder_single_aperture_matches_census_fit(
    request, source, census, family, rep, direction, t_max, epsilons
):
    # each rung of a ladder must reproduce the census + fixed-alpha fit at its aperture
    rep = request.getfixturevalue(rep)
    grid = np.arange(2.0, t_max, 0.5) + 0.013
    v = rg.unit(direction)
    ladder = ft.growth_indicator_ladder(rep, v, epsilons, grid, 8, source)
    assert len(set(ladder.delta_hats)) == len(epsilons)
    for eps, delta_hat in zip(epsilons, ladder.delta_hats):
        series = census(rep, family(v, eps), grid, 8)
        fit = ft.fit_growth(series, fix_alpha=0.0)
        assert delta_hat == fit.delta_hat
        assert ladder.t_trust == series.t_trust


@pytest.mark.parametrize("source", ["jordan-tube", "cartan-tube", "jordan-cone"])
def test_ladder_equal_across_workers(two_factor_rep, source):
    grid = np.arange(2.0, 24.0, 0.5) + 0.013
    v = rg.unit((1.0, 1.4))
    epsilons = [0.03, 0.015] if source == "jordan-cone" else [1.3, 0.6]
    ladders = [
        ft.growth_indicator_ladder(two_factor_rep, v, epsilons, grid, 8, source, workers=w)
        for w in (1, 3)
    ]
    assert ladders[0] == ladders[1]


def test_ladder_memory_flat_in_L_max(two_factor_rep):
    # counts accumulate per chunk, so the peak does not grow with the ball
    grid = np.arange(4.037, 47.0, 0.5)
    v = rg.unit((1.0, 1.4))
    peaks = []
    for L_max in (10, 12):
        tracemalloc.start()
        try:
            ft.growth_indicator_ladder(two_factor_rep, v, [1.6, 1.1, 0.8], grid, L_max, "cartan-tube")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_ladder_capacity_checked_before_walk(real_pair):
    grid = np.arange(2.0, 14.0, 0.5) + 0.013
    with pytest.raises(cn.CapacityExceeded, match="int64"):
        ft.growth_indicator_ladder(real_pair, (1.0,), [1.0], grid, 45, "cartan-tube", budget=10**30)
    with pytest.raises(cn.CapacityExceeded):
        ft.growth_indicator_ladder(real_pair, (1.0,), [1.0], grid, 10, "jordan-tube", budget=1000)
