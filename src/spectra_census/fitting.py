"""Growth-law regression and quantitative diagnostics.

Fits log N(T) = delta*T - alpha*log T + log c on trusted count series,
estimates per-factor critical exponents and direction-dependent growth
rates via shrinking-aperture ladders, and checks the correlation-rate
upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import regions
from .census import (
    KIND_CARTAN,
    KIND_JORDAN,
    ApertureLadderFamily,
    CoordinateRayFamily,
    CountSeries,
    census_cartan,
    _horizon_grid,
    _series,
)
from .errors import SpectraCensusError
from .reps import Representation

NEG_INF = float("-inf")

LADDER_SOURCES = ("cartan-tube", "jordan-tube", "jordan-cone")


class EmptyWindow(SpectraCensusError):
    """No grid points inside the fit window."""


class ZeroCounts(SpectraCensusError):
    """A grid point in the fit window has count zero."""


class IllConditioned(SpectraCensusError):
    """Too few points or a degenerate design matrix for the requested fit."""


class UntrustedWindow(SpectraCensusError):
    """No trusted T-range supports a fit."""


class DivisionByZeroCount(SpectraCensusError):
    """Ratio requested where the denominator series vanishes."""


@dataclass(frozen=True)
class FitResult:
    delta_hat: float
    alpha_hat: float
    log_c_hat: float
    window: Tuple[float, float]
    rms_residual: float
    n_points: int


@dataclass(frozen=True)
class LadderResult:
    epsilons: Tuple[float, ...]
    delta_hats: Tuple[float, ...]
    extrapolated: float
    source: str
    direction: Tuple[float, ...]
    t_trust: float
    c_min_hat: float


@dataclass(frozen=True)
class BoundReport:
    delta_hat: float
    factor_deltas: Tuple[float, ...]
    direction: Tuple[float, ...]
    slack_min_bound: float
    slack_mean_bound: Optional[float]
    tol: float
    pass_min_bound: bool
    pass_mean_bound: Optional[bool]


@dataclass(frozen=True)
class RatioReport:
    slope: float
    intercept: float
    r_squared: float
    window: Tuple[float, float]
    n_points: int


def trusted_window(t_trust: float, window: Optional[Tuple[float, float]] = None) -> Tuple[float, float]:
    """The one trusted-window rule: [t_trust/2, t_trust] by default (below half-horizon,
    preasymptotics dominate), else window as floats, UntrustedWindow unless it ends
    at or below t_trust + 1e-9."""
    if window is None:
        return 0.5 * t_trust, t_trust
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_hi <= t_trust + 1e-9:
        raise UntrustedWindow(f"fit window [{t_lo}, {t_hi}] exceeds the trusted horizon {t_trust:.6g}")
    return t_lo, t_hi


def default_window(series: CountSeries) -> Tuple[float, float]:
    """trusted_window's default for the series: [T_trust/2, T_trust]."""
    return trusted_window(series.t_trust)


def restrict_to_positive(series: CountSeries) -> CountSeries:
    """Subgrid of strictly positive cells.

    Moving-box counts at desk scale are lumpy (strata of the free group
    populate the spectrum in clusters), so rate fits run on the populated
    cells; log 0 has no place in the regression either way.
    """
    kept = [(t, c) for t, c in zip(series.t_grid, series.counts) if c > 0]
    if not kept:
        raise EmptyWindow("series has no positive cells")
    return replace(series, t_grid=tuple(t for t, _ in kept), counts=tuple(c for _, c in kept))


def fit_growth(
    series: CountSeries,
    window: Optional[Tuple[float, float]] = None,
    fix_alpha: Optional[float] = None,
) -> FitResult:
    """Least squares for log N = delta*T - alpha*log(T) + log c on the window.

    With fix_alpha given only (delta, log c) are fitted, which is the robust
    mode on short windows where log T is nearly collinear with the constant.
    The window is trusted_window's, under the series' t_trust.
    """
    t_lo, t_hi = trusted_window(series.t_trust, window)
    grid = np.asarray(series.t_grid)
    counts = np.asarray(series.counts)
    mask = (grid >= t_lo) & (grid <= t_hi)
    if not mask.any():
        raise EmptyWindow(f"no grid points in [{t_lo}, {t_hi}]")
    if np.any(counts[mask] <= 0):
        raise ZeroCounts("window contains zero counts; shrink the window or widen the region")
    t = grid[mask]
    y = np.log(counts[mask].astype(float))
    n = t.size
    need = 3 if fix_alpha is not None else 4
    if n < need:
        raise IllConditioned(f"{n} points; need at least {need}")
    if fix_alpha is not None:
        design = np.column_stack([t, np.ones_like(t)])
        target = y + fix_alpha * np.log(t)
    else:
        design = np.column_stack([t, -np.log(t), np.ones_like(t)])
        target = y
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise IllConditioned("degenerate design matrix on this window")
    resid = target - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    if fix_alpha is not None:
        delta, log_c = coef
        alpha = float(fix_alpha)
    else:
        delta, alpha, log_c = coef
    return FitResult(
        delta_hat=float(delta),
        alpha_hat=float(alpha),
        log_c_hat=float(log_c),
        window=(t_lo, t_hi),
        rms_residual=rms,
        n_points=int(n),
    )


# ---------------------------------------------------------------------------
# growth-indicator ladder


def growth_indicator_ladder(
    rep: Representation,
    direction: Sequence[float],
    epsilons: Sequence[float],
    t_grid,
    L_max: int,
    source: str,
    workers: int = 1,
    force: bool = False,
    profile: Optional[dict] = None,
) -> LadderResult:
    """Fitted growth rates in shrinking tubes/cones around a direction.

    One census walk, sharded over workers, counts every aperture as one
    row of an ApertureLadderFamily.  Each row is fitted with alpha fixed to
    0 (pure rate extraction); the extrapolated value is the median of the
    last two finite rates.  Directions outside the spectrum cone produce
    empty censuses and the -inf sentinel.  When profile is given, a
    cartan-tube walk adds its evaluated words to profile["cartan_leaves"],
    and a Jordan walk its evaluated classes to profile["class_leaves"].
    """
    if source not in LADDER_SOURCES:
        raise ValueError(f"source must be one of {LADDER_SOURCES}")
    eps = [float(e) for e in epsilons]
    if not (eps and all(a > b for a, b in zip(eps, eps[1:])) and eps[-1] > 0.0):
        raise ValueError("epsilons must be positive and strictly decreasing")
    v = regions.unit(direction)
    spec = regions.ConeSpec if source == "jordan-cone" else regions.TubeSpec
    family = ApertureLadderFamily([spec(v, e) for e in eps])
    kind = KIND_CARTAN if source == "cartan-tube" else KIND_JORDAN
    first, part = _series(rep, kind, family, t_grid, L_max, workers, force, profile=profile)
    deltas: List[float] = []
    for e, counts in zip(eps, part.counts):
        if counts[-1] == 0:
            deltas.append(NEG_INF)
            continue
        series = replace(first, counts=counts, region=f"{source}[eps={e:.6g}]")
        try:
            deltas.append(fit_growth(series, fix_alpha=0.0).delta_hat)
        except (EmptyWindow, ZeroCounts, IllConditioned) as exc:
            raise UntrustedWindow(
                f"{source} at aperture {e:.6g}: no trusted T-range supports a fit ({exc})"
            ) from None
    last = [d for d in deltas if d != NEG_INF][-2:]
    return LadderResult(
        epsilons=tuple(eps),
        delta_hats=tuple(deltas),
        extrapolated=sum(last) / len(last) if last else NEG_INF,
        source=source,
        direction=v,
        t_trust=first.t_trust,
        c_min_hat=first.c_min_hat,
    )


def factor_critical_exponent(
    rep: Representation,
    factor_index: int,
    t_grid,
    L_max: int,
    workers: int = 1,
    force: bool = False,
    profile: Optional[dict] = None,
) -> FitResult:
    """Critical exponent of one factor from rank-one displacement counting,
    fitted on the default window [T_trust/2, T_trust].

    The fit reads no count beyond T_trust, so the census counts the grid
    census._horizon_grid cuts at the largest T_trust the walk can reach.

    The walk adds its evaluated words to profile["cartan_leaves"], when
    profile is given."""
    if not 0 <= factor_index < rep.d:
        raise ValueError("factor index out of range")
    # the displacement coordinate only involves its own factor
    sub = Representation(k=rep.k, factors=(rep.factors[factor_index],))
    family = CoordinateRayFamily(0, 1)
    grid = _horizon_grid(sub, t_grid, L_max)
    series = census_cartan(sub, family, grid, L_max, workers=workers, force=force, profile=profile)
    return fit_growth(series, fix_alpha=0.0)


def check_correlation_bounds(
    delta_rho_v: float,
    factor_deltas: Sequence[float],
    direction: Sequence[float],
    tol: float = 0.1,
) -> BoundReport:
    """Slack of the correlation rate against min_i(delta_i v_i) and the strict mean bound."""
    deltas = tuple(float(x) for x in factor_deltas)
    v = tuple(float(x) for x in direction)
    if len(deltas) != len(v):
        raise ValueError("factor_deltas and direction lengths differ")
    if not all(math.isfinite(x) for x in deltas + v + (delta_rho_v,)):
        raise ValueError("bounds need finite inputs")
    products = [d * x for d, x in zip(deltas, v)]
    slack_min = min(products) - delta_rho_v
    d = len(deltas)
    slack_mean = (sum(products) / d - delta_rho_v) if d >= 2 else None
    return BoundReport(
        delta_hat=float(delta_rho_v),
        factor_deltas=deltas,
        direction=v,
        slack_min_bound=float(slack_min),
        slack_mean_bound=None if slack_mean is None else float(slack_mean),
        tol=float(tol),
        pass_min_bound=slack_min >= -tol,
        pass_mean_bound=None if slack_mean is None else slack_mean >= -tol,
    )


def jordan_cartan_ratio(
    cartan: CountSeries,
    jordan: CountSeries,
    window: Optional[Tuple[float, float]] = None,
) -> RatioReport:
    """Linear fit of the pointwise count ratio N_cartan / N_jordan over T,
    on trusted_window's window under the smaller of the two horizons."""
    if cartan.t_grid != jordan.t_grid:
        raise ValueError("series must share the t_grid")
    if cartan.region != jordan.region:
        raise ValueError("series must share the region")
    t_lo, t_hi = trusted_window(min(cartan.t_trust, jordan.t_trust), window)
    grid = np.asarray(cartan.t_grid)
    mask = (grid >= t_lo) & (grid <= t_hi)
    if not mask.any():
        raise EmptyWindow(f"no grid points in [{t_lo}, {t_hi}]")
    nc = np.asarray(cartan.counts, dtype=float)[mask]
    nj = np.asarray(jordan.counts, dtype=float)[mask]
    if np.any(nj <= 0) or np.any(nc <= 0):
        raise DivisionByZeroCount("both series must be positive on the window")
    t = grid[mask]
    r = nc / nj
    design = np.column_stack([t, np.ones_like(t)])
    coef, _, _, _ = np.linalg.lstsq(design, r, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((r - fitted) ** 2))
    ss_tot = float(np.sum((r - r.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RatioReport(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        r_squared=r_squared,
        window=(t_lo, t_hi),
        n_points=int(mask.sum()),
    )
