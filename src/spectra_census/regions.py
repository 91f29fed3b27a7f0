"""Membership geometry in the positive chamber of R^d.

Tubes and boxes are closed, cones are open; boundary ties therefore count
for tubes and boxes and not for cones.  All norms are Euclidean.

The region specs and their scalar membership tests come first, then the
region families the censuses count with: each classifies an (m, d) chunk
of spectrum vectors against a T-grid at once.  A tube or cone ball is the
one-rung ladder, so both regions have one implementation,
ApertureLadderFamily.count_grid.  A family's reach(t_max) is the pair
(axis, R): it counts no vector whose norm (axis "norm") or coordinate axis
exceeds R at any grid T up to t_max.  A family without one (the truncated
tube) has no finite reach, and no walk is pruned for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import SpectraCensusError

UNIT_TOL = 1e-12


class DimensionMismatch(SpectraCensusError):
    """Point dimension differs from the region's."""


def _as_unit(direction: Sequence[float], positive: bool = True) -> Tuple[float, ...]:
    v = np.asarray(direction, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("direction must be a 1-d vector")
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= UNIT_TOL:
        raise ValueError(f"direction must be a unit vector (norm {nrm!r})")
    if positive and not np.all(v > 0.0):
        raise ValueError("direction must have strictly positive coordinates")
    return tuple(float(x) for x in v)


def unit(direction: Sequence[float]) -> Tuple[float, ...]:
    """Normalize a direction vector to unit length."""
    v = np.asarray(direction, dtype=float)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return tuple(float(x) for x in v / nrm)


def _box_sides(direction: Sequence[float], widths: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """The one box rule: direction and widths as float arrays, or ValueError
    unless both are 1-d, of one length, finite and positive."""
    v, w = np.asarray(direction, dtype=float), np.asarray(widths, dtype=float)
    if not (v.ndim == 1 and v.shape == w.shape
            and np.all((v > 0.0) & (v < math.inf)) and np.all((w > 0.0) & (w < math.inf))):
        raise ValueError("direction and widths must be 1-d, of one length, finite and positive")
    return v, w


def _check_point(x, d: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (d,):
        raise DimensionMismatch(f"point has shape {arr.shape}, region lives in R^{d}")
    return arr


class _Spec:
    """A region spec of R^d, d the length of its direction."""

    @property
    def d(self) -> int:
        return len(self.direction)


@dataclass(frozen=True)
class TubeSpec(_Spec):
    """Closed epsilon-neighborhood of the line R*v, shifted by offset, inside R_+^d."""

    direction: Tuple[float, ...]
    epsilon: float
    offset: Tuple[float, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "direction", _as_unit(self.direction))
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        off = self.offset
        if off is None:
            off = (0.0,) * len(self.direction)
        off = tuple(float(x) for x in off)
        if len(off) != len(self.direction):
            raise ValueError("offset dimension differs from direction")
        object.__setattr__(self, "offset", off)


@dataclass(frozen=True)
class ConeSpec(_Spec):
    """Open cone of half-angle theta around the ray R_+ v, inside R_+^d."""

    direction: Tuple[float, ...]
    half_angle: float

    def __post_init__(self):
        object.__setattr__(self, "direction", _as_unit(self.direction))
        if not 0.0 < self.half_angle < math.pi / 2:
            raise ValueError("half_angle must lie in (0, pi/2)")


@dataclass(frozen=True)
class BoxWindow(_Spec):
    """Moving box prod_i [v_i T, v_i T + eps_i]; closed on both sides.
    direction and widths must pass _box_sides, and time be nonnegative."""

    direction: Tuple[float, ...]
    widths: Tuple[float, ...]
    time: float

    def __post_init__(self):
        v, w = _box_sides(self.direction, self.widths)
        if not self.time >= 0.0:
            raise ValueError("time must be nonnegative")
        object.__setattr__(self, "direction", tuple(v.tolist()))
        object.__setattr__(self, "widths", tuple(w.tolist()))


@dataclass(frozen=True)
class TruncatedTubeSpec(_Spec):
    """Tube slab {t v + u : u in K, 0 <= t <= T + b(u)} inside R_+^d.

    K is an axis-aligned box in the orthocomplement of v, described by an
    orthonormal basis (rows) and one closed interval per basis axis; b is a
    continuous piecewise-affine truncation profile taking the ambient
    orthogonal component u.
    """

    direction: Tuple[float, ...]
    basis: np.ndarray  # (d-1, d), orthonormal rows spanning v^perp
    intervals: Tuple[Tuple[float, float], ...]
    height: float
    truncation: Callable[[np.ndarray], float] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "direction", _as_unit(self.direction))
        d = len(self.direction)
        basis = np.asarray(self.basis, dtype=float)
        if basis.shape != (d - 1, d):
            raise ValueError(f"basis must have shape {(d - 1, d)}")
        gram = basis @ basis.T
        if not np.allclose(gram, np.eye(d - 1), atol=1e-10):
            raise ValueError("basis rows must be orthonormal")
        if not np.allclose(basis @ np.asarray(self.direction), 0.0, atol=1e-10):
            raise ValueError("basis rows must be orthogonal to the direction")
        object.__setattr__(self, "basis", basis)
        ivals = tuple((float(a), float(b)) for a, b in self.intervals)
        if len(ivals) != d - 1 or any(a > b for a, b in ivals):
            raise ValueError("need one ordered interval per basis axis")
        object.__setattr__(self, "intervals", ivals)
        if not self.height > 0.0:
            raise ValueError("height must be positive")


def in_tube(x, spec: TubeSpec) -> bool:
    arr = _check_point(x, spec.d)
    if np.any(arr < 0.0):
        return False
    v = np.asarray(spec.direction)
    u = arr - np.asarray(spec.offset)
    resid = u - (u @ v) * v
    return float(np.linalg.norm(resid)) <= spec.epsilon


def in_cone(x, spec: ConeSpec) -> bool:
    arr = _check_point(x, spec.d)
    nrm = float(np.linalg.norm(arr))
    if nrm == 0.0 or np.any(arr < 0.0):
        return False
    cosang = float(arr @ np.asarray(spec.direction)) / nrm
    angle = math.acos(min(1.0, max(-1.0, cosang)))
    return angle < spec.half_angle


def in_box_window(x, spec: BoxWindow) -> bool:
    arr = _check_point(x, spec.d)
    for xi, vi, wi in zip(arr, spec.direction, spec.widths):
        lo = vi * spec.time
        if not (lo <= xi <= lo + wi):
            return False
    return True


def in_truncated_tube(x, spec: TruncatedTubeSpec) -> bool:
    arr = _check_point(x, spec.d)
    if np.any(arr < 0.0):
        return False
    v = np.asarray(spec.direction)
    t = float(arr @ v)
    u = arr - t * v
    coords = spec.basis @ u
    for c, (lo, hi) in zip(coords, spec.intervals):
        if not (lo <= c <= hi):
            return False
    return 0.0 <= t <= spec.height + spec.truncation(u)


def orthocomplement_basis(direction: Sequence[float]) -> np.ndarray:
    """Deterministic orthonormal basis (rows) of the hyperplane orthogonal to v."""
    v = np.asarray(_as_unit(direction, positive=False), dtype=float)
    _, _, vh = np.linalg.svd(v[None, :])
    return vh[1:]


def box_as_tube_difference(
    direction: Sequence[float],
    widths: Sequence[float],
    height: float,
) -> Tuple[TruncatedTubeSpec, TruncatedTubeSpec]:
    """Two truncated tubes whose set difference is the moving box at T = height.

    The line t -> t v + u meets the static box prod_i [0, eps_i] for
    t in [b2(u), b1(u)] with b2 = max_i(-u_i / v_i) and
    b1 = min_i((eps_i - u_i) / v_i); sliding the box to T v shifts both
    truncation profiles by T, so box membership is exactly
    "below T + b1" minus "below T + b2" (up to the measure-zero lower face).
    direction must be a unit vector, and with widths pass _box_sides.
    """
    v, eps = _box_sides(direction, widths)
    v = np.asarray(_as_unit(v), dtype=float)
    basis = orthocomplement_basis(v)

    corners = []
    d = v.size
    for mask in range(1 << d):
        f = np.array([eps[i] if (mask >> i) & 1 else 0.0 for i in range(d)])
        corners.append(basis @ (f - (f @ v) * v))
    corners = np.array(corners)
    intervals = tuple((float(lo), float(hi)) for lo, hi in zip(corners.min(0), corners.max(0)))

    def b_upper(u: np.ndarray, _eps=eps, _v=v) -> float:
        return float(np.min((_eps - u) / _v))

    def b_lower(u: np.ndarray, _v=v) -> float:
        return float(np.max(-u / _v))

    upper = TruncatedTubeSpec(tuple(v), basis, intervals, height, b_upper)
    lower = TruncatedTubeSpec(tuple(v), basis, intervals, height, b_lower)
    return upper, lower


def region_id(spec) -> str:
    """Stable short identifier for CSV artifacts."""
    fmt = lambda xs: ",".join(format(float(x), ".6g") for x in xs)
    if isinstance(spec, TubeSpec):
        base = f"tube[v=({fmt(spec.direction)});eps={spec.epsilon:.6g}"
        if any(spec.offset):
            base += f";w=({fmt(spec.offset)})"
        return base + "]"
    if isinstance(spec, ConeSpec):
        return f"cone[v=({fmt(spec.direction)});theta={spec.half_angle:.6g}]"
    if isinstance(spec, (BoxWindow, BoxWindowFamily)):
        return f"box[v=({fmt(spec.direction)});eps=({fmt(spec.widths)})]"
    raise TypeError(f"no region id for {type(spec).__name__}")


# ---------------------------------------------------------------------------
# region families: vectorized classification against a T-grid
#
# Per-row reductions over the narrow (m, d) spectrum arrays are left folds
# over the d columns: one pass per column instead of a short reduction per
# row, with the same floats as numpy's row reductions.


def _row_sq_sum(X: np.ndarray) -> np.ndarray:
    """np.sum(X * X, axis=1), bit for bit."""
    return _col_sq_sum(X.T)


def _col_sq_sum(cols: Sequence[np.ndarray]) -> np.ndarray:
    """np.sum(X * X, axis=1) of the (m, d) array X whose columns are cols,
    bit for bit."""
    if len(cols) >= 8:  # numpy sums eight or more terms pairwise, not left to right
        X = np.column_stack(cols)
        return np.sum(X * X, axis=1)
    return functools.reduce(np.add, (c * c for c in cols))


def _row_nonneg(X: np.ndarray) -> np.ndarray:
    """np.all(X >= 0.0, axis=1)."""
    return functools.reduce(np.logical_and, (c >= 0.0 for c in X.T))


class ApertureLadderFamily:
    """Tube or cone balls {x in region_j : ||x|| <= T}, one row per spec j,
    cumulative in T.

    Each item's norm and aperture value (distance to the line, or angle to
    the ray) are computed once per chunk; row j counts specs[j], closed for
    tubes, open for cones, inside the closed positive orthant.  This is the
    one implementation of both regions: a single tube or cone ball is the
    one-rung ladder.
    """

    cumulative = True

    def __init__(self, specs: Sequence):
        shapes = {(type(s), s.direction, getattr(s, "offset", None)) for s in specs}
        if len(shapes) != 1 or not isinstance(specs[0], (TubeSpec, ConeSpec)):
            raise ValueError("specs must be TubeSpecs or ConeSpecs of one direction and offset")
        self.tube = isinstance(specs[0], TubeSpec)
        self.specs = tuple(specs)
        self.rows = len(specs)
        self.region_id = "ladder[" + ";".join(region_id(s) for s in specs) + "]"

    def reach(self, t_max: float) -> Tuple[str, float]:
        return "norm", t_max

    def count_grid(self, X: np.ndarray, grid: np.ndarray) -> np.ndarray:
        v = np.asarray(self.specs[0].direction)
        norms = np.sqrt(_row_sq_sum(X))
        good = _row_nonneg(X)
        if self.tube:
            u = X - np.asarray(self.specs[0].offset)
            t = u @ v
            value = np.sqrt(_col_sq_sum([c - t * vi for c, vi in zip(u.T, v)]))
        else:
            good &= norms > 0.0
            cosang = np.ones_like(norms)
            np.divide(X @ v, norms, out=cosang, where=good)
            value = np.arccos(np.clip(cosang, -1.0, 1.0))
        value[~good] = np.inf
        inside = [value <= s.epsilon if self.tube else value < s.half_angle for s in self.specs]
        # one sort of the rows inside some rung serves every rung: rung j
        # counts, at each T, its members among the sorted norms up to T
        rows = np.flatnonzero(functools.reduce(np.logical_or, inside))
        order = rows[np.argsort(norms[rows])]
        upto = np.searchsorted(norms[order], grid, side="right")
        out = np.zeros((len(inside), grid.size), dtype=np.int64)
        for j, m in enumerate(inside):
            members = np.concatenate(([0], np.cumsum(m[order])))
            out[j] = members[upto]
        return out


class _Ball(ApertureLadderFamily):
    """The one-rung ladder of spec, counted as a single row."""

    def __init__(self, spec):
        super().__init__([spec])
        self.spec = spec
        self.region_id = region_id(spec)

    def count_grid(self, X: np.ndarray, grid: np.ndarray) -> np.ndarray:
        return super().count_grid(X, grid)[0]


class TubeBallFamily(_Ball):
    """{x in tube : ||x|| <= T}, cumulative in T: the one-rung tube ladder."""


class ConeBallFamily(_Ball):
    """{x in open cone : ||x|| <= T}, cumulative in T: the one-rung cone ladder."""


class BoxWindowFamily:
    """Moving box prod_i [v_i T, v_i T + eps_i]; not cumulative.
    direction and widths must pass _box_sides."""

    cumulative = False

    def __init__(self, direction: Sequence[float], widths: Sequence[float]):
        self.direction, self.widths = _box_sides(direction, widths)
        self.region_id = region_id(self)

    def reach(self, t_max: float) -> Tuple[str, float]:
        # a nonnegative row in the box at some T <= t_max lies below
        # v t_max + w, coordinate by coordinate
        top = np.maximum(self.direction * t_max + self.widths, 0.0)
        return "norm", float(np.linalg.norm(top))

    def window(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per row, the closed interval of T for which the row is in the box."""
        cols = list(zip(X.T, self.widths, self.direction))
        lo = functools.reduce(np.maximum, ((c - w) / v for c, w, v in cols))
        hi = functools.reduce(np.minimum, (c / v for c, w, v in cols))
        return lo, hi

    def count_grid(self, X: np.ndarray, grid: np.ndarray) -> np.ndarray:
        lo, hi = self.window(X)
        ok = lo <= hi
        lo, hi = np.sort(lo[ok]), np.sort(hi[ok])
        started = np.searchsorted(lo, grid, side="right")
        ended = np.searchsorted(hi, grid, side="left")
        return (started - ended).astype(np.int64)


class CoordinateRayFamily:
    """{x : x_i <= T}: rank-one counting of a single factor, cumulative."""

    cumulative = True

    def __init__(self, index: int, d: int):
        if not 0 <= index < d:
            raise ValueError("factor index out of range")
        self.index = index
        self.region_id = f"ray[coord={index}]"

    def reach(self, t_max: float) -> Tuple[int, float]:
        return self.index, t_max

    def count_grid(self, X: np.ndarray, grid: np.ndarray) -> np.ndarray:
        vals = np.sort(X[:, self.index])
        return np.searchsorted(vals, grid, side="right").astype(np.int64)


class TruncatedTubeFamily:
    """Family T_{T,b} over the grid for the box-difference truncation profiles.

    The cross-section is left unbounded: the upper-minus-lower difference
    count is insensitive to it (outside the box shadow the two profiles
    cross and the slab difference is empty), which is the identity the
    moving-box census is checked against.
    """

    cumulative = True

    def __init__(self, direction: Sequence[float], widths: Sequence[float], side: str):
        if side not in ("upper", "lower"):
            raise ValueError("side must be 'upper' or 'lower'")
        self.direction = np.asarray(unit(direction), dtype=float)
        self.widths = np.asarray(widths, dtype=float)
        self.side = side
        self.region_id = f"ttube[{side};v=({','.join(format(x, '.6g') for x in self.direction)})]"

    def count_grid(self, X: np.ndarray, grid: np.ndarray) -> np.ndarray:
        v = self.direction
        t = X @ v
        U = X - np.outer(t, v)
        if self.side == "upper":
            b = functools.reduce(np.minimum, ((w - c) / vi for c, w, vi in zip(U.T, self.widths, v)))
        else:
            b = functools.reduce(np.maximum, (-c / vi for c, vi in zip(U.T, v)))
        keep = (t >= 0.0) & _row_nonneg(X)
        vals = np.sort((t - b)[keep])
        return np.searchsorted(vals, grid, side="right").astype(np.int64)
