import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectra_census import census as cn
from spectra_census import regions as rg


def unit2(a, b):
    return rg.unit([a, b])


def test_tube_on_axis_and_outside():
    v = unit2(3, 4)
    spec = rg.TubeSpec(v, 0.5)
    assert rg.in_tube(5 * np.array(v), spec)
    assert not rg.in_tube([50.0, 1.0], spec)
    assert not rg.in_tube([-0.1, 0.1], spec)  # outside the positive chamber


def test_tube_closed_boundary():
    # epsilon is set to the exactly computed distance of a probe point, so
    # membership at distance == epsilon exercises the closed boundary
    v = np.array(unit2(3, 4))
    u0 = np.array([-v[1], v[0]])
    x = 7.0 * v + 0.25 * u0
    resid = x - (x @ v) * v
    dist = float(np.linalg.norm(resid))
    spec = rg.TubeSpec(tuple(v), dist)
    assert rg.in_tube(x, spec)
    below = rg.TubeSpec(tuple(v), np.nextafter(dist, 0.0))
    assert not rg.in_tube(x, below)


def test_tube_offset():
    v = unit2(1, 1)
    spec = rg.TubeSpec(v, 0.3, offset=(2.0, 0.0))
    x = np.array([4.0, 2.0])  # 2*sqrt(2) along v after removing the offset
    assert rg.in_tube(x, spec)
    assert not rg.in_tube([4.0, 0.5], spec)


def test_tube_monotone_in_epsilon():
    rng = np.random.default_rng(3)
    v = unit2(2, 1)
    small = rg.TubeSpec(v, 0.4)
    large = rg.TubeSpec(v, 1.1)
    pts = rng.uniform(0, 8, size=(500, 2))
    for x in pts:
        if rg.in_tube(x, small):
            assert rg.in_tube(x, large)


def test_dimension_mismatch():
    spec = rg.TubeSpec(unit2(1, 1), 0.5)
    with pytest.raises(rg.DimensionMismatch):
        rg.in_tube([1.0, 2.0, 3.0], spec)
    cone = rg.ConeSpec(unit2(1, 1), 0.4)
    with pytest.raises(rg.DimensionMismatch):
        rg.in_cone([1.0], cone)
    box = rg.BoxWindow((0.5, 0.25), (1.0, 1.0), 8.0)
    with pytest.raises(rg.DimensionMismatch):
        rg.in_box_window([1.0], box)


def test_cone_open_boundary():
    v = np.array(unit2(1, 2))
    x = np.array([1.0, 1.0])
    angle = math.acos(float(x @ v) / np.linalg.norm(x))
    exactly = rg.ConeSpec(tuple(v), angle)
    assert not rg.in_cone(x, exactly)  # open condition
    above = rg.ConeSpec(tuple(v), np.nextafter(angle, 4.0))
    assert rg.in_cone(x, above)
    assert rg.in_cone(3 * v, exactly)
    assert not rg.in_cone([0.0, 0.0], exactly)


def test_box_window_corner_closed():
    spec = rg.BoxWindow((0.5, 0.25), (1.0, 0.5), 8.0)  # exact binary corners
    assert rg.in_box_window([4.0, 2.0], spec)
    assert rg.in_box_window([5.0, 2.5], spec)
    assert not rg.in_box_window([np.nextafter(4.0, 0.0), 2.0], spec)
    assert not rg.in_box_window([5.0, np.nextafter(2.5, 3.0)], spec)


def test_box_window_d1_is_interval():
    spec = rg.BoxWindow((1.0,), (0.5,), 3.0)
    assert rg.in_box_window([3.2], spec)
    assert not rg.in_box_window([3.6], spec)
    assert rg.in_box_window([3.0], spec)


def test_truncated_tube_basics():
    upper, lower = rg.box_as_tube_difference(unit2(1, 1.4), (1.0, 1.0), 9.0)
    v = np.array(upper.direction)
    assert rg.in_truncated_tube(4.5 * v, upper)  # 0 is in K
    b0 = upper.truncation(np.zeros(2))
    above = (9.0 + b0 + 1e-6) * v
    assert not rg.in_truncated_tube(above, upper)


def test_truncation_pointwise_monotone():
    # member(lower profile) implies member(higher profile)
    upper, lower = rg.box_as_tube_difference(unit2(1, 1.2), (0.8, 1.3), 7.0)
    rng = np.random.default_rng(12)
    pts = rng.uniform(0, 12, size=(2000, 2))
    for x in pts:
        if rg.in_truncated_tube(x, lower):
            assert rg.in_truncated_tube(x, upper)


def test_box_equals_tube_difference_random_points():
    v = unit2(1, 1.37)
    widths = (0.9, 1.15)
    T = 11.0
    upper, lower = rg.box_as_tube_difference(v, widths, T)
    box = rg.BoxWindow(v, widths, T)
    rng = np.random.default_rng(42)
    # concentrate half the samples near the moving box, rest across the chamber
    near = T * np.array(v) + rng.uniform(-1.5, 2.5, size=(50_000, 2))
    far = rng.uniform(0, 1.6 * T, size=(50_000, 2))
    agreements = 0
    for x in np.vstack([near, far]):
        diff = rg.in_truncated_tube(x, upper) and not rg.in_truncated_tube(x, lower)
        assert diff == rg.in_box_window(x, box)
        agreements += 1
    assert agreements == 100_000


def test_spec_validation():
    with pytest.raises(ValueError):
        rg.TubeSpec((1.0, 1.0), 0.5)  # not unit
    with pytest.raises(ValueError):
        rg.TubeSpec(unit2(1, 1), -0.1)
    with pytest.raises(ValueError):
        rg.ConeSpec(unit2(1, 1), 2.0)  # half-angle past pi/2
    with pytest.raises(ValueError):
        rg.BoxWindow((1.0, -1.0), (1.0, 1.0), 1.0)
    # NaN fails every comparison, so each rule is checked in positive form
    with pytest.raises(ValueError):
        rg.TubeSpec(unit2(1, 1), math.nan)
    with pytest.raises(ValueError):
        rg.TubeSpec((math.nan, 1.0), 0.5)
    with pytest.raises(ValueError):
        rg.BoxWindow((1.0, 1.0), (1.0, 1.0), math.nan)
    for v, w in [((math.nan, 1.0), (1.0, 1.0)), ((0.6, 0.8), (1.0, math.nan)), ((0.6, 0.8), (math.inf, 1.0))]:
        with pytest.raises(ValueError):
            rg.BoxWindow(v, w, 1.0)
        with pytest.raises(ValueError):
            rg.BoxWindowFamily(v, w)
        with pytest.raises(ValueError):
            rg.box_as_tube_difference(v, w, 1.0)
    with pytest.raises(ValueError):
        rg.unit([0.0, 0.0])


def test_region_ids_stable():
    tube = rg.TubeSpec(unit2(3, 4), 0.5)
    assert rg.region_id(tube) == rg.region_id(rg.TubeSpec(unit2(3, 4), 0.5))
    assert "tube" in rg.region_id(tube)


# ---------------------------------------------------------------------------
# vector region families against the scalar predicates

REL = 1e-9
PROPERTY = settings(max_examples=200, derandomize=True, deadline=None)
coord = st.floats(min_value=-2.0, max_value=20.0, allow_nan=False)
positive = st.floats(min_value=0.05, max_value=3.0, allow_nan=False)


@st.composite
def cloud(draw):
    """(d, points (m, d), increasing T-grid)."""
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=12))
    grid = draw(st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=6, unique=True))
    return d, np.array(pts), np.array(sorted(grid))


def _clear(value, boundary):
    return abs(value - boundary) > REL * max(1.0, abs(boundary))


def _assume_clear_of_grid(X, grid):
    # the orthant face x_i >= 0 needs no margin: both sides compare raw coordinates
    for x in X:
        assume(all(_clear(float(np.linalg.norm(x)), t) for t in grid))


def _ball_oracle(X, grid, member):
    return [sum(1 for x in X if member(x) and float(np.linalg.norm(x)) <= t) for t in grid]


@PROPERTY
@given(cloud(), st.data())
def test_tube_ball_family_matches_in_tube(c, data):
    d, X, grid = c
    v = rg.unit(data.draw(st.lists(positive, min_size=d, max_size=d)))
    offset = data.draw(st.lists(st.floats(0.0, 2.0), min_size=d, max_size=d))
    spec = rg.TubeSpec(v, data.draw(positive), tuple(offset))
    _assume_clear_of_grid(X, grid)
    for x in X:
        u = x - np.asarray(spec.offset)
        assume(_clear(float(np.linalg.norm(u - (u @ v) * np.asarray(v))), spec.epsilon))
    got = cn.TubeBallFamily(spec).count_grid(X, grid)
    assert list(got) == _ball_oracle(X, grid, lambda x: rg.in_tube(x, spec))


@PROPERTY
@given(cloud(), st.data())
def test_cone_ball_family_matches_in_cone(c, data):
    d, X, grid = c
    v = rg.unit(data.draw(st.lists(positive, min_size=d, max_size=d)))
    spec = rg.ConeSpec(v, data.draw(st.floats(0.05, 1.5)))
    _assume_clear_of_grid(X, grid)
    for x in X:
        nrm = float(np.linalg.norm(x))
        assume(nrm > REL)
        angle = math.acos(min(1.0, max(-1.0, float(x @ np.asarray(v)) / nrm)))
        assume(_clear(angle, spec.half_angle))
    got = cn.ConeBallFamily(spec).count_grid(X, grid)
    assert list(got) == _ball_oracle(X, grid, lambda x: rg.in_cone(x, spec))


@PROPERTY
@given(cloud(), st.data())
def test_box_window_family_matches_in_box_window(c, data):
    d, X, grid = c
    v = data.draw(st.lists(positive, min_size=d, max_size=d))
    w = data.draw(st.lists(positive, min_size=d, max_size=d))
    for x in X:
        for t in grid:
            for xi, vi, wi in zip(x, v, w):
                assume(_clear(xi, vi * t) and _clear(xi, vi * t + wi))
    got = cn.BoxWindowFamily(v, w).count_grid(X, grid)
    expected = [sum(rg.in_box_window(x, rg.BoxWindow(v, w, t)) for x in X) for t in grid]
    assert list(got) == expected


def test_box_window_family_counts_dyadic_face_ties():
    v, w = (0.5, 0.25), (1.0, 0.5)
    grid = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    # every point lies on a face of the box at T = 2: corners and edge midpoints
    X = np.array([[1.0, 0.5], [2.0, 1.0], [1.0, 1.0], [2.0, 0.5], [1.5, 0.5], [2.0, 0.75]])
    got = cn.BoxWindowFamily(v, w).count_grid(X, grid)
    expected = [sum(rg.in_box_window(x, rg.BoxWindow(v, w, t)) for x in X) for t in grid]
    assert list(got) == expected
    assert got[3] == len(X)


def test_ball_families_count_norm_ties():
    # norms 5, 10 and 2.5 are exact in binary, and so is each grid value
    X = np.array([[3.0, 4.0], [6.0, 8.0], [1.5, 2.0], [4.0, 3.0]])
    grid = np.array([2.5, 5.0, 10.0])
    tube = rg.TubeSpec(rg.unit([1.0, 1.0]), 4.0)
    cone = rg.ConeSpec(rg.unit([1.0, 1.0]), 0.5)
    for family, member in (
        (cn.TubeBallFamily(tube), lambda x: rg.in_tube(x, tube)),
        (cn.ConeBallFamily(cone), lambda x: rg.in_cone(x, cone)),
    ):
        got = family.count_grid(X, grid)
        assert list(got) == _ball_oracle(X, grid, member) == [1, 3, 4]


def _aperture_values(X, v, offset):
    """Distance to the tube's line (offset given) or angle to the cone's ray
    (offset None), by ApertureLadderFamily's own float expressions: a spec built
    from one of these values has that point exactly on its boundary."""
    v = np.asarray(v)
    if offset is not None:
        u = X - np.asarray(offset)
        resid = u - np.outer(u @ v, v)
        return np.sqrt(np.sum(resid * resid, axis=1))
    norms = np.sqrt(np.sum(X * X, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.arccos(np.clip((X @ v) / norms, -1.0, 1.0))


def _ladder_specs(v, apertures, offset):
    if offset is None:
        return [rg.ConeSpec(v, a) for a in apertures], cn.ConeBallFamily
    return [rg.TubeSpec(v, a, offset) for a in apertures], cn.TubeBallFamily


@PROPERTY
@given(cloud(), st.data())
def test_aperture_ladder_rows_match_ball_families(c, data):
    # a ball is the one-rung ladder: each rung counts as if it stood alone
    d, X, grid = c
    v = rg.unit(data.draw(st.lists(positive, min_size=d, max_size=d)))
    offset = None
    if data.draw(st.booleans()):
        offset = tuple(data.draw(st.lists(st.floats(0.0, 2.0), min_size=d, max_size=d)))
    # apertures drawn from the points' own values put boundary ties in the ladder
    ties = [float(a) for a in _aperture_values(X, v, offset) if 0.0 < a < math.pi / 2]
    aperture = st.floats(0.05, 1.5) | (st.sampled_from(ties) if ties else st.nothing())
    specs, single = _ladder_specs(v, data.draw(st.lists(aperture, min_size=1, max_size=4)), offset)
    got = cn.ApertureLadderFamily(specs).count_grid(X, grid)
    assert got.shape == (len(specs), grid.size) and got.dtype == np.int64
    for row, spec in zip(got, specs):
        assert list(row) == list(single(spec).count_grid(X, grid))


def _outer_product_counts(specs, X, grid):
    """ApertureLadderFamily.count_grid by the np.outer distance and one sort
    per rung: the formula the column fold and the one shared sort replace."""
    v = np.asarray(specs[0].direction)
    norms = np.sqrt(cn._row_sq_sum(X))
    good = np.all(X >= 0.0, axis=1)
    if isinstance(specs[0], rg.TubeSpec):
        u = X - np.asarray(specs[0].offset)
        value = np.sqrt(cn._row_sq_sum(u - np.outer(u @ v, v)))
        inside = [lambda x, s=s: x <= s.epsilon for s in specs]
    else:
        good &= norms > 0.0
        cosang = np.ones_like(norms)
        np.divide(X @ v, norms, out=cosang, where=good)
        value = np.arccos(np.clip(cosang, -1.0, 1.0))
        inside = [lambda x, s=s: x < s.half_angle for s in specs]
    value[~good] = np.inf
    return [list(np.searchsorted(np.sort(norms[rung(value)]), grid, side="right")) for rung in inside]


@PROPERTY
@given(cloud(), st.data())
def test_aperture_ladder_matches_outer_product_formula(c, data):
    d, X, grid = c
    v = rg.unit(data.draw(st.lists(positive, min_size=d, max_size=d)))
    offset = None
    if data.draw(st.booleans()):
        offset = tuple(data.draw(st.lists(st.floats(0.0, 2.0), min_size=d, max_size=d)))
    ties = [float(a) for a in _aperture_values(X, v, offset) if 0.0 < a < math.pi / 2]
    aperture = st.floats(0.05, 1.5) | (st.sampled_from(ties) if ties else st.nothing())
    specs, _ = _ladder_specs(v, data.draw(st.lists(aperture, min_size=1, max_size=4)), offset)
    got = cn.ApertureLadderFamily(specs).count_grid(X, grid)
    assert got.tolist() == _outer_product_counts(specs, X, grid)


@pytest.mark.parametrize("rep_name", ["two_factor_rep", "complex_pair"])
def test_aperture_ladder_matches_outer_product_formula_on_census_data(request, rep_name):
    rep = request.getfixturevalue(rep_name)
    X = np.concatenate([mu for _, mu, *_ in cn.iter_word_chunks(rep, 8)])
    d = X.shape[1]
    grid = np.unique(np.concatenate([np.linspace(0.0, 40.0, 57), np.sqrt(np.sum(X[::97] ** 2, axis=1))]))
    v = rg.unit([1.0, 1.4][:d])
    for offset in ((0.0,) * d, (0.3, 0.1)[:d], None):
        # rungs through census points put boundary ties in every rung
        values = _aperture_values(X, v, offset)
        ties = sorted({float(a) for a in values[::211] if 0.0 < a < math.pi / 2}, reverse=True)[:3]
        widths = [0.3, 0.1, 0.03] if offset is None else [1.6, 0.9, 0.2]
        specs, _ = _ladder_specs(v, widths + ties, offset)
        got = cn.ApertureLadderFamily(specs).count_grid(X, grid)
        assert got.tolist() == _outer_product_counts(specs, X, grid)
        assert got[:, -1].any()


def test_aperture_ladder_counts_aperture_ties():
    # (3,4) and (4,3) sit exactly on the first rung's boundary: the closed
    # tube counts them at T = 10, the open cone does not
    X = np.array([[3.0, 4.0], [4.0, 3.0], [1.0, 1.0]])
    grid = np.array([2.0, 10.0])
    v = rg.unit([1.0, 1.0])
    for offset, expected in (((0.0, 0.0), [[1, 3], [1, 1]]), (None, [[1, 1], [1, 1]])):
        tie = float(_aperture_values(X, v, offset)[0])
        specs, single = _ladder_specs(v, [tie, 0.5 * tie], offset)
        got = cn.ApertureLadderFamily(specs).count_grid(X, grid)
        assert got.tolist() == expected
        assert got.tolist() == [list(single(s).count_grid(X, grid)) for s in specs]


def test_aperture_ladder_rejects_mixed_specs():
    v = rg.unit([1.0, 1.0])
    for specs in ([], [rg.TubeSpec(v, 1.0), rg.ConeSpec(v, 0.5)],
                  [rg.TubeSpec(v, 1.0), rg.TubeSpec(rg.unit([1.0, 2.0]), 0.5)]):
        with pytest.raises(ValueError):
            cn.ApertureLadderFamily(specs)


def _families(d):
    """Every region family in d dimensions, with the leading shape of its rows."""
    v, w = rg.unit([1.0] * d), [1.0] * d
    return [
        (cn.TubeBallFamily(rg.TubeSpec(v, 1.0)), ()),
        (cn.ConeBallFamily(rg.ConeSpec(v, 0.5)), ()),
        (cn.ApertureLadderFamily([rg.TubeSpec(v, 1.0), rg.TubeSpec(v, 0.5)]), (2,)),
        (cn.ApertureLadderFamily([rg.ConeSpec(v, 0.5), rg.ConeSpec(v, 0.25)]), (2,)),
        (cn.BoxWindowFamily(v, w), ()),
        (cn.CoordinateRayFamily(0, d), ()),
        (cn.TruncatedTubeFamily(v, w, "upper"), ()),
        (cn.TruncatedTubeFamily(v, w, "lower"), ()),
    ]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_families_count_an_empty_chunk_as_zeros(d):
    # primitive_only can empty a chunk, and the chunk loop still hands it over
    grid = np.array([0.0, 1.0, 5.0])
    for family, rows in _families(d):
        got = family.count_grid(np.empty((0, d)), grid)
        assert got.shape == rows + (grid.size,) and got.dtype == np.int64
        assert not got.any()


def test_zero_vector_in_closed_tube_not_in_open_cone():
    X = np.zeros((1, 2))
    grid = np.array([0.0, 1.0, 5.0])
    v = rg.unit([1.0, 2.0])
    tube, cone = rg.TubeSpec(v, 0.5), rg.ConeSpec(v, 1.0)
    assert rg.in_tube(X[0], tube) and not rg.in_cone(X[0], cone)
    assert cn.TubeBallFamily(tube).count_grid(X, grid).tolist() == [1, 1, 1]
    assert cn.ConeBallFamily(cone).count_grid(X, grid).tolist() == [0, 0, 0]
    assert cn.ApertureLadderFamily([tube]).count_grid(X, grid).tolist() == [[1, 1, 1]]
    assert cn.ApertureLadderFamily([cone]).count_grid(X, grid).tolist() == [[0, 0, 0]]


# ---------------------------------------------------------------------------
# column folds against numpy's row reductions

spread = st.builds(
    lambda mant, exp, sign: sign * mant * 10.0**exp,
    st.floats(min_value=1.0, max_value=10.0),
    st.integers(-3, 2),
    st.sampled_from([-1.0, 1.0]),
)


@st.composite
def wide_cloud(draw):
    """Points (m, d), d = 1..9, with coordinates of magnitude 1e-3..1e3."""
    d = draw(st.integers(1, 9))
    return np.array(draw(st.lists(st.lists(spread, min_size=d, max_size=d), min_size=1, max_size=40)))


@PROPERTY
@given(wide_cloud())
def test_row_folds_equal_numpy_row_reductions(X):
    got = cn._row_sq_sum(X)
    assert np.array_equal(got.view(np.uint64), np.sum(X * X, axis=1).view(np.uint64))
    assert np.array_equal(cn._row_nonneg(X), np.all(X >= 0.0, axis=1))
    d = X.shape[1]
    family = cn.BoxWindowFamily(np.linspace(0.5, 1.5, d), np.linspace(0.2, 2.0, d))
    lo, hi = family.window(X)
    assert np.array_equal(lo, np.max((X - family.widths) / family.direction, axis=1))
    assert np.array_equal(hi, np.min(X / family.direction, axis=1))
