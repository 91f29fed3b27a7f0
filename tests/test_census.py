import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spectra_census import census as cn
from spectra_census import fitting as ft
from spectra_census import group as gr
from spectra_census import regions as rg
from spectra_census import reps as rp
from conftest import naive_cartan_census, naive_jordan_census

GRID = np.arange(2.0, 24.0, 0.61) + 0.017


@pytest.fixture(scope="module")
def tube_family(two_factor_rep):
    v = rg.unit([1.0, 1.4])
    return cn.TubeBallFamily(rg.TubeSpec(v, 1.3))


def test_decoded_words_match_stream():
    for k in (2, 3):
        for n in (1, 2, 3, 4):
            rows = cn.decode_words(k, n, 0, gr.stratum_size(k, n))
            decoded = {tuple(int(c) for c in row) for row in rows}
            stream = {
                tuple(gr.letter_code(l) for l in w.letters)
                for w in gr.enumerate_reduced_words(k, n)
                if w.length == n
            }
            assert decoded == stream


def test_class_chunks_match_pure_enumeration(two_factor_rep):
    got = set()
    for letters, lam, _h, prim in cn.iter_class_chunks(two_factor_rep, 6):
        for row, p in zip(letters, prim):
            got.add((tuple(int(c) for c in row), bool(p)))
    expected = {
        (tuple(gr.letter_code(l) for l in c.letters), c.primitive)
        for c in gr.enumerate_conjugacy_classes(2, 6)
    }
    assert got == expected


def test_jordan_census_matches_naive_recount(two_factor_rep, tube_family):
    series = cn.census_jordan(two_factor_rep, tube_family, GRID, 8)
    spec = tube_family.spec
    naive = naive_jordan_census(
        two_factor_rep,
        lambda x, T: rg.in_tube(x, spec) and np.linalg.norm(x) <= T,
        GRID,
        8,
    )
    assert list(series.counts) == naive
    assert series.cumulative
    assert all(b >= a for a, b in zip(series.counts, series.counts[1:]))


def test_jordan_census_primitive_only(two_factor_rep, tube_family):
    series = cn.census_jordan(two_factor_rep, tube_family, GRID, 7, primitive_only=True)
    spec = tube_family.spec
    naive = naive_jordan_census(
        two_factor_rep,
        lambda x, T: rg.in_tube(x, spec) and np.linalg.norm(x) <= T,
        GRID,
        7,
        primitive_only=True,
    )
    assert list(series.counts) == naive
    assert series.kind == cn.KIND_JORDAN_PRIMITIVE


def test_cartan_census_matches_naive_recount(two_factor_rep, tube_family):
    series = cn.census_cartan(two_factor_rep, tube_family, GRID, 6)
    spec = tube_family.spec
    naive = naive_cartan_census(
        two_factor_rep,
        lambda x, T: rg.in_tube(x, spec) and np.linalg.norm(x) <= T,
        GRID,
        6,
    )
    assert list(series.counts) == naive
    assert series.kind == cn.KIND_CARTAN


def test_cartan_total_matches_closed_form(two_factor_rep):
    # a tube wide enough to contain everything: count(T huge) = total words
    v = rg.unit([1.0, 1.4])
    family = cn.TubeBallFamily(rg.TubeSpec(v, 1e6))
    grid = np.array([1e6])
    series = cn.census_cartan(two_factor_rep, family, grid, 6)
    assert series.counts[-1] == sum(gr.stratum_size(2, n) for n in range(1, 7))


def test_cone_census_matches_naive_recount(two_factor_rep):
    spec = rg.ConeSpec(rg.unit([1.0, 1.4]), 0.05)
    family = cn.ConeBallFamily(spec)
    series = cn.census_jordan(two_factor_rep, family, GRID, 8)
    naive = naive_jordan_census(
        two_factor_rep,
        lambda x, T: rg.in_cone(x, spec) and np.linalg.norm(x) <= T,
        GRID,
        8,
    )
    assert list(series.counts) == naive


def test_box_census_matches_naive_recount(two_factor_rep):
    v = rg.unit([1.0, 1.4])
    widths = (1.0, 1.2)
    series, hists = cn.census_box(two_factor_rep, v, widths, GRID, 8)
    assert hists is None
    naive = naive_jordan_census(
        two_factor_rep,
        lambda x, T: rg.in_box_window(x, rg.BoxWindow(v, widths, float(T))),
        GRID,
        8,
    )
    assert list(series.counts) == naive
    assert not series.cumulative


def test_box_counts_match_truncated_tube_difference(two_factor_rep):
    v = rg.unit([1.0, 1.4])
    widths = (1.0, 1.2)
    box = cn.BoxWindowFamily(v, widths)
    upper = cn.TruncatedTubeFamily(v, widths, "upper")
    lower = cn.TruncatedTubeFamily(v, widths, "lower")
    series_box = cn.census_jordan(two_factor_rep, box, GRID, 8)
    series_up = cn.census_jordan(two_factor_rep, upper, GRID, 8)
    series_lo = cn.census_jordan(two_factor_rep, lower, GRID, 8)
    diff = [a - b for a, b in zip(series_up.counts, series_lo.counts)]
    assert diff == list(series_box.counts)


def test_census_deterministic_across_workers(two_factor_rep, complex_pair, tube_family):
    s1 = cn.census_jordan(two_factor_rep, tube_family, GRID, 8, workers=1)
    s2 = cn.census_jordan(two_factor_rep, tube_family, GRID, 8, workers=2)
    s8 = cn.census_jordan(two_factor_rep, tube_family, GRID, 8, workers=8)
    assert s1.counts == s2.counts == s8.counts
    assert s1.t_trust == s2.t_trust == s8.t_trust
    assert s1.c_min_hat == s2.c_min_hat == s8.c_min_hat
    # the holonomy histograms and the primitive filter merge across shards too
    edges = np.linspace(0.0, math.pi, 7)
    grid = np.arange(2.0, 14.0, 0.7) + 0.013
    boxes = [
        cn.census_box(complex_pair, (1.0,), (0.9,), grid, 8, sectors=edges, workers=w)
        for w in (1, 2, 3)
    ]
    assert boxes[0][1]
    for series, hists in boxes[1:]:
        assert series == boxes[0][0]
        assert hists == boxes[0][1]
    prims = [
        cn.census_jordan(two_factor_rep, tube_family, GRID, 8, primitive_only=True, workers=w)
        for w in (1, 2, 3)
    ]
    assert prims[0] == prims[1] == prims[2]
    assert prims[0].counts != s1.counts


def test_partition_additivity_d1(real_pair):
    # abutting unit-width windows tile the cumulative ray count
    eps = 0.9
    grid_boxes = np.array([eps * j for j in range(1, 26)]) + 0.0131
    family = cn.BoxWindowFamily((1.0,), (eps,))
    series, _ = cn.census_box(real_pair, (1.0,), (eps,), grid_boxes, 7)
    ray = cn.CoordinateRayFamily(0, 1)
    top = grid_boxes[-1] + eps
    cumulative = cn.census_jordan(real_pair, ray, np.array([grid_boxes[0], top]), 7)
    first_window = cn.census_jordan(real_pair, ray, np.array([grid_boxes[0]]), 7)
    assert sum(series.counts) == cumulative.counts[-1] - first_window.counts[0]


def test_box_degenerate_self_pair_equals_interval(real_pair):
    pair = rp.join(real_pair, real_pair)
    v2 = rg.unit([1.0, 1.0])
    grid = np.arange(2.0, 16.0, 0.53) + 0.011
    series2, _ = cn.census_box(pair, v2, (0.8, 0.8), grid, 7)
    series1, _ = cn.census_box(real_pair, (1.0 / math.sqrt(2.0),), (0.8,), grid, 7)
    assert series2.counts == series1.counts


def test_box_huge_widths_cover_lower_orthant(two_factor_rep):
    # with enormous widths, membership degenerates to x_i >= v_i T
    v = rg.unit([1.0, 1.4])
    family = cn.BoxWindowFamily(v, (1e9, 1e9))
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 30, size=(500, 2))
    for t in (3.0, 7.0, 11.0):
        mask = family.member_mask(X, t)
        direct = np.all(X >= np.asarray(v) * t, axis=1)
        assert np.array_equal(mask, direct)


def test_holonomy_sectors_partition(complex_pair):
    edges = np.linspace(0.0, math.pi, 9)
    grid = np.arange(2.0, 18.0, 0.71) + 0.013
    series, hists = cn.census_box(complex_pair, (1.0,), (0.9,), grid, 8, sectors=edges)
    assert set(hists) == {0}
    for h, total in zip(hists[0], series.counts):
        assert sum(h.counts) == total


def test_capacity_exceeded(two_factor_rep, tube_family):
    with pytest.raises(cn.CapacityExceeded):
        cn.census_jordan(two_factor_rep, tube_family, GRID, 10, budget=1000)


def test_unvalidated_rep_requires_force():
    g1 = rp.Factor("real", (rp.algebra.from_raw([[2, 1], [1, 1]]), rp.algebra.from_raw([[3, 2], [1, 1]])))
    rep = rp.Representation(k=2, factors=(g1,))
    family = cn.CoordinateRayFamily(0, 1)
    with pytest.raises(rp.PingPongFailure):
        cn.census_cartan(rep, family, np.array([5.0]), 3)
    series = cn.census_cartan(rep, family, np.array([5.0]), 3, force=True)
    assert series.counts[0] >= 0


def test_horizon_matches_naive_minimum(two_factor_rep):
    t_trust, c_min = cn.completeness_horizon(two_factor_rep, 6, "jordan")
    ratios = []
    for c in gr.enumerate_conjugacy_classes(2, 6):
        lam = np.array(rp.lambda_vector(two_factor_rep, c).coords)
        ratios.append(np.linalg.norm(lam) / c.length)
    assert c_min == pytest.approx(min(ratios), rel=1e-12)
    assert t_trust == pytest.approx(c_min * 4, rel=1e-12)  # (L_max - 1) - 1 = 4


def test_horizon_monotone_in_L(two_factor_rep):
    t4, _ = cn.completeness_horizon(two_factor_rep, 4, "cartan")
    t6, _ = cn.completeness_horizon(two_factor_rep, 6, "cartan")
    assert t6 > t4


def test_horizon_extension_audit(two_factor_rep):
    # nothing at core length L_max + 2 falls below the horizon computed at L_max
    L = 6
    t_trust, _ = cn.completeness_horizon(two_factor_rep, L, "jordan")
    for c in gr.enumerate_conjugacy_classes(2, L + 2):
        if c.length != L + 2:
            continue
        lam = np.array(rp.lambda_vector(two_factor_rep, c).coords)
        assert np.linalg.norm(lam) > t_trust


def test_spectra_sink_rows(two_factor_rep, tube_family):
    rows = []

    def sink(letters, vectors, holos):
        rows.append(letters.shape[0])

    cn.census_jordan(two_factor_rep, tube_family, GRID, 5, spectra_sink=sink)
    total = sum(rows)
    assert total == len(list(gr.enumerate_conjugacy_classes(2, 5)))
    with pytest.raises(ValueError):
        cn.census_jordan(two_factor_rep, tube_family, GRID, 5, workers=2, spectra_sink=sink)


def test_jordan_census_trivial_edges(real_pair):
    family = cn.CoordinateRayFamily(0, 1)
    below_min = cn.census_jordan(real_pair, family, np.array([1.0]), 6)
    assert below_min.counts == (0,)
    everything = cn.census_jordan(real_pair, family, np.array([1e9]), 6)
    assert everything.counts[0] == len(list(gr.enumerate_conjugacy_classes(2, 6)))


def test_one_process_run_imports_no_process_pool():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import spectra_census.cli\n"
        "from spectra_census import census as cn, regions as rg, reps as rp\n"
        "family = cn.TubeBallFamily(rg.TubeSpec(rg.unit([1.0]), 1.3))\n"
        "cn.census_cartan(rp.schottky_pair(3.0, 3.0), family, np.array([5.0, 9.0]), 6, workers=1)\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(cn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def _die(shard):
    os._exit(1)


def test_worker_crash_is_a_census_error():
    with pytest.raises(cn.WorkerCrashed):
        cn._run_sharded(_die, workers=2)


def test_int64_overflow_is_capacity_exceeded(real_pair, monkeypatch):
    # 4 * 3^44 words in the top stratum: inside the budget, beyond int64 indices
    with pytest.raises(cn.CapacityExceeded, match="int64"):
        next(cn.iter_word_chunks(real_pair, 45, budget=10**30))
    with pytest.raises(cn.CapacityExceeded, match="int64"):
        next(cn.iter_class_chunks(real_pair, 45, budget=10**30))
    monkeypatch.setenv("SPECTRA_CENSUS_MAX_WORDS", str(10**30))
    with pytest.raises(cn.CapacityExceeded, match="int64"):
        cn.census_cartan(real_pair, cn.CoordinateRayFamily(0, 1), GRID, 45)
    # the largest rank-2 length whose top stratum still fits int64 passes the gate
    assert next(cn.iter_word_chunks(real_pair, 39, budget=10**30))[0].shape == (4, 1)


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_rejected(real_pair, workers):
    v = rg.unit([1.0])
    grid = np.arange(2.0, 12.0, 0.5)
    with pytest.raises(ValueError, match="workers"):
        cn.census_cartan(real_pair, cn.TubeBallFamily(rg.TubeSpec(v, 0.5)), grid, 4, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        cn.completeness_horizon(real_pair, 4, "jordan", workers=workers)
    with pytest.raises(ValueError, match="workers"):
        ft.growth_indicator_ladder(real_pair, v, [1.0, 0.5], grid, 4, "cartan-tube", workers=workers)
