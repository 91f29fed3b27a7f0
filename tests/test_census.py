import errno
import functools
import json
import math
import os
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from spectra_census import algebra
from spectra_census import census as cn
from spectra_census import cli
from spectra_census import fitting as ft
from spectra_census import group as gr
from spectra_census import regions as rg
from spectra_census import reps as rp
from spectra_census.errors import SpectraCensusError
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
    lo, hi = family.window(X)
    for t in (3.0, 7.0, 11.0):
        mask = (lo <= t) & (t <= hi)
        direct = np.all(X >= np.asarray(v) * t, axis=1)
        assert np.array_equal(mask, direct)


def test_holonomy_sectors_partition(complex_pair):
    edges = np.linspace(0.0, math.pi, 9)
    grid = np.arange(2.0, 18.0, 0.71) + 0.013
    series, hists = cn.census_box(complex_pair, (1.0,), (0.9,), grid, 8, sectors=edges)
    assert set(hists) == {0}
    for h, total in zip(hists[0], series.counts):
        assert sum(h.counts) == total


def _per_grid_holonomy_bins(lo, hi, holos, grid, edges, complex_factors, d):
    """The holonomy bins by brute force: one mask and one bincount per grid
    point and complex factor."""
    hist = np.zeros((d, grid.size, len(edges) - 1), dtype=np.int64)
    for ti, t in enumerate(grid):
        mask = (lo <= t) & (t <= hi)
        if not mask.any():
            continue
        for i in complex_factors:
            sector = np.searchsorted(edges, holos[mask, i], side="right") - 1
            sector = np.clip(sector, 0, len(edges) - 2)
            hist[i, ti] += np.bincount(sector, minlength=len(edges) - 1)
    return hist


class _Window(cn.BoxWindowFamily):
    """A box whose window per row is its first two coordinates."""

    def __init__(self):
        super().__init__([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])

    def window(self, X):
        return X[:, 0], X[:, 1]


@pytest.mark.parametrize("primitive_only", [False, True])
def test_holonomy_bins_match_per_grid_loop(primitive_only):
    rng = np.random.default_rng(23)
    grid = np.arange(2.0, 12.0, 0.5)
    edges = np.array([0.0, 0.4, 1.3, 2.0, math.pi])
    fields = (algebra.COMPLEX, algebra.REAL, algebra.COMPLEX)
    rep = types.SimpleNamespace(d=3, factors=[types.SimpleNamespace(field=f) for f in fields])
    chunks, want = [], 0
    for m in (5, 7, 300, 2000):
        lo = rng.uniform(0.0, 14.0, m)
        hi = lo + rng.uniform(-2.0, 6.0, m)
        # windows that open or close on a grid point, and windows that hold
        # none: past either end, between two points, or empty
        lo[: m // 4] = rng.choice(grid, m // 4)
        hi[m // 4 : m // 2] = rng.choice(grid, m // 2 - m // 4)
        lo[-4:], hi[-4:] = [12.0, 0.1, 5.1, 7.0], [13.0, 1.9, 5.4, 6.5]
        holos = rng.uniform(0.0, math.pi, (m, 3))
        holos[:, 1] = np.nan
        holos[:3, 0] = [0.0, 0.4, math.pi]
        primitive = rng.random(m) < 0.7
        X = np.column_stack([lo, hi, rng.uniform(1.0, 2.0, m)])
        chunks.append((np.zeros((m, 3), dtype=np.int8), X, holos, primitive))
        keep = primitive if primitive_only else slice(None)
        want = want + _per_grid_holonomy_bins(lo[keep], hi[keep], holos[keep], grid, edges, [0, 2], 3)
    part = cn._tally(rep, iter(chunks), [_Window()], grid, primitive_only, edges)
    assert part.histograms.dtype == np.int64
    assert np.array_equal(part.histograms, want)
    assert want.sum() > 0


def test_capacity_exceeded(two_factor_rep, tube_family, monkeypatch):
    monkeypatch.setenv("SPECTRA_CENSUS_MAX_WORDS", "1000")
    with pytest.raises(cn.CapacityExceeded):
        cn.census_jordan(two_factor_rep, tube_family, GRID, 10)


def test_unvalidated_rep_requires_force():
    g1 = rp.Factor("real", (rp.algebra.from_raw([[2, 1], [1, 1]]), rp.algebra.from_raw([[3, 2], [1, 1]])))
    rep = rp.Representation(k=2, factors=(g1,))
    family = cn.CoordinateRayFamily(0, 1)
    with pytest.raises(rp.PingPongFailure):
        cn.census_cartan(rep, family, np.array([5.0]), 3)
    series = cn.census_cartan(rep, family, np.array([5.0]), 3, force=True)
    assert series.counts[0] >= 0
    # every other entry, on a loxodromic pair whose isometric circles overlap:
    # a stretch and its conjugate by a rotation
    a = np.diag([3.0, 1.0 / 3.0])
    r = np.array([[math.cos(0.5), -math.sin(0.5)], [math.sin(0.5), math.cos(0.5)]])
    gens = (rp.algebra.from_raw(a), rp.algebra.from_raw(r @ a @ r.T))
    rep = rp.Representation(k=2, factors=(rp.Factor("real", gens),))
    grid = np.arange(2.0, 30.0, 0.5) + 0.013

    def ladder(source, **kw):
        return ft.growth_indicator_ladder(rep, [1.0], [1.0], grid, 8, source, **kw)

    entries = {
        "census_jordan": lambda **kw: cn.census_jordan(rep, family, grid, 8, **kw),
        "census_box": lambda **kw: cn.census_box(rep, [1.0], [1.0], grid, 8, **kw),
        "jordan horizon": lambda **kw: cn.completeness_horizon(rep, 8, "jordan", **kw),
        "cartan horizon": lambda **kw: cn.completeness_horizon(rep, 8, "cartan", **kw),
        "cartan ladder": lambda **kw: ladder("cartan-tube", **kw),
        "jordan ladder": lambda **kw: ladder("jordan-tube", **kw),
        "factor exponent": lambda **kw: ft.factor_critical_exponent(rep, 0, grid, 8, **kw),
    }
    for name, entry in entries.items():
        with pytest.raises(rp.PingPongFailure):
            entry()
        assert entry(force=True) is not None, name


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


def test_class_stream_rows(two_factor_rep):
    rows = [letters.shape[0] for letters, *_ in cn.iter_class_chunks(two_factor_rep, 5)]
    assert sum(rows) == len(list(gr.enumerate_conjugacy_classes(2, 5)))


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
        "cn.census_cartan(rp.schottky_pair(3.0, 3.0), family, np.array([5.0, 9.0]), 6, workers=2)\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(cn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def _die(shard):
    # the calling process walks shard 0 itself, so only the forked shards die
    if shard[0] != 0:
        os._exit(1)
    return cn._Partial(np.zeros((1, 1), dtype=np.int64), math.inf)


def test_worker_crash_is_a_census_error():
    with pytest.raises(cn.WorkerCrashed):
        cn._run_sharded(_die, workers=2)


class ShardFailure(SpectraCensusError):
    """Raised by one shard alone."""


def _fail_in_shard_one(shard):
    if shard[0] == 1:
        raise ShardFailure("shard 1 failed")
    return cn._Partial(np.zeros((1, 1), dtype=np.int64), math.inf)


def test_worker_exception_keeps_its_type():
    with pytest.raises(ShardFailure, match="shard 1 failed"):
        cn._run_sharded(_fail_in_shard_one, workers=2)


def test_worker_exception_reaches_the_error_record(tmp_path, monkeypatch):
    cartan_partial = cn._cartan_partial

    def failing(*args):
        _fail_in_shard_one(args[-1])
        return cartan_partial(*args)

    monkeypatch.setattr(cn, "_cartan_partial", failing)
    pair = {"builder": "schottky_pair", "stretch": 3, "separation": 3, "field": "real"}
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "kind": "census-cartan",
        "representation": pair,
        "region": {"type": "tube", "direction": [1.0], "epsilon": 0.5},
        "t_grid": {"t_min": 2.0, "t_max": 14.0, "step": 0.5},
        "L_max": 6,
    }))
    out = tmp_path / "out"
    assert cli.main(["census-cartan", "--config", str(config), "--out", str(out), "--workers", "2"]) == 1
    assert json.loads((out / "error.json").read_text())["code"] == ShardFailure.code
    assert not (out / "MANIFEST.json").exists()


def _fail_in_shard_zero(exc, shard):
    # the forked shards would outlive the test unless the caller kills them
    if shard[0] != 0:
        time.sleep(60)
    raise exc


@pytest.mark.parametrize(
    "case", ["census", "child crash", "fork fails", "parent raises", "parent interrupted"]
)
def test_sharded_run_leaves_no_child_and_no_open_pipe(real_pair, monkeypatch, case):
    fds = len(os.listdir("/dev/fd"))
    t0 = time.monotonic()
    if case == "census":
        family = cn.TubeBallFamily(rg.TubeSpec(rg.unit([1.0]), 0.5))
        want = cn.census_cartan(real_pair, family, GRID, 6)
        assert cn.census_cartan(real_pair, family, GRID, 6, workers=3) == want
    elif case == "child crash":
        with pytest.raises(cn.WorkerCrashed):
            cn._run_sharded(_die, workers=3)
    elif case == "fork fails":
        # the second fork meets the process limit while the first child sleeps
        fork, forks = os.fork, []

        def second_fails():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        with pytest.raises(cn.WorkerCrashed, match="could not start"):
            cn._run_sharded(functools.partial(_fail_in_shard_zero, ShardFailure("not reached")), workers=3)
    else:
        exc = ShardFailure("shard 0 failed") if case == "parent raises" else KeyboardInterrupt()
        with pytest.raises(type(exc)):
            cn._run_sharded(functools.partial(_fail_in_shard_zero, exc), workers=3)
    assert time.monotonic() - t0 < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/dev/fd")) == fds


@pytest.mark.parametrize("kind", [cn.KIND_CARTAN, cn.KIND_JORDAN])
def test_pruning_bound_built_once_before_the_fork(two_factor_rep, tube_family, monkeypatch, kind):
    def census(workers):
        return cn._series(two_factor_rep, kind, tube_family, GRID, 7, workers, False, profile=profile)[0]

    profile = {}
    want = census(1)
    assert min(profile.values()) < gr.total_words(2, 7)  # the census is pruned
    calls, init, me = [], cn._Pruning.__init__, os.getpid()

    def counted(self, *args, **kwargs):
        if os.getpid() != me:
            raise RuntimeError("a forked shard built its own bound")
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cn._Pruning, "__init__", counted)
    for workers in (1, 2, 3):
        calls.clear()
        got = census(workers)
        assert len(calls) == 1
        assert (got.counts, got.c_min_hat, got.t_trust) == (want.counts, want.c_min_hat, want.t_trust)


def test_int64_overflow_is_capacity_exceeded(real_pair, monkeypatch):
    # 4 * 3^44 words in the top stratum: inside the budget, beyond int64 indices
    monkeypatch.setenv("SPECTRA_CENSUS_MAX_WORDS", str(10**30))
    with pytest.raises(cn.CapacityExceeded, match="int64"):
        next(cn.iter_word_chunks(real_pair, 45))
    with pytest.raises(cn.CapacityExceeded, match="int64"):
        next(cn.iter_class_chunks(real_pair, 45))
    with pytest.raises(cn.CapacityExceeded, match="int64"):
        cn.census_cartan(real_pair, cn.CoordinateRayFamily(0, 1), GRID, 45)
    # the largest rank-2 length whose top stratum still fits int64 passes the gate
    assert next(cn.iter_word_chunks(real_pair, 39))[0].shape == (4, 1)


@pytest.mark.parametrize("kind", [cn.KIND_JORDAN, cn.KIND_JORDAN_PRIMITIVE, cn.KIND_CARTAN, "box"])
def test_horizon_kind_is_jordan_or_cartan(real_pair, kind):
    # the horizon has one spelling per walk; a census kind is not one
    with pytest.raises(ValueError, match="horizon kind"):
        cn.completeness_horizon(real_pair, 4, kind)


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
    with pytest.raises(ValueError, match="workers"):
        cn.census_jordan(real_pair, cn.TubeBallFamily(rg.TubeSpec(v, 0.5)), grid, 4, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        cn.census_box(real_pair, v, [1.0], grid, 4, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        cn.completeness_horizon(real_pair, 4, "cartan", workers=workers)
    with pytest.raises(ValueError, match="workers"):
        ft.growth_indicator_ladder(real_pair, v, [1.0, 0.5], grid, 4, "jordan-tube", workers=workers)
    with pytest.raises(ValueError, match="workers"):
        ft.factor_critical_exponent(real_pair, 0, grid, 4, workers=workers)
