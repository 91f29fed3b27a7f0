import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spectra_census import census as cn
from spectra_census import cli
from spectra_census import fitting as ft
from spectra_census import group as gr


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "spectra_census", *args],
        capture_output=True,
        text=True,
    )


def write_config(tmp_path: Path, name: str, doc: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


PAIR = {"builder": "schottky_pair", "stretch": 3, "separation": 3, "field": "real"}
TWO_FACTOR = {"factors": [PAIR, {"builder": "schottky_pair", "stretch": 5, "separation": 3}]}


def test_validate_pass(tmp_path):
    cfg = write_config(tmp_path, "v.json", {"representation": PAIR})
    out = tmp_path / "out"
    res = run_cli("validate", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0
    text = (out / "validation.txt").read_text()
    assert "pass" in text and "margin=" in text
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["passed"] is True
    assert manifest["versions"]["spectra_census"]


def test_validate_failure_nonzero_exit(tmp_path):
    bad = {"builder": "schottky_pair", "stretch": 4, "separation": 0.01}
    cfg = write_config(tmp_path, "v.json", {"representation": bad})
    out = tmp_path / "out"
    res = run_cli("validate", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "reps.PingPongFailure"


def _overlapping_pair():
    """schottky_pair(4, 0.5)'s construction as explicit matrices, which the
    builder refuses: the isometric circles overlap (margin -0.545)."""
    a, c, s = 4.0, math.cosh(0.25), math.sinh(0.25)
    g1 = [a, 0.0, 0.0, 1 / a]
    g2 = [a * c * c - s * s / a, c * s * (1 / a - a), c * s * (a - 1 / a), c * c / a - a * s * s]
    return {"rank": 2, "factors": [{"field": "real", "generators": [[[x, 0.0] for x in g] for g in (g1, g2)]}]}


@pytest.mark.parametrize("tol", [None, -100], ids=["default", "negative-tol"])
def test_validate_failure_writes_manifest_and_error(tmp_path, tol):
    # validate certifies at the census gate's tolerance; a config "tol" is
    # not read, so a negative one cannot certify overlapping circles
    doc = {"representation": _overlapping_pair()}
    if tol is not None:
        doc["tol"] = tol
    cfg = write_config(tmp_path, "v.json", doc)
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(cfg), "--out", str(out)]) == 1
    assert "factor 0: FAIL margin=-0.545" in (out / "validation.txt").read_text()
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["passed"] is False
    assert manifest["margins"][0] == pytest.approx(-0.545, abs=1e-3)
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "reps.PingPongFailure"


def test_census_box_dimension_mismatch_schema_error(tmp_path):
    cfg = write_config(
        tmp_path,
        "box.json",
        {
            "representation": TWO_FACTOR,
            "direction": [1.0, 1.4, 0.2],
            "widths": [1.0, 1.0],
            "t_grid": {"t_min": 3.0, "t_max": 12.0, "step": 1.0},
            "L_max": 5,
        },
    )
    out = tmp_path / "out"
    res = run_cli("census-box", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "reps.SchemaError"


def test_census_jordan_artifacts_and_bit_stability(tmp_path):
    cfg = write_config(
        tmp_path,
        "cj.json",
        {
            "representation": PAIR,
            "region": {"type": "tube", "direction": [1.0], "epsilon": 2.0},
            "t_grid": {"t_min": 2.0, "t_max": 14.0, "step": 0.5},
            "L_max": 6,
        },
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli("census-jordan", "--config", str(cfg), "--out", str(out1)).returncode == 0
    assert run_cli("census-jordan", "--config", str(cfg), "--out", str(out2), "--workers", "2").returncode == 0
    csv1 = (out1 / "series.csv").read_bytes()
    csv2 = (out2 / "series.csv").read_bytes()
    assert csv1 == csv2
    header, *rows = csv1.decode().strip().split("\n")
    assert header == "T,count,trusted,kind,region"
    manifest = json.loads((out1 / "MANIFEST.json").read_text())
    t_trust = manifest["t_trust"]
    for row in rows:
        t, count, trusted = row.split(",")[:3]
        assert (float(t) <= t_trust) == bool(int(trusted))
    dat = (out1 / "series.dat").read_text().splitlines()
    assert dat[0] == "# T count trusted"
    assert len(dat) == len(rows) + 1


def test_census_cartan_with_dump(tmp_path):
    cfg = write_config(
        tmp_path,
        "cc.json",
        {
            "representation": PAIR,
            "region": {"type": "cone", "direction": [1.0], "half_angle": 0.5},
            "t_grid": {"t_min": 2.0, "t_max": 10.0, "step": 1.0},
            "L_max": 4,
        },
    )
    out = tmp_path / "out"
    res = run_cli("census-cartan", "--config", str(cfg), "--out", str(out), "--dump-spectra")
    assert res.returncode == 0
    lines = (out / "spectra.csv").read_text().strip().split("\n")
    assert lines[0].startswith("word,mu_0")
    n_words = sum(cn.stratum_size(2, n) for n in range(1, 5))
    assert len(lines) == 1 + n_words
    words = [line.split(",")[0] for line in lines[1:]]
    # below the first split of a run the walk goes level by level; a stable
    # sort by length turns the depth-first order of the scalar enumerator
    # into the same order
    expected = sorted(gr.enumerate_reduced_words(2, 4), key=lambda w: w.length)
    assert words == [str(w) for w in expected]


def test_census_cartan_dump_interleaves_lengths(tmp_path):
    # at L_max 9 the word walk splits runs, so the lengths interleave;
    # within a length the words, or the classes, keep the scalar
    # enumerator's order
    doc = {
        "representation": PAIR,
        "region": {"type": "cone", "direction": [1.0], "half_angle": 0.5},
        "t_grid": {"t_min": 2.0, "t_max": 10.0, "step": 1.0},
        "L_max": 9,
    }
    cfg = str(write_config(tmp_path, "cc.json", doc))
    cases = [
        ("census-cartan", list(gr.enumerate_reduced_words(2, 9)), "mu_0"),
        ("census-jordan", list(gr.enumerate_conjugacy_classes(2, 9)), "lambda_0"),
    ]
    for command, items, column in cases:
        out = tmp_path / command
        res = run_cli(command, "--config", cfg, "--out", str(out), "--dump-spectra")
        assert res.returncode == 0, res.stderr
        header, *lines = (out / "spectra.csv").read_text().strip().split("\n")
        assert header.split(",")[1] == column
        words = [line.split(",")[0] for line in lines]
        expected = sorted(items, key=lambda w: w.length)
        length = {str(w): w.length for w in expected}
        assert len(words) == len(expected)
        if command == "census-cartan":
            assert len(words) == gr.total_words(2, 9)
            assert words != [str(w) for w in expected]
        assert sorted(words, key=length.__getitem__) == [str(w) for w in expected]


def test_spectra_words_spelled_as_per_letter(tmp_path):
    # every letter code of rank 26, in rows of two lengths and one
    # chunk per length, against letter_str letter by letter
    rng = np.random.default_rng(7)
    chunks = [rng.integers(0, 52, size=(60, n), dtype=np.int8) for n in (1, 9)]
    path = tmp_path / "spectra.csv"
    cli.write_spectra_csv(((c, np.zeros((len(c), 1)), None) for c in chunks), path, 1, cn.KIND_CARTAN)
    words = [line.split(",")[0] for line in path.read_text().split("\n")[1:-1]]
    assert words == ["".join(gr.letter_str(gr.code_letter(int(c))) for c in row) for c in chunks for row in c]
    with pytest.raises(ValueError, match="rank <= 26"):
        cli.write_spectra_csv([(np.array([[0, 52]], np.int8), np.zeros((1, 1)), None)], path, 1, cn.KIND_CARTAN)


def test_ladder_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        "lad.json",
        {
            "representation": PAIR,
            "direction": [1.0],
            "epsilons": [2.0, 1.0],
            "source": "jordan-tube",
            "t_grid": {"t_min": 2.0, "t_max": 14.0, "step": 0.5},
            "L_max": 7,
        },
    )
    out = tmp_path / "out"
    res = run_cli("ladder", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0
    lines = (out / "ladder.csv").read_text().strip().split("\n")
    assert lines[0] == "source,epsilon,delta_hat,extrapolated"
    assert len(lines) == 3
    assert (out / "ladder.dat").read_text().startswith("# epsilon delta_hat")


def test_correlate_cli_end_to_end(tmp_path):
    cfg = write_config(
        tmp_path,
        "corr.json",
        {
            "representation": TWO_FACTOR,
            "direction": "auto",
            "widths": [1.5, 1.5],
            "t_grid": {"t_min": 3.0, "t_max": 20.0, "step": 0.8},
            "L_max": 7,
            "L_probe": 6,
        },
    )
    out = tmp_path / "out"
    res = run_cli("correlate", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    for name in ("box_series.csv", "box_fit.csv", "factor0_fit.csv", "factor1_fit.csv",
                 "bounds.csv", "bounds.txt", "MANIFEST.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert "bounds_pass" in manifest
    assert manifest["dependence"]["rank"] == 2


def test_ratio_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        "ratio.json",
        {
            "representation": PAIR,
            "region": {"type": "tube", "direction": [1.0], "epsilon": 2.0},
            "t_grid": {"t_min": 2.0, "t_max": 16.0, "step": 0.5},
            "L_max": 7,
        },
    )
    out = tmp_path / "out"
    res = run_cli("ratio", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert (out / "jordan_series.csv").exists()
    assert (out / "cartan_series.csv").exists()
    rows = (out / "ratio.csv").read_text().strip().split("\n")
    assert rows[0] == "slope,intercept,r_squared,t_lo,t_hi,n_points"


def test_report_cli(tmp_path):
    cfg = write_config(tmp_path, "rep.json", {"representation": TWO_FACTOR, "L_max": 5})
    out = tmp_path / "out"
    res = run_cli("report", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    text = (out / "report.txt").read_text()
    assert "ping-pong pass" in text
    assert "horizon" in text


def test_report_horizon_shards_over_workers(tmp_path, monkeypatch):
    seen = []
    run_sharded = cn._run_sharded

    def spy(task, workers):
        seen.append(workers)
        return run_sharded(task, workers)

    monkeypatch.setattr(cn, "_run_sharded", spy)
    cfg = write_config(tmp_path, "rep.json", {"representation": TWO_FACTOR, "L_max": 5})
    horizons = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        assert cli.main(["report", "--config", str(cfg), "--out", str(out),
                         "--workers", str(workers)]) == 0
        manifest = json.loads((out / "MANIFEST.json").read_text())
        horizons.append({k: v for k, v in manifest.items() if "t_trust" in k or "c_min" in k})
    assert seen == [1, 1, 2, 2]
    assert len(horizons[0]) == 4 and horizons[0] == horizons[1]


def test_ladder_shards_over_workers(tmp_path, monkeypatch):
    seen = []
    run_sharded = cn._run_sharded

    def spy(task, workers):
        seen.append(workers)
        return run_sharded(task, workers)

    monkeypatch.setattr(cn, "_run_sharded", spy)
    cfg = write_config(
        tmp_path,
        "lad.json",
        {
            "representation": TWO_FACTOR,
            "direction": [1.0, 1.4],
            "epsilons": [1.3, 0.6],
            "source": "cartan-tube",
            "t_grid": {"t_min": 2.013, "t_max": 24.0, "step": 0.5},
            "L_max": 8,
        },
    )
    artifacts = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        assert cli.main(["ladder", "--config", str(cfg), "--out", str(out),
                         "--workers", str(workers)]) == 0
        artifacts.append([(out / name).read_bytes() for name in ("ladder.csv", "ladder.dat")])
    assert seen == [1, 2]
    assert artifacts[0] == artifacts[1]


def test_dump_spectra_independent_of_workers(tmp_path):
    # the dump is one unsharded stream, written after the census, so every
    # artifact is byte-identical at any --workers value
    configs = Path(__file__).resolve().parents[1] / "configs"
    box = json.loads((configs / "census_box_complex.json").read_text())
    tube = {
        "representation": TWO_FACTOR,
        "region": {"type": "tube", "direction": [0.6, 0.8], "epsilon": 1.1},
        "t_grid": {"t_min": 3.013, "t_max": 26.0, "step": 0.7},
    }
    for command, doc in [("census-cartan", tube), ("census-jordan", tube), ("census-box", box)]:
        cfg = write_config(tmp_path, f"{command}.json", dict(doc, kind=command, L_max=9))
        artifacts = []
        for workers in (1, 2):
            out = tmp_path / f"{command}-{workers}"
            assert cli.main([command, "--config", str(cfg), "--out", str(out),
                             "--workers", str(workers), "--dump-spectra"]) == 0
            artifacts.append({p.name: p.read_bytes() for p in out.iterdir() if p.suffix in (".csv", ".dat")})
        assert "spectra.csv" in artifacts[0] and artifacts[1] == artifacts[0], command
    assert "holonomy.csv" in artifacts[0]


def test_sectors_on_a_real_representation_are_refused(tmp_path):
    # holonomy sectors need a complex factor; the run fails before any walk
    configs = Path(__file__).resolve().parents[1] / "configs"
    box = json.loads((configs / "census_box_complex.json").read_text())
    cfg = write_config(tmp_path, "box.json", dict(box, representation=PAIR, L_max=8))
    out = tmp_path / "out"
    assert cli.main(["census-box", "--config", str(cfg), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "algebra.RealFactor", record
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("command, doc", [
    ("ladder", {"representation": TWO_FACTOR, "direction": "auto", "source": "cartan-tube",
                "epsilons": [1.1], "L_max": 10_000}),
    ("census-box", {"representation": TWO_FACTOR, "direction": "auto", "L_probe": 10_000,
                    "widths": [1.0, 1.0], "L_max": 5}),
], ids=["ladder", "probe"])
def test_far_over_budget_is_capacity_exceeded(tmp_path, command, doc):
    # the ball's word count has more digits than Python formats; the run
    # still fails with the budget's own error
    doc = dict(doc, t_grid={"t_min": 3.013, "t_max": 26.0, "step": 0.7})
    cfg = write_config(tmp_path, "big.json", doc)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "group.CapacityExceeded", record


def test_budget_not_an_integer_is_capacity_exceeded(tmp_path, monkeypatch):
    # a valid config under a budget that is not an integer: the error names
    # the variable, where it used to blame the config
    monkeypatch.setenv("SPECTRA_CENSUS_MAX_WORDS", "1e9")
    cfg = Path(__file__).resolve().parents[1] / "configs" / "ratio_tube.json"
    out = tmp_path / "out"
    assert cli.main(["ratio", "--config", str(cfg), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "group.CapacityExceeded", record
    assert "SPECTRA_CENSUS_MAX_WORDS='1e9'" in record["message"]


@pytest.mark.parametrize("grid", [
    {"t_min": 1, "t_max": 1e6, "step": 1e-9},
    {"t_min": -1e308, "t_max": 1e308, "step": 1.0},
    {"t_min": 0.0, "t_max": 1e6, "step": 1.0},
], ids=["fine", "overflow", "one-past"])
def test_huge_grid_is_schema_error(tmp_path, grid):
    # refused before the grid is allocated, with an error.json
    doc = {"representation": TWO_FACTOR, "region": {"type": "tube", "direction": [1.0, 1.4],
           "epsilon": 1.3}, "t_grid": grid, "L_max": 4}
    cfg = write_config(tmp_path, "grid.json", doc)
    out = tmp_path / "out"
    assert cli.main(["census-cartan", "--config", str(cfg), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "reps.SchemaError", record
    assert "more than 1000000 points" in record["message"]
    assert cli.parse_grid({"t_min": 0.0, "t_max": 999_999.0, "step": 1.0}).size == cli.MAX_GRID


@pytest.mark.parametrize("sectors, grid", [
    (10**12, None),
    ([i * math.pi / 10 for i in range(11)], {"t_min": 2.0, "t_max": 14.0, "step": 1e-4}),
], ids=["count", "list"])
def test_huge_sector_histogram_is_schema_error(tmp_path, sectors, grid):
    # grid points times sectors past MAX_GRID is refused before the edges
    # or the histogram are allocated, with an error.json
    doc = dict(BOX, sectors=sectors, t_grid=grid or BOX["t_grid"])
    cfg = write_config(tmp_path, "box.json", doc)
    out = tmp_path / "out"
    assert cli.main(["census-box", "--config", str(cfg), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "reps.SchemaError", record
    assert f"exceeds {cli.MAX_GRID} cells" in record["message"]


@pytest.mark.parametrize("where", ["config", "representation"])
def test_unreadable_config_is_schema_error(tmp_path, where):
    # a directory where a JSON file belongs: an error.json naming the path,
    # not a traceback
    folder = tmp_path / "folder"
    folder.mkdir()
    cfg = folder
    if where == "representation":
        cfg = write_config(tmp_path, "c.json", dict(CARTAN, representation="folder"))
    out = tmp_path / "out"
    assert cli.main(["census-cartan", "--config", str(cfg), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "reps.SchemaError", record
    assert str(folder) in record["message"]


def test_failed_fork_is_worker_crashed(tmp_path, monkeypatch):
    # the system refuses the fork (EAGAIN at the process limit)
    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    cfg = Path(__file__).resolve().parents[1] / "configs" / "ratio_tube.json"
    out = tmp_path / "out"
    assert cli.main(["ratio", "--config", str(cfg), "--out", str(out), "--workers", "2"]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "census.WorkerCrashed", record
    assert not (out / "MANIFEST.json").exists()


def test_dump_spectra_only_on_census_subcommands(tmp_path):
    cfg = write_config(
        tmp_path,
        "lad.json",
        {
            "representation": PAIR,
            "direction": [1.0],
            "epsilons": [2.0, 1.0],
            "source": "jordan-tube",
            "t_grid": {"t_min": 2.0, "t_max": 14.0, "step": 0.5},
            "L_max": 5,
        },
    )
    out = tmp_path / "out"
    res = run_cli("ladder", "--config", str(cfg), "--out", str(out), "--dump-spectra")
    assert res.returncode == 2
    assert "--dump-spectra" in res.stderr
    assert not (out / "spectra.csv").exists()


def test_kind_mismatch_rejected(tmp_path):
    cfg = write_config(tmp_path, "k.json", {"kind": "ladder", "representation": PAIR})
    out = tmp_path / "out"
    res = run_cli("validate", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "reps.SchemaError"


def test_emit_plot_data_overlay(tmp_path):
    t = tuple(float(x) for x in range(8, 17))
    counts = tuple(int(round(2.718281828459045 ** x)) for x in range(8, 17))
    series = cn.CountSeries(t, counts, "jordan-classes", "r", 0, 16.0, 1.0, True)
    fit = ft.fit_growth(series, window=(8.0, 16.0), fix_alpha=0.0)
    path = tmp_path / "overlay.dat"
    cli.emit_plot_data(path, ["T", "count", "model"], cli._model_rows(series, fit))
    lines = path.read_text().splitlines()
    assert lines[0] == "# T count model"
    first = lines[1].split()
    assert float(first[1]) == pytest.approx(float(first[2]), rel=0.01)


@pytest.mark.parametrize(
    "exc, code, status",
    [
        (KeyboardInterrupt(), "cli.Interrupted", 130),
        (cn.WorkerCrashed("worker died"), "census.WorkerCrashed", 1),
    ],
)
def test_interrupt_and_worker_crash_write_error_record(tmp_path, monkeypatch, exc, code, status):
    def runner(config, args, out, rep):
        raise exc

    monkeypatch.setitem(cli.RUNNERS, "validate", runner)
    cfg = write_config(tmp_path, "v.json", {"representation": PAIR})
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(cfg), "--out", str(out)]) == status
    assert json.loads((out / "error.json").read_text())["code"] == code


CARTAN = {
    "kind": "census-cartan",
    "representation": PAIR,
    "region": {"type": "tube", "direction": [1.0], "epsilon": 0.5},
    "t_grid": {"t_min": 2.0, "t_max": 14.0, "step": 0.5},
    "L_max": 4,
}


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_rejected(tmp_path, workers):
    cfg = write_config(tmp_path, "c.json", CARTAN)
    out = tmp_path / "out"
    assert cli.main(["census-cartan", "--config", str(cfg), "--out", str(out), "--workers", workers]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "reps.SchemaError"
    assert "--workers" in record["message"]
    assert not (out / "MANIFEST.json").exists()


BOX = {
    "kind": "census-box",
    "representation": {"builder": "schottky_pair", "stretch": 3, "separation": 3, "field": "complex",
                       "twist": 0.9},
    "direction": [1.0],
    "widths": [0.8],
    "sectors": 4,
    "t_grid": {"t_min": 2.0, "t_max": 14.0, "step": 0.5},
    "L_max": 4,
}
REPORT = {"kind": "report", "representation": TWO_FACTOR, "L_max": 4, "L_probe": 5}


@pytest.mark.parametrize(
    "doc, key, value",
    [
        (CARTAN, "L_max", 6.7),
        (CARTAN, "L_max", True),
        (CARTAN, "L_max", "4"),
        (BOX, "sectors", True),
        (BOX, "sectors", 2.5),
        (REPORT, "L_probe", 5.5),
        (REPORT, "L_max", 4.5),
    ],
)
def test_integer_fields_must_be_integers(tmp_path, doc, key, value):
    cfg = write_config(tmp_path, "c.json", dict(doc, **{key: value}))
    out = tmp_path / "out"
    assert cli.main([doc["kind"], "--config", str(cfg), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "reps.SchemaError"
    assert repr(key) in record["message"] and repr(value) in record["message"]
    assert not (out / "MANIFEST.json").exists()


LADDER = {
    "kind": "ladder",
    "representation": PAIR,
    "direction": [1.0],
    "epsilons": [2.0, 1.0],
    "source": "cartan-tube",
    "t_grid": {"t_min": 2.0, "t_max": 14.0, "step": 0.5},
    "L_max": 7,
}


@pytest.mark.parametrize("L_max", [0, -3])
@pytest.mark.parametrize(
    "doc", [CARTAN, dict(CARTAN, kind="census-jordan"), BOX, LADDER],
    ids=["census-cartan", "census-jordan", "census-box", "ladder"],
)
def test_L_max_below_one_is_insufficient_data(tmp_path, doc, L_max):
    # an empty ball has no c_min_hat: no series and no Infinity in a MANIFEST
    cfg = write_config(tmp_path, "c.json", dict(doc, L_max=L_max))
    out = tmp_path / "out"
    assert cli.main([doc["kind"], "--config", str(cfg), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "census.InsufficientData"
    assert not (out / "MANIFEST.json").exists()


CONE = dict(CARTAN, region={"type": "cone", "direction": [1.0], "half_angle": 0.5})
CORRELATE = {"kind": "correlate", "representation": TWO_FACTOR, "direction": [1.0, 1.4],
             "widths": [1.5, 1.5], "t_grid": {"t_min": 3.0, "t_max": 20.0, "step": 0.8},
             "L_max": 5, "L_probe": 5}
RATIO = dict(CARTAN, kind="ratio", region={"type": "tube", "direction": [1.0], "epsilon": 2.0})


@pytest.mark.parametrize(
    "doc, key, patch",
    [
        (CARTAN, "t_max", {"t_grid": dict(CARTAN["t_grid"], t_max=math.inf)}),
        (CARTAN, "t_min", {"t_grid": dict(CARTAN["t_grid"], t_min=-(10**400))}),
        (CARTAN, "epsilon", {"region": dict(CARTAN["region"], epsilon=math.nan)}),
        (CARTAN, "offset", {"region": dict(CARTAN["region"], offset=[math.nan])}),
        (CONE, "direction", {"region": dict(CONE["region"], direction=[math.nan])}),
        (BOX, "widths", {"widths": [math.nan]}),
        (BOX, "sectors", {"sectors": [0.0, math.nan, math.pi]}),
        (BOX, "twist", {"representation": dict(BOX["representation"], twist=math.nan)}),
        (BOX, "direction", {"direction": [math.inf]}),
        (CARTAN, "step", {"t_grid": dict(CARTAN["t_grid"], step=math.nan)}),
        (CORRELATE, "bounds_tol", {"bounds_tol": math.nan}),
        (LADDER, "epsilons", {"epsilons": [2.0, math.nan]}),
        (RATIO, "window", {"window": [4.0, math.inf]}),
        # float() reads these; a config field does not
        (CARTAN, "t_min", {"t_grid": dict(CARTAN["t_grid"], t_min=True)}),
        (CARTAN, "t_max", {"t_grid": dict(CARTAN["t_grid"], t_max="10")}),
        (CARTAN, "epsilon", {"region": dict(CARTAN["region"], epsilon=False)}),
        (BOX, "widths", {"widths": ["0.8"]}),
    ],
)
def test_non_finite_numbers_are_schema_errors(tmp_path, doc, key, patch):
    # json.load reads NaN and Infinity; no comparison downstream rejects them
    cfg = write_config(tmp_path, "c.json", dict(doc, **patch))
    out = tmp_path / "out"
    assert cli.main([doc["kind"], "--config", str(cfg), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "reps.SchemaError"
    assert repr(key) in record["message"]
    assert not (out / "MANIFEST.json").exists()


@pytest.mark.parametrize(
    "value", [math.nan, -math.inf, 10**400, True, "1.6", None],
    ids=["nan", "-inf", "huge", "bool", "string", "null"],
)
def test_generator_entries_must_be_finite_numbers(tmp_path, value):
    # 1.6 makes the second generator unimodular; a NaN there passed the
    # unimodularity check and the gate, and the census exited 0 with a NaN
    # c_min_hat
    generators = [
        [[3.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1 / 3, 0.0]],
        [[value, 0.0], [1.2, 0.0], [1.2, 0.0], [1.525, 0.0]],
    ]
    doc = dict(CARTAN, representation={"rank": 2, "factors": [{"field": "real", "generators": generators}]})
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert cli.main(["census-cartan", "--config", str(cfg), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "reps.SchemaError"
    assert "factor 0 generator 1 entry 0" in record["message"]
    assert not (out / "MANIFEST.json").exists()


def test_integer_fields_accept_integral_values():
    assert cli._integer("L_max", 6) == 6
    assert cli._integer("L_max", 6.0) == 6
    for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json")):
        doc = json.loads(path.read_text())
        for key in ("L_max", "L_probe", "sectors"):
            if key in doc:
                assert cli._integer(key, doc[key]) == doc[key]


def test_writer_bytes_are_pinned(tmp_path):
    # literal text, so a formatting slip in a writer fails here even when
    # every run of the changed writer agrees with itself
    series = cn.CountSeries((2.0, 2.1, 1 / 3 + 2.3), (0, 7, 12), "jordan-classes",
                            "tube(v=(1,), eps=0.5)", 6, 2.1, 0.7, True)
    fit = ft.FitResult(0.1 + 0.2, 0.5, -1.25, (2.0, 1 / 3 + 2.3), 1e-17, 3)
    ladder = ft.LadderResult((1.6, 0.8), (0.6931471805599453, -math.inf), -math.inf,
                             "cartan-tube", (0.6, 0.8), 9.5, 0.35)
    hists = {1: [cn.HolonomyHistogram((0.0, 1.0, math.pi), (3, 0), 1, 2.5)],
             0: [cn.HolonomyHistogram((0.0, math.pi), (5,), 0, 2.5),
                 cn.HolonomyHistogram((0.0, math.pi), (6,), 0, 3.25)]}
    mean = ft.BoundReport(0.4, (0.7, 1 / 3), (0.6, 0.8), 0.05, 0.1 / 3, 0.1, True, False)
    no_mean = ft.BoundReport(0.4, (0.7, 1 / 3, 2.0), (0.6, 0.8, 0.0), -0.2, None, 0.1, False, None)
    (tmp_path / "mean").mkdir()
    (tmp_path / "no_mean").mkdir()
    cli.write_series_csv(series, tmp_path / "series.csv")
    cli.write_histograms_csv(hists, tmp_path / "holonomy.csv")
    cli.write_fit_csv(fit, tmp_path / "fit.csv", label="box")
    cli.write_ladder_csv(ladder, tmp_path / "ladder.csv")
    cli.emit_plot_data(tmp_path / "series.dat", ["T", "count", "trusted"], cli._series_rows(series))
    cli.emit_plot_data(tmp_path / "ladder.dat", ["epsilon", "delta_hat"],
                       [[format(e, cli.F17), format(dh, cli.F17)]
                        for e, dh in zip(ladder.epsilons, ladder.delta_hats)])
    cli.emit_plot_data(tmp_path / "fit.dat", ["T", "count", "model"], cli._model_rows(series, fit))
    cli._write_bounds(mean, tmp_path / "mean")
    cli._write_bounds(no_mean, tmp_path / "no_mean")
    region = '"tube(v=(1,), eps=0.5)"'
    expected = {
        "series.csv": "T,count,trusted,kind,region\n"
        f"2,0,1,jordan-classes,{region}\n"
        f"2.1000000000000001,7,1,jordan-classes,{region}\n"
        f"2.6333333333333333,12,0,jordan-classes,{region}\n",
        "holonomy.csv": "factor,T,sector_lo,sector_hi,count\n"
        "0,2.5,0,3.1415926535897931,5\n"
        "0,3.25,0,3.1415926535897931,6\n"
        "1,2.5,0,1,3\n"
        "1,2.5,1,3.1415926535897931,0\n",
        "fit.csv": "label,delta_hat,alpha_hat,log_c_hat,t_lo,t_hi,rms_residual,n_points\n"
        "box,0.30000000000000004,0.5,-1.25,2,2.6333333333333333,1.0000000000000001e-17,3\n",
        "ladder.csv": "source,epsilon,delta_hat,extrapolated\n"
        "cartan-tube,1.6000000000000001,0.69314718055994529,-inf\n"
        "cartan-tube,0.80000000000000004,-inf,-inf\n",
        "series.dat": "# T count trusted\n2 0 1\n2.1000000000000001 7 1\n2.6333333333333333 12 0\n",
        "ladder.dat": "# epsilon delta_hat\n"
        "1.6000000000000001 0.69314718055994529\n0.80000000000000004 -inf\n",
        "fit.dat": "# T count model\n"
        "2 0 0.36914210883751297\n"
        "2.1000000000000001 7 0.37121692922387728\n"
        "2.6333333333333333 12 0.38901972278489727\n",
        "mean/bounds.csv": "delta_hat,slack_min_bound,slack_mean_bound,tol,pass_min,pass_mean\n"
        "0.40000000000000002,0.050000000000000003,0.033333333333333333,0.10000000000000001,1,0\n",
        "mean/bounds.txt": "fitted correlation rate delta_hat = 0.4 along v = (0.6, 0.8)\n"
        "factor rates = (0.7, 0.333333)\n"
        "min-bound slack  (min_i delta_i v_i - delta_hat) = 0.05 -> pass at tol 0.1\n"
        "mean-bound slack ((1/d) sum delta_i v_i - delta_hat) = 0.0333333 -> FAIL at tol 0.1\n",
        "no_mean/bounds.csv": "delta_hat,slack_min_bound,slack_mean_bound,tol,pass_min,pass_mean\n"
        "0.40000000000000002,-0.20000000000000001,,0.10000000000000001,0,\n",
        "no_mean/bounds.txt": "fitted correlation rate delta_hat = 0.4 along v = (0.6, 0.8, 0.0)\n"
        "factor rates = (0.7, 0.333333, 2.0)\n"
        "min-bound slack  (min_i delta_i v_i - delta_hat) = -0.2 -> FAIL at tol 0.1\n",
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name



def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_manifest_is_strict_json(tmp_path):
    # off the spectrum cone every rung is empty: ladder.csv keeps the -inf
    # sentinel, the MANIFEST writes it as null
    doc = dict(LADDER, representation=TWO_FACTOR, direction=[1, 40], L_max=6)
    cfg = write_config(tmp_path, "lad.json", doc)
    out = tmp_path / "out"
    assert cli.main(["ladder", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "MANIFEST.json").read_text(), parse_constant=_reject_constant)
    assert manifest["extrapolated"] is None
    assert (out / "ladder.csv").read_text().splitlines()[1].endswith(",-inf")


def test_out_that_cannot_be_created_is_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", {"representation": PAIR})
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["validate", "--config", str(cfg), "--out", str(blocker / "out")]) == 1
    assert capsys.readouterr().err.startswith("error [cli.IoError]: ")
    assert sorted(tmp_path.iterdir()) == [blocker, cfg]


@pytest.mark.parametrize(
    "builder",
    [
        {"stretch": 3, "separation": 3},
        {"stretch": 3, "separation": 3, "field": "complex", "twist": 0.9},
        {"stretch": 3.17, "separation": 2.93},
    ],
)
def test_builder_factor_matches_top_level_builder(builder):
    doc = dict(builder, builder="schottky_pair")
    (top,) = cli.parse_representation(doc, Path(".")).factors
    for factor in cli.parse_representation({"factors": [doc, doc]}, Path(".")).factors:
        for want, got in zip(top.generators, factor.generators):
            assert got.entries.dtype == want.entries.dtype
            assert got.entries.tobytes() == want.entries.tobytes()
            assert got.log_scale == want.log_scale
