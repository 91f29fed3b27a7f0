import json
import subprocess
import sys
from pathlib import Path

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
    # the dump walks stratum by stratum; a stable sort by length turns the
    # depth-first order of the scalar enumerator into the same order
    expected = sorted(gr.enumerate_reduced_words(2, 4), key=lambda w: w.length)
    assert words == [str(w) for w in expected]


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


def test_dump_spectra_with_workers_rejected(tmp_path):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "census_box_complex.json"
    out = tmp_path / "out"
    res = run_cli("census-box", "--config", str(cfg), "--out", str(out), "--dump-spectra",
                  "--workers", "2")
    assert res.returncode == 1
    record = json.loads((out / "error.json").read_text())
    assert record["code"] == "reps.SchemaError"
    assert "--dump-spectra" in record["message"] and "--workers" in record["message"]
    assert not (out / "spectra.csv").exists()


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
    cli.emit_plot_data((series, fit), path)
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
    def runner(config, args, out):
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


def test_integer_fields_accept_integral_values():
    assert cli._integer("L_max", 6) == 6
    assert cli._integer("L_max", 6.0) == 6
    for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json")):
        doc = json.loads(path.read_text())
        for key in ("L_max", "L_probe", "sectors"):
            if key in doc:
                assert cli._integer(key, doc[key]) == doc[key]
