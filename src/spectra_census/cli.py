"""Batch front end: one experiment per invocation, JSON config in, CSV out.

Every run writes a MANIFEST.json (config echo, versions, horizons, wall
time) next to its artifacts; failures write a machine-readable error.json
and exit nonzero.  Numeric artifacts are byte-stable across reruns and
worker counts.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import platform
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, census, fitting, regions, reps
from .census import CountSeries
from .errors import SpectraCensusError
from .fitting import FitResult, LadderResult
from .group import letter_str
from .reps import SchemaError

F17 = ".17g"
F15 = ".15g"


class IoError(SpectraCensusError):
    """Artifact could not be written."""


class Interrupted(SpectraCensusError):
    """The run was stopped by an interrupt (SIGINT) before it finished."""


# ---------------------------------------------------------------------------
# config parsing


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"config file {path} not found") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config file {path} is not valid JSON: {exc}") from None


def parse_representation(doc, base_dir: Path) -> reps.Representation:
    if isinstance(doc, str):
        doc = _load_config(str(base_dir / doc))
    if not isinstance(doc, dict):
        raise SchemaError("'representation' must be a mapping or a file path")
    if "file" in doc:
        doc = _load_config(str(base_dir / doc["file"]))
    if "builder" in doc:
        return _build_factor(doc)
    factors = doc.get("factors")
    if isinstance(factors, list) and any(isinstance(f, dict) and "builder" in f for f in factors):
        built = [_build_factor(f) if "builder" in f else None for f in factors]
        expanded = []
        for f, b in zip(factors, built):
            expanded.append(reps.to_document(b)["factors"][0] if b is not None else f)
        ranks = {b.k for b in built if b is not None}
        rank = doc.get("rank", ranks.pop() if len(ranks) == 1 else None)
        if rank is None:
            raise SchemaError("mixed factor styles need an explicit 'rank'")
        return reps.load_representation({"rank": rank, "factors": expanded})
    return reps.load_representation(doc)


def _build_factor(doc: dict) -> reps.Representation:
    name = doc.get("builder")
    if name != "schottky_pair":
        raise SchemaError(f"unknown builder {name!r}")
    try:
        stretch = float(doc["stretch"])
        separation = float(doc["separation"])
    except (KeyError, TypeError, ValueError):
        raise SchemaError("schottky_pair needs numeric 'stretch' and 'separation'") from None
    field = doc.get("field", "real")
    twist = doc.get("twist")
    return reps.schottky_pair(stretch, separation, field, None if twist is None else float(twist))


def parse_grid(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise SchemaError("'t_grid' must be a mapping {t_min, t_max, step}")
    try:
        t_min, t_max, step = float(doc["t_min"]), float(doc["t_max"]), float(doc["step"])
    except (KeyError, TypeError, ValueError):
        raise SchemaError("'t_grid' needs numeric t_min, t_max, step") from None
    if step <= 0 or t_max <= t_min:
        raise SchemaError("'t_grid' needs step > 0 and t_max > t_min")
    n = int(math.floor((t_max - t_min) / step + 1e-9)) + 1
    return t_min + step * np.arange(n)


def parse_region(doc, d: int):
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError("'region' must be a mapping with a 'type'")
    rtype = doc["type"]
    direction = doc.get("direction")
    if not isinstance(direction, list) or len(direction) != d:
        raise SchemaError(f"region direction must be a list of length {d}")
    try:
        if rtype == "tube":
            spec = regions.TubeSpec(
                regions.unit(direction), float(doc["epsilon"]), doc.get("offset")
            )
            return census.TubeBallFamily(spec)
        if rtype == "cone":
            spec = regions.ConeSpec(regions.unit(direction), float(doc["half_angle"]))
            return census.ConeBallFamily(spec)
        if rtype == "box":
            widths = doc.get("widths")
            if not isinstance(widths, list) or len(widths) != d:
                raise SchemaError(f"box widths must be a list of length {d}")
            return census.BoxWindowFamily(direction, widths)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad region spec: {exc}") from None
    raise SchemaError(f"unknown region type {rtype!r}")


def _direction(config, rep, key="direction"):
    doc = config.get(key, "auto")
    if doc == "auto":
        if rep.d != 2:
            raise SchemaError("direction 'auto' needs exactly two factors")
        dep = reps.detect_dependence(rep, int(config.get("L_probe", 8)))
        return regions.unit([1.0, 0.5 * (dep.m_hat + dep.M_hat)]), dep
    if not isinstance(doc, list) or len(doc) != rep.d:
        raise SchemaError(f"'{key}' must be 'auto' or a list of length {rep.d}")
    return regions.unit([float(x) for x in doc]), None


# ---------------------------------------------------------------------------
# artifact writers


def _writer(path: Path):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def write_series_csv(series: CountSeries, path: Path):
    with _writer(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["T", "count", "trusted", "kind", "region"])
        for t, c, tr in zip(series.t_grid, series.counts, series.trusted):
            w.writerow([format(t, F17), c, int(tr), series.kind, series.region])


def write_histograms_csv(histograms, path: Path):
    with _writer(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["factor", "T", "sector_lo", "sector_hi", "count"])
        for factor, hists in sorted(histograms.items()):
            for h in hists:
                for lo, hi, c in zip(h.sector_edges, h.sector_edges[1:], h.counts):
                    w.writerow(
                        [factor, format(h.time, F17), format(lo, F17), format(hi, F17), c]
                    )


def write_fit_csv(fit: FitResult, path: Path, label: str = "fit"):
    with _writer(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            ["label", "delta_hat", "alpha_hat", "log_c_hat", "t_lo", "t_hi", "rms_residual", "n_points"]
        )
        w.writerow(
            [
                label,
                format(fit.delta_hat, F17),
                format(fit.alpha_hat, F17),
                format(fit.log_c_hat, F17),
                format(fit.window[0], F17),
                format(fit.window[1], F17),
                format(fit.rms_residual, F17),
                fit.n_points,
            ]
        )


def write_ladder_csv(ladder: LadderResult, path: Path):
    with _writer(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["source", "epsilon", "delta_hat", "extrapolated"])
        for e, dh in zip(ladder.epsilons, ladder.delta_hats):
            w.writerow(
                [ladder.source, format(e, F17), format(dh, F17), format(ladder.extrapolated, F17)]
            )


def emit_plot_data(artifact, path: Path):
    """Gnuplot-ready whitespace-separated columns with a one-line header."""
    with _writer(path) as fh:
        if isinstance(artifact, CountSeries):
            fh.write("# T count trusted\n")
            for t, c, tr in zip(artifact.t_grid, artifact.counts, artifact.trusted):
                fh.write(f"{format(t, F17)} {c} {int(tr)}\n")
        elif isinstance(artifact, LadderResult):
            fh.write("# epsilon delta_hat\n")
            for e, dh in zip(artifact.epsilons, artifact.delta_hats):
                fh.write(f"{format(e, F17)} {format(dh, F17)}\n")
        elif (
            isinstance(artifact, tuple)
            and len(artifact) == 2
            and isinstance(artifact[0], CountSeries)
            and isinstance(artifact[1], FitResult)
        ):
            series, fit = artifact
            fh.write("# T count model\n")
            for t, c in zip(series.t_grid, series.counts):
                model = math.exp(fit.delta_hat * t + fit.log_c_hat) / t**fit.alpha_hat
                fh.write(f"{format(t, F17)} {c} {format(model, F17)}\n")
        else:
            raise IoError(f"no plot emitter for {type(artifact).__name__}")


class SpectraDump:
    """--dump-spectra sink: one CSV row per enumerated item."""

    def __init__(self, path: Path, d: int, kind: str):
        self.fh = _writer(path)
        self.w = csv.writer(self.fh, lineterminator="\n")
        label = "lambda" if kind.startswith("jordan") else "mu"
        cols = ["word"] + [f"{label}_{i}" for i in range(d)] + [f"holonomy_{i}" for i in range(d)]
        self.w.writerow(cols)

    def __call__(self, letters, vectors, holos):
        for row in range(letters.shape[0]):
            word = "".join(
                letter_str(int(c) // 2 + 1 if int(c) % 2 == 0 else -(int(c) // 2 + 1))
                for c in letters[row]
            )
            vals = [format(x, F15) for x in vectors[row]]
            if holos is None:
                hvals = [""] * vectors.shape[1]
            else:
                hvals = ["" if math.isnan(h) else format(h, F15) for h in holos[row]]
            self.w.writerow([word] + vals + hvals)

    def close(self):
        self.fh.close()


# ---------------------------------------------------------------------------
# experiment runners


def _manifest(out: Path, command: str, config: dict, extra: dict, t0: float, workers: int):
    doc = {
        "command": command,
        "config": config,
        "workers": workers,
        "versions": {
            "spectra_census": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": round(time.time() - t0, 3),
    }
    doc.update(extra)
    with _writer(out / "MANIFEST.json") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_validate(config, args, out: Path) -> int:
    rep = parse_representation(config["representation"], args.base_dir)
    t0 = time.time()
    reports = reps.validate_representation(rep, float(config.get("tol", 1e-9)))
    lines = []
    for i, r in enumerate(reports):
        lines.append(
            f"factor {i}: {'pass' if r.passed else 'FAIL'} margin={r.margin:.9g} "
            f"frame_rotation={r.frame_rotation} ({r.message})"
        )
        for center, radius, label in r.circles:
            lines.append(f"  circle {label}: center=({center.real:.9g},{center.imag:.9g}) radius={radius:.9g}")
    with _writer(out / "validation.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    passed = all(r.passed for r in reports)
    _manifest(
        out,
        "validate",
        config,
        {"passed": passed, "margins": [r.margin for r in reports]},
        t0,
        args.workers,
    )
    if not passed:
        _error_record(out, reps.PingPongFailure("one or more factors failed validation"))
        return 1
    return 0


def _series_run(config, args, out: Path, which: str) -> int:
    rep = parse_representation(config["representation"], args.base_dir)
    grid = parse_grid(config["t_grid"])
    L_max = int(config["L_max"])
    if args.dump_spectra and args.workers > 1:
        raise SchemaError("--dump-spectra needs --workers 1 (the dump is written in one process)")
    t0 = time.time()
    dump = None
    try:
        if which == "census-box":
            direction, _ = _direction(config, rep)
            widths = config.get("widths")
            if not isinstance(widths, list) or len(widths) != rep.d:
                raise SchemaError(f"'widths' must be a list of length {rep.d}")
            sectors = _sector_edges(config.get("sectors"))
            if args.dump_spectra:
                dump = SpectraDump(out / "spectra.csv", rep.d, "jordan")
            series, hists = census.census_box(
                rep,
                direction,
                [float(x) for x in widths],
                grid,
                L_max,
                sectors=sectors,
                primitive_only=bool(config.get("primitive_only", False)),
                workers=args.workers,
                force=args.force,
                spectra_sink=dump,
            )
            if hists:
                write_histograms_csv(hists, out / "holonomy.csv")
        else:
            family = parse_region(config["region"], rep.d)
            if which == "census-jordan":
                if args.dump_spectra:
                    dump = SpectraDump(out / "spectra.csv", rep.d, "jordan")
                series = census.census_jordan(
                    rep,
                    family,
                    grid,
                    L_max,
                    primitive_only=bool(config.get("primitive_only", False)),
                    workers=args.workers,
                    force=args.force,
                    spectra_sink=dump,
                )
            else:
                if args.dump_spectra:
                    dump = SpectraDump(out / "spectra.csv", rep.d, "cartan")
                series = census.census_cartan(
                    rep, family, grid, L_max, workers=args.workers, force=args.force,
                    spectra_sink=dump,
                )
    finally:
        if dump is not None:
            dump.close()
    write_series_csv(series, out / "series.csv")
    emit_plot_data(series, out / "series.dat")
    _manifest(
        out,
        which,
        config,
        {"t_trust": series.t_trust, "c_min_hat": series.c_min_hat, "kind": series.kind,
         "region": series.region},
        t0,
        args.workers,
    )
    return 0


def _sector_edges(doc):
    if doc is None:
        return None
    if isinstance(doc, int):
        if doc < 1:
            raise SchemaError("'sectors' bin count must be positive")
        return list(np.linspace(0.0, math.pi, doc + 1))
    if isinstance(doc, list):
        return [float(x) for x in doc]
    raise SchemaError("'sectors' must be a bin count or a list of edges")


def run_ladder(config, args, out: Path) -> int:
    rep = parse_representation(config["representation"], args.base_dir)
    grid = parse_grid(config["t_grid"])
    t0 = time.time()
    direction, _ = _direction(config, rep)
    source = config.get("source")
    if source not in fitting.LADDER_SOURCES:
        raise SchemaError(f"'source' must be one of {fitting.LADDER_SOURCES}")
    epsilons = config.get("epsilons")
    if not isinstance(epsilons, list) or not epsilons:
        raise SchemaError("'epsilons' must be a nonempty decreasing list")
    ladder = fitting.growth_indicator_ladder(
        rep, direction, [float(e) for e in epsilons], grid, int(config["L_max"]),
        source, force=args.force,
    )
    write_ladder_csv(ladder, out / "ladder.csv")
    emit_plot_data(ladder, out / "ladder.dat")
    _manifest(
        out,
        "ladder",
        config,
        {
            "extrapolated": ladder.extrapolated,
            "direction": list(ladder.direction),
            "t_trust": ladder.t_trust,
            "c_min_hat": ladder.c_min_hat,
        },
        t0,
        args.workers,
    )
    return 0


def run_correlate(config, args, out: Path) -> int:
    rep = parse_representation(config["representation"], args.base_dir)
    if rep.d < 2:
        raise SchemaError("correlate needs at least two factors")
    grid = parse_grid(config["t_grid"])
    L_max = int(config["L_max"])
    t0 = time.time()
    direction, dep = _direction(config, rep)
    if dep is None and rep.d >= 2:
        dep = reps.detect_dependence(rep, int(config.get("L_probe", 8)))
    widths = config.get("widths")
    if not isinstance(widths, list) or len(widths) != rep.d:
        raise SchemaError(f"'widths' must be a list of length {rep.d}")
    series, _ = census.census_box(
        rep, direction, [float(x) for x in widths], grid, L_max,
        workers=args.workers, force=args.force,
    )
    write_series_csv(series, out / "box_series.csv")
    emit_plot_data(series, out / "box_series.dat")
    populated = fitting.restrict_to_positive(series)
    fit = fitting.fit_growth(populated, fix_alpha=(rep.d - 1) / 2.0)
    write_fit_csv(fit, out / "box_fit.csv", label="box")
    emit_plot_data((populated, fit), out / "box_fit.dat")

    fgrid = parse_grid(config.get("factor_t_grid", config["t_grid"]))
    factor_fits = [
        fitting.factor_critical_exponent(rep, i, fgrid, L_max, workers=args.workers, force=args.force)
        for i in range(rep.d)
    ]
    for i, f in enumerate(factor_fits):
        write_fit_csv(f, out / f"factor{i}_fit.csv", label=f"factor{i}")
    bounds = fitting.check_correlation_bounds(
        fit.delta_hat,
        [f.delta_hat for f in factor_fits],
        direction,
        tol=float(config.get("bounds_tol", 0.1)),
    )
    _write_bounds(bounds, out)
    extra = {
        "direction": list(direction),
        "delta_hat": fit.delta_hat,
        "factor_deltas": [f.delta_hat for f in factor_fits],
        "t_trust": series.t_trust,
        "c_min_hat": series.c_min_hat,
        "bounds_pass": bool(bounds.pass_min_bound and (bounds.pass_mean_bound is not False)),
    }
    if dep is not None:
        extra["dependence"] = {
            "rank": dep.rank,
            "dependent": dep.dependent,
            "m_hat": dep.m_hat,
            "M_hat": dep.M_hat,
            "probe_core_length": dep.probe_core_length,
        }
    _manifest(out, "correlate", config, extra, t0, args.workers)
    return 0


def _write_bounds(bounds, out: Path):
    with _writer(out / "bounds.csv") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            ["delta_hat", "slack_min_bound", "slack_mean_bound", "tol", "pass_min", "pass_mean"]
        )
        w.writerow(
            [
                format(bounds.delta_hat, F17),
                format(bounds.slack_min_bound, F17),
                "" if bounds.slack_mean_bound is None else format(bounds.slack_mean_bound, F17),
                format(bounds.tol, F17),
                int(bounds.pass_min_bound),
                "" if bounds.pass_mean_bound is None else int(bounds.pass_mean_bound),
            ]
        )
    lines = [
        f"fitted correlation rate delta_hat = {bounds.delta_hat:.6g} along v = {bounds.direction}",
        f"factor rates = {tuple(round(x, 6) for x in bounds.factor_deltas)}",
        f"min-bound slack  (min_i delta_i v_i - delta_hat) = {bounds.slack_min_bound:.6g} "
        f"-> {'pass' if bounds.pass_min_bound else 'FAIL'} at tol {bounds.tol}",
    ]
    if bounds.slack_mean_bound is not None:
        lines.append(
            f"mean-bound slack ((1/d) sum delta_i v_i - delta_hat) = {bounds.slack_mean_bound:.6g} "
            f"-> {'pass' if bounds.pass_mean_bound else 'FAIL'} at tol {bounds.tol}"
        )
    with _writer(out / "bounds.txt") as fh:
        fh.write("\n".join(lines) + "\n")


def run_ratio(config, args, out: Path) -> int:
    rep = parse_representation(config["representation"], args.base_dir)
    grid = parse_grid(config["t_grid"])
    L_max = int(config["L_max"])
    t0 = time.time()
    family = parse_region(config["region"], rep.d)
    jordan = census.census_jordan(rep, family, grid, L_max, workers=args.workers, force=args.force)
    cartan = census.census_cartan(rep, family, grid, L_max, workers=args.workers, force=args.force)
    write_series_csv(jordan, out / "jordan_series.csv")
    write_series_csv(cartan, out / "cartan_series.csv")
    window = config.get("window")
    ratio = fitting.jordan_cartan_ratio(
        cartan, jordan, None if window is None else (float(window[0]), float(window[1]))
    )
    with _writer(out / "ratio.csv") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["slope", "intercept", "r_squared", "t_lo", "t_hi", "n_points"])
        w.writerow(
            [
                format(ratio.slope, F17),
                format(ratio.intercept, F17),
                format(ratio.r_squared, F17),
                format(ratio.window[0], F17),
                format(ratio.window[1], F17),
                ratio.n_points,
            ]
        )
    warn = ratio.r_squared < 0.85
    if warn:
        with _writer(out / "ratio_warning.txt") as fh:
            fh.write(
                f"ratio fit R^2 = {ratio.r_squared:.6g} below 0.85; the linear-in-T shape is "
                "not resolved at this horizon (slope sign is still reported)\n"
            )
    _manifest(
        out,
        "ratio",
        config,
        {"slope": ratio.slope, "intercept": ratio.intercept, "r_squared": ratio.r_squared,
         "warned": warn,
         "t_trust": {"jordan": jordan.t_trust, "cartan": cartan.t_trust},
         "c_min_hat": {"jordan": jordan.c_min_hat, "cartan": cartan.c_min_hat}},
        t0,
        args.workers,
    )
    return 0


def run_report(config, args, out: Path) -> int:
    rep = parse_representation(config["representation"], args.base_dir)
    t0 = time.time()
    L_max = int(config.get("L_max", 8))
    lines = [f"representation: d={rep.d} factors, rank k={rep.k}"]
    reports = reps.validate_representation(rep)
    for i, r in enumerate(reports):
        lines.append(f"factor {i}: ping-pong {'pass' if r.passed else 'FAIL'} margin={r.margin:.6g}")
    extra = {"validated": all(r.passed for r in reports)}
    if rep.d >= 2:
        dep = reps.detect_dependence(rep, int(config.get("L_probe", 8)))
        lines.append(
            f"dependence probe (core length <= {dep.probe_core_length}, {dep.n_classes} classes): "
            f"rank {dep.rank}/{rep.d} -> {'dependent' if dep.dependent else 'independent'}"
        )
        if dep.m_hat is not None:
            lines.append(f"stretch ratio range: m_hat={dep.m_hat:.6g} M_hat={dep.M_hat:.6g}")
        extra["dependence_rank"] = dep.rank
    for kind in ("jordan", "cartan"):
        t_trust, c_min = census.completeness_horizon(
            rep, L_max, kind, workers=args.workers, force=args.force
        )
        lines.append(f"{kind} horizon at L_max={L_max}: c_min_hat={c_min:.6g} T_trust={t_trust:.6g}")
        extra[f"{kind}_t_trust"] = t_trust
        extra[f"{kind}_c_min_hat"] = c_min
    with _writer(out / "report.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    _manifest(out, "report", config, extra, t0, args.workers)
    return 0


# ---------------------------------------------------------------------------
# entry point


RUNNERS = {
    "validate": run_validate,
    "census-jordan": lambda c, a, o: _series_run(c, a, o, "census-jordan"),
    "census-cartan": lambda c, a, o: _series_run(c, a, o, "census-cartan"),
    "census-box": lambda c, a, o: _series_run(c, a, o, "census-box"),
    "ladder": run_ladder,
    "correlate": run_correlate,
    "ratio": run_ratio,
    "report": run_report,
}


def _error_record(out: Path, exc: Exception):
    code = getattr(exc, "code", type(exc).__name__)
    record = {"code": code, "message": str(exc)}
    try:
        with open(out / "error.json", "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    except OSError:
        pass
    print(f"error [{code}]: {exc}", file=sys.stderr)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectra-census",
        description="Counting experiments on length and displacement spectra of "
        "Schottky representation tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--force", action="store_true", help="skip the ping-pong gate")
        p.add_argument("--dump-spectra", action="store_true", dest="dump_spectra")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    args.base_dir = Path(args.config).resolve().parent

    config = None
    try:
        config = _load_config(args.config)
        if "kind" in config and config["kind"] != args.command:
            raise SchemaError(
                f"config kind {config['kind']!r} does not match subcommand {args.command!r}"
            )
        return RUNNERS[args.command](config, args, out)
    except SpectraCensusError as exc:
        _error_record(out, exc)
        return 1
    except (KeyError, TypeError, ValueError) as exc:
        _error_record(out, SchemaError(f"bad config: {exc!r}"))
        return 1
    except KeyboardInterrupt:
        _error_record(out, Interrupted(f"{args.command} interrupted"))
        return 130


if __name__ == "__main__":
    sys.exit(main())
