"""Batch front end: one experiment per invocation, JSON config in, CSV out.

main owns the run: it loads the config, parses its representation once,
spells the walk settings (workers, force, profile) once as args.walk, and
hands both to the subcommand's runner, (config, args, out, rep) -> dict,
which writes its artifacts and returns the MANIFEST extras it measured.
main then writes MANIFEST.json (config echo, versions, horizons, wall
time) next to the artifacts; a failure, or a validation that did not pass,
writes a machine-readable error.json and exits nonzero.  Numeric artifacts
are byte-stable across reruns and worker counts.
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
from .group import code_letter, letter_str
from .reps import SchemaError

F17 = ".17g"
F15 = ".15g"
MAX_GRID = 10**6  # T-grid points a config may ask for


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
    except OSError as exc:  # missing, a directory, unreadable
        raise SchemaError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config file {path} is not valid JSON: {exc}") from None


def _integer(key: str, value) -> int:
    """A config field that counts something: an integer, or an integral
    float; bools, strings and fractions are schema errors."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise SchemaError(f"'{key}' must be an integer, got {value!r}")
    return int(value)


def _number(key: str, value) -> float:
    """A config field that measures something: a finite float.  json.load
    reads NaN and Infinity, which no comparison downstream rejects; bools,
    strings and other values are schema errors, as in _integer."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"'{key}' must be a finite number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"'{key}' must be a finite number, got {value!r}")
    return number


def _vector(key: str, value, d: int) -> list:
    """A config field that is a point of R^d: a list of d finite numbers."""
    if not isinstance(value, list) or len(value) != d:
        raise SchemaError(f"'{key}' must be a list of length {d}")
    return [_number(key, x) for x in value]


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
        # every builder is rank 2; an explicit factor beside one is read alone
        rank = doc.get("rank", 2)
        return reps.join(*(
            _build_factor(f) if isinstance(f, dict) and "builder" in f
            else reps.load_representation({"rank": rank, "factors": [f]})
            for f in factors
        ))
    return reps.load_representation(doc)


def _build_factor(doc: dict) -> reps.Representation:
    name = doc.get("builder")
    if name != "schottky_pair":
        raise SchemaError(f"unknown builder {name!r}")
    try:
        stretch = _number("stretch", doc["stretch"])
        separation = _number("separation", doc["separation"])
    except (KeyError, TypeError, ValueError):
        raise SchemaError("schottky_pair needs numeric 'stretch' and 'separation'") from None
    field = doc.get("field", "real")
    twist = doc.get("twist")
    return reps.schottky_pair(stretch, separation, field, None if twist is None else _number("twist", twist))


def parse_grid(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise SchemaError("'t_grid' must be a mapping {t_min, t_max, step}")
    try:
        t_min, t_max, step = (_number(key, doc[key]) for key in ("t_min", "t_max", "step"))
    except (KeyError, TypeError, ValueError):
        raise SchemaError("'t_grid' needs numeric t_min, t_max, step") from None
    if step <= 0 or t_max <= t_min:
        raise SchemaError("'t_grid' needs step > 0 and t_max > t_min")
    span = (t_max - t_min) / step + 1e-9  # inf when it overflows a float
    if not span < MAX_GRID:  # refused before any allocation
        raise SchemaError(f"'t_grid' needs more than {MAX_GRID} points")
    return t_min + step * np.arange(int(math.floor(span)) + 1)


def parse_region(doc, d: int):
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError("'region' must be a mapping with a 'type'")
    rtype = doc["type"]
    try:
        direction = _vector("direction", doc.get("direction"), d)
        if rtype == "tube":
            offset = doc.get("offset")
            spec = regions.TubeSpec(
                regions.unit(direction),
                _number("epsilon", doc["epsilon"]),
                None if offset is None else [_number("offset", x) for x in offset],
            )
            return census.TubeBallFamily(spec)
        if rtype == "cone":
            spec = regions.ConeSpec(regions.unit(direction), _number("half_angle", doc["half_angle"]))
            return census.ConeBallFamily(spec)
        if rtype == "box":
            return census.BoxWindowFamily(direction, _vector("widths", doc.get("widths"), d))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad region spec: {exc}") from None
    raise SchemaError(f"unknown region type {rtype!r}")


def _dependence(config, rep):
    """The dependence probe of rep to the config's L_probe, 8 by default."""
    return reps.detect_dependence(rep, _integer("L_probe", config.get("L_probe", 8)))


def _direction(config, rep):
    doc = config.get("direction", "auto")
    if doc == "auto":
        if rep.d != 2:
            raise SchemaError("direction 'auto' needs exactly two factors")
        dep = _dependence(config, rep)
        return regions.unit([1.0, 0.5 * (dep.m_hat + dep.M_hat)]), dep
    return regions.unit(_vector("direction", doc, rep.d)), None


def _sector_edges(doc, points: int):
    """Holonomy sector edges from a bin count or a list of edges, refused
    before any allocation when the histogram's cells, points T-grid points
    times the sectors, exceed MAX_GRID."""
    if doc is None:
        return None
    bins = len(doc) - 1 if isinstance(doc, list) else _integer("sectors", doc)
    if bins * points > MAX_GRID:
        raise SchemaError(f"'sectors' times the {points} T-grid points exceeds {MAX_GRID} cells")
    if isinstance(doc, list):
        return [_number("sectors", x) for x in doc]
    if bins < 1:
        raise SchemaError("'sectors' bin count must be positive")
    return list(np.linspace(0.0, math.pi, bins + 1))


# ---------------------------------------------------------------------------
# artifact writers


def _writer(path: Path):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def _table(path: Path, header, rows):
    """A CSV table: the header row, then rows, each line ended by '\\n'."""
    with _writer(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _series_rows(series: CountSeries):
    """The T, count and trusted columns of a series."""
    return ([format(t, F17), c, int(tr)] for t, c, tr in zip(series.t_grid, series.counts, series.trusted))


def _model_rows(series: CountSeries, fit: FitResult):
    """T, count and the fitted model exp(delta T + log c) / T^alpha."""
    return ([format(t, F17), c, format(math.exp(fit.delta_hat * t + fit.log_c_hat) / t**fit.alpha_hat, F17)]
            for t, c in zip(series.t_grid, series.counts))


def write_series_csv(series: CountSeries, path: Path):
    _table(
        path,
        ["T", "count", "trusted", "kind", "region"],
        (row + [series.kind, series.region] for row in _series_rows(series)),
    )


def write_histograms_csv(histograms, path: Path):
    _table(
        path,
        ["factor", "T", "sector_lo", "sector_hi", "count"],
        ([factor, format(h.time, F17), format(lo, F17), format(hi, F17), c]
         for factor, hists in sorted(histograms.items())
         for h in hists
         for lo, hi, c in zip(h.sector_edges, h.sector_edges[1:], h.counts)),
    )


def write_fit_csv(fit: FitResult, path: Path, label: str = "fit"):
    floats = (fit.delta_hat, fit.alpha_hat, fit.log_c_hat, *fit.window, fit.rms_residual)
    _table(
        path,
        ["label", "delta_hat", "alpha_hat", "log_c_hat", "t_lo", "t_hi", "rms_residual", "n_points"],
        [[label, *(format(x, F17) for x in floats), fit.n_points]],
    )


def write_ladder_csv(ladder: LadderResult, path: Path):
    _table(
        path,
        ["source", "epsilon", "delta_hat", "extrapolated"],
        ([ladder.source, format(e, F17), format(dh, F17), format(ladder.extrapolated, F17)]
         for e, dh in zip(ladder.epsilons, ladder.delta_hats)),
    )


def emit_plot_data(path: Path, header, rows):
    """A gnuplot-ready table, in _table's shape: '# ' and the header, then
    rows, each value written by str() and separated by single spaces."""
    with _writer(path) as fh:
        fh.write("# " + " ".join(header) + "\n")
        for row in rows:
            fh.write(" ".join(str(x) for x in row) + "\n")


def write_spectra_csv(chunks, path: Path, d: int, kind: str):
    """The --dump-spectra table: one row per item of chunks, (letters,
    vectors (m, d), holonomies (m, d) or None) in stream order, with the
    word, its Cartan (mu) vector for census.KIND_CARTAN, else its Jordan
    (lambda) vector, and the holonomy of each complex factor."""
    label = "mu" if kind == census.KIND_CARTAN else "lambda"
    header = ["word"] + [f"{label}_{i}" for i in range(d)] + [f"holonomy_{i}" for i in range(d)]

    def rows():
        for letters, vectors, holos in chunks:
            # letter_str's token of each letter code, one ASCII byte each
            tokens = "".join(letter_str(code_letter(c)) for c in range(int(letters.max()) + 1))
            spelled = np.frombuffer(tokens.encode("ascii"), dtype=np.uint8).take(letters)
            for row in range(letters.shape[0]):
                word = spelled[row].tobytes().decode("ascii")
                vals = [format(x, F15) for x in vectors[row]]
                if holos is None:
                    hvals = [""] * d
                else:
                    hvals = ["" if math.isnan(h) else format(h, F15) for h in holos[row]]
                yield [word] + vals + hvals

    _table(path, header, rows())


def _finite(value):
    """value with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _manifest(out: Path, args, config: dict, extra: dict, rep):
    """Write MANIFEST.json: the command, config echo, workers, versions, the
    wall time since main started, and extra.  A run whose Cartan or class
    walks added to the profile of args.walk also gets a "profile" block:
    each factor of rep's certified defect constant (None where the lemma
    does not apply) and the Cartan vectors ("cartan_leaves") or classes
    ("class_leaves") evaluated, each summed over shards and walks.  The
    file is strict JSON: a non-finite float, such as the -inf rate of a
    ladder off the spectrum cone, is written as null."""
    doc = {
        "command": args.command,
        "config": config,
        "workers": args.workers,
        "versions": {
            "spectra_census": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": round(time.time() - args.t0, 3),
        **extra,
    }
    profile = args.walk["profile"]
    if profile:
        doc["profile"] = {
            "defect_constants": [reps.defect_constant(f) for f in rep.factors],
            **profile,
        }
    with _writer(out / "MANIFEST.json") as fh:
        json.dump(_finite(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# experiment runners


def run_validate(config, args, out: Path, rep) -> dict:
    reports = reps.validate_representation(rep)
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
    return {"passed": all(r.passed for r in reports), "margins": [r.margin for r in reports]}


def _series_run(config, args, out: Path, rep) -> dict:
    """census-jordan, census-cartan and census-box, by args.command."""
    grid = parse_grid(config["t_grid"])
    L_max = _integer("L_max", config["L_max"])
    if args.command == "census-box":
        direction, _ = _direction(config, rep)
        widths = _vector("widths", config.get("widths"), rep.d)
        sectors = _sector_edges(config.get("sectors"), grid.size)
    else:
        family = parse_region(config["region"], rep.d)
    primitive_only = bool(config.get("primitive_only", False))
    if args.command == "census-box":
        series, hists = census.census_box(
            rep, direction, widths, grid, L_max, sectors=sectors,
            primitive_only=primitive_only, **args.walk,
        )
        if hists:
            write_histograms_csv(hists, out / "holonomy.csv")
    elif args.command == "census-jordan":
        series = census.census_jordan(
            rep, family, grid, L_max, primitive_only=primitive_only, **args.walk
        )
    else:
        series = census.census_cartan(rep, family, grid, L_max, **args.walk)
    if args.dump_spectra:
        # every word or class, from one unpruned walk in this process
        stream = census.iter_word_chunks if series.kind == census.KIND_CARTAN else census.iter_class_chunks
        chunks = (chunk[:3] for chunk in stream(rep, L_max))
        write_spectra_csv(chunks, out / "spectra.csv", rep.d, series.kind)
    write_series_csv(series, out / "series.csv")
    emit_plot_data(out / "series.dat", ["T", "count", "trusted"], _series_rows(series))
    return {"t_trust": series.t_trust, "c_min_hat": series.c_min_hat, "kind": series.kind,
            "region": series.region}


def run_ladder(config, args, out: Path, rep) -> dict:
    grid = parse_grid(config["t_grid"])
    direction, _ = _direction(config, rep)
    source = config.get("source")
    if source not in fitting.LADDER_SOURCES:
        raise SchemaError(f"'source' must be one of {fitting.LADDER_SOURCES}")
    epsilons = config.get("epsilons")
    if not isinstance(epsilons, list) or not epsilons:
        raise SchemaError("'epsilons' must be a nonempty decreasing list")
    ladder = fitting.growth_indicator_ladder(
        rep, direction, [_number("epsilons", e) for e in epsilons], grid,
        _integer("L_max", config["L_max"]), source, **args.walk,
    )
    write_ladder_csv(ladder, out / "ladder.csv")
    emit_plot_data(
        out / "ladder.dat", ["epsilon", "delta_hat"],
        ([format(e, F17), format(dh, F17)] for e, dh in zip(ladder.epsilons, ladder.delta_hats)),
    )
    return {
        "extrapolated": ladder.extrapolated,
        "direction": list(ladder.direction),
        "t_trust": ladder.t_trust,
        "c_min_hat": ladder.c_min_hat,
    }


def run_correlate(config, args, out: Path, rep) -> dict:
    if rep.d < 2:
        raise SchemaError("correlate needs at least two factors")
    grid = parse_grid(config["t_grid"])
    L_max = _integer("L_max", config["L_max"])
    direction, dep = _direction(config, rep)
    dep = dep or _dependence(config, rep)
    widths = _vector("widths", config.get("widths"), rep.d)
    series, _ = census.census_box(rep, direction, widths, grid, L_max, **args.walk)
    write_series_csv(series, out / "box_series.csv")
    emit_plot_data(out / "box_series.dat", ["T", "count", "trusted"], _series_rows(series))
    populated = fitting.restrict_to_positive(series)
    fit = fitting.fit_growth(populated, fix_alpha=(rep.d - 1) / 2.0)
    write_fit_csv(fit, out / "box_fit.csv", label="box")
    emit_plot_data(out / "box_fit.dat", ["T", "count", "model"], _model_rows(populated, fit))

    fgrid = parse_grid(config.get("factor_t_grid", config["t_grid"]))
    factor_fits = [
        fitting.factor_critical_exponent(rep, i, fgrid, L_max, **args.walk) for i in range(rep.d)
    ]
    for i, f in enumerate(factor_fits):
        write_fit_csv(f, out / f"factor{i}_fit.csv", label=f"factor{i}")
    bounds = fitting.check_correlation_bounds(
        fit.delta_hat,
        [f.delta_hat for f in factor_fits],
        direction,
        tol=_number("bounds_tol", config.get("bounds_tol", 0.1)),
    )
    _write_bounds(bounds, out)
    return {
        "direction": list(direction),
        "delta_hat": fit.delta_hat,
        "factor_deltas": [f.delta_hat for f in factor_fits],
        "t_trust": series.t_trust,
        "c_min_hat": series.c_min_hat,
        "bounds_pass": bool(bounds.pass_min_bound and (bounds.pass_mean_bound is not False)),
        "dependence": {
            "rank": dep.rank,
            "dependent": dep.dependent,
            "m_hat": dep.m_hat,
            "M_hat": dep.M_hat,
            "probe_core_length": dep.probe_core_length,
        },
    }


def _write_bounds(bounds, out: Path):
    _table(
        out / "bounds.csv",
        ["delta_hat", "slack_min_bound", "slack_mean_bound", "tol", "pass_min", "pass_mean"],
        [[
            format(bounds.delta_hat, F17),
            format(bounds.slack_min_bound, F17),
            "" if bounds.slack_mean_bound is None else format(bounds.slack_mean_bound, F17),
            format(bounds.tol, F17),
            int(bounds.pass_min_bound),
            "" if bounds.pass_mean_bound is None else int(bounds.pass_mean_bound),
        ]],
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


def run_ratio(config, args, out: Path, rep) -> dict:
    grid = parse_grid(config["t_grid"])
    L_max = _integer("L_max", config["L_max"])
    family = parse_region(config["region"], rep.d)
    jordan = census.census_jordan(rep, family, grid, L_max, **args.walk)
    cartan = census.census_cartan(rep, family, grid, L_max, **args.walk)
    write_series_csv(jordan, out / "jordan_series.csv")
    write_series_csv(cartan, out / "cartan_series.csv")
    window = config.get("window")
    ratio = fitting.jordan_cartan_ratio(
        cartan, jordan, None if window is None else tuple(_vector("window", window, 2))
    )
    _table(
        out / "ratio.csv",
        ["slope", "intercept", "r_squared", "t_lo", "t_hi", "n_points"],
        [[*(format(x, F17) for x in (ratio.slope, ratio.intercept, ratio.r_squared, *ratio.window)),
          ratio.n_points]],
    )
    warn = ratio.r_squared < 0.85
    if warn:
        with _writer(out / "ratio_warning.txt") as fh:
            fh.write(
                f"ratio fit R^2 = {ratio.r_squared:.6g} below 0.85; the linear-in-T shape is "
                "not resolved at this horizon (slope sign is still reported)\n"
            )
    return {"slope": ratio.slope, "intercept": ratio.intercept, "r_squared": ratio.r_squared,
            "warned": warn,
            "t_trust": {"jordan": jordan.t_trust, "cartan": cartan.t_trust},
            "c_min_hat": {"jordan": jordan.c_min_hat, "cartan": cartan.c_min_hat}}


def run_report(config, args, out: Path, rep) -> dict:
    L_max = _integer("L_max", config.get("L_max", 8))
    lines = [f"representation: d={rep.d} factors, rank k={rep.k}"]
    reports = reps.validate_representation(rep)
    for i, r in enumerate(reports):
        lines.append(f"factor {i}: ping-pong {'pass' if r.passed else 'FAIL'} margin={r.margin:.6g}")
    extra = {"validated": all(r.passed for r in reports)}
    if rep.d >= 2:
        dep = _dependence(config, rep)
        lines.append(
            f"dependence probe (core length <= {dep.probe_core_length}, {dep.n_classes} classes): "
            f"rank {dep.rank}/{rep.d} -> {'dependent' if dep.dependent else 'independent'}"
        )
        if dep.m_hat is not None:
            lines.append(f"stretch ratio range: m_hat={dep.m_hat:.6g} M_hat={dep.M_hat:.6g}")
        extra["dependence_rank"] = dep.rank
    for kind in ("jordan", "cartan"):
        t_trust, c_min = census.completeness_horizon(rep, L_max, kind, **args.walk)
        lines.append(f"{kind} horizon at L_max={L_max}: c_min_hat={c_min:.6g} T_trust={t_trust:.6g}")
        extra[f"{kind}_t_trust"] = t_trust
        extra[f"{kind}_c_min_hat"] = c_min
    with _writer(out / "report.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    return extra


# ---------------------------------------------------------------------------
# entry point


RUNNERS = {
    "validate": run_validate,
    "census-jordan": _series_run,
    "census-cartan": _series_run,
    "census-box": _series_run,
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
        if name.startswith("census-"):
            p.add_argument("--dump-spectra", action="store_true", dest="dump_spectra")
    args = parser.parse_args(argv)
    base_dir = Path(args.config).resolve().parent
    # _manifest reads the wall time from t0; Cartan and class walks add their
    # counters to the walk's profile, which _manifest writes as "profile"
    args.t0 = time.time()
    args.walk = dict(workers=args.workers, force=args.force, profile={})

    out = Path(args.out)
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create {out}: {exc}") from None
        if args.workers < 1:
            raise SchemaError(f"--workers must be at least 1, got {args.workers}")
        config = _load_config(args.config)
        if "kind" in config and config["kind"] != args.command:
            raise SchemaError(
                f"config kind {config['kind']!r} does not match subcommand {args.command!r}"
            )
        rep = parse_representation(config["representation"], base_dir)
        extra = RUNNERS[args.command](config, args, out, rep)
        _manifest(out, args, config, extra, rep)
        if extra.get("passed") is False:
            raise reps.PingPongFailure("one or more factors failed validation")
        return 0
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
