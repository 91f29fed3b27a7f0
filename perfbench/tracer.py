"""Span tracer for one spectra-census CLI process, installed from outside the package.

``install`` rebinds each traced function in every ``spectra_census`` module
that holds a reference to it (``fitting`` imports ``census_cartan`` and the
``iter_*`` generators by name, ``reps`` imports the group enumerators), and
patches ``count_grid`` on every region family class.  Spans carry name,
start, end and parent; they stay in memory and are written as one JSON line
per flush.  Forked pool workers inherit the wrappers; each one clears the
copied state after the fork and flushes to its own file whenever its span
stack empties, i.e. after every shard task.

``summarize`` turns the span files of one run into the per-layer metrics.
A span name is ``<layer>:<function>``; a layer's self time is the time its
spans cover minus the time covered by their child spans in the same process.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        if not self.stack and os.getpid() != self.root_pid:
            self.flush()

    def count(self, key: str, n: float = 1):
        self.counts[key] += n

    def maximum(self, key: str, value: float):
        self.counts[key] = max(self.counts[key], value)

    def flush(self):
        line = {"pid": os.getpid(), "root": os.getpid() == self.root_pid,
                "spans": self.spans, "counts": dict(self.counts)}
        with open(self.span_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(line) + "\n")
        self._reset()


# ---------------------------------------------------------------------------
# wrappers


def _span(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result
        finally:
            tracer.end(idx)

    return traced


def _span_generator(tracer, name, fn):
    """One span per next() of the wrapped generator, so the consumer's own
    work between items is not charged to it."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            idx = tracer.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.end(idx)
            yield item

    return traced


def _counter(tracer, key, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    return counted


def _rows_in(key):
    return lambda tracer, args, result: tracer.count(key, args[0].shape[0])


def _rows_out(key):
    return lambda tracer, args, result: tracer.count(key, result.shape[0])


def _kept(tracer, args, result):
    tracer.count("census.necklace.kept", int(result.sum()))


def _classify_rows(tracer, args, result):
    tracer.count("census.classify.rows", args[1].shape[0])


def _ladder_rss(tracer, args, result):
    tracer.maximum("fitting.ladder.rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def _fit_calls(tracer, args, result):
    tracer.count("fitting.fit.calls")


def _dependence_classes(tracer, args, result):
    tracer.count("reps.dependence.classes", result.n_classes)


# (module, function, layer, kind, after); kind is "span", "gen" or "count".
TRACED = (
    ("census", "decode_words", "census.decode", "span", _rows_out("census.decode.rows")),
    ("census", "cyclically_reduced_mask", "census.necklace", "span", _rows_in("census.necklace.rows_in")),
    ("census", "canonical_mask", "census.necklace", "span", _kept),
    ("census", "periods", "census.necklace", "span", None),
    ("census", "evaluate_chunk", "census.evaluate", "span", _rows_in("census.evaluate.rows")),
    ("census", "jordan_chunk", "census.spectrum", "span", None),
    ("census", "cartan_chunk", "census.spectrum", "span", None),
    ("census", "census_jordan", "census.walk", "span", None),
    ("census", "census_cartan", "census.walk", "span", None),
    ("census", "census_box", "census.walk", "span", None),
    ("census", "completeness_horizon", "census.walk", "span", None),
    ("census", "iter_word_chunks", "census.walk", "gen", None),
    ("census", "iter_class_chunks", "census.walk", "gen", None),
    ("census", "_jordan_partial", "census.walk", "span", None),
    ("census", "_cartan_partial", "census.walk", "span", None),
    ("census", "_box_partial", "census.walk", "span", None),
    ("census", "_run_sharded", "census.shard", "span", None),
    ("fitting", "growth_indicator_ladder", "fitting.ladder", "span", _ladder_rss),
    ("fitting", "factor_critical_exponent", "fitting.factor", "span", None),
    ("fitting", "fit_growth", "fitting.fit", "span", _fit_calls),
    ("fitting", "restrict_to_positive", "fitting.fit", "span", None),
    ("fitting", "check_correlation_bounds", "fitting.fit", "span", None),
    ("fitting", "jordan_cartan_ratio", "fitting.fit", "span", None),
    ("reps", "validate_ping_pong", "reps.gate", "span", None),
    ("reps", "detect_dependence", "reps.dependence", "span", _dependence_classes),
    ("group", "enumerate_reduced_words", "group.enumerate", "gen", None),
    ("group", "enumerate_conjugacy_classes", "group.enumerate", "gen", None),
    ("algebra", "mul", "algebra.mul.calls", "count", None),
    ("cli", "_load_config", "cli.parse", "span", None),
    ("cli", "parse_representation", "cli.parse", "span", None),
    ("cli", "parse_grid", "cli.parse", "span", None),
    ("cli", "parse_region", "cli.parse", "span", None),
    ("cli", "_sector_edges", "cli.parse", "span", None),
    ("cli", "write_series_csv", "cli.write", "span", None),
    ("cli", "write_histograms_csv", "cli.write", "span", None),
    ("cli", "write_fit_csv", "cli.write", "span", None),
    ("cli", "write_ladder_csv", "cli.write", "span", None),
    ("cli", "emit_plot_data", "cli.write", "span", None),
    ("cli", "_manifest", "cli.write", "span", None),
    ("cli", "_write_bounds", "cli.write", "span", None),
)

FAMILIES = ("TubeBallFamily", "ConeBallFamily", "BoxWindowFamily", "CoordinateRayFamily",
            "TruncatedTubeFamily")

# Task bodies of _run_sharded: their spans are the per-worker busy time.
SHARD_TASKS = {"census.walk:_jordan_partial", "census.walk:_cartan_partial", "census.walk:_box_partial"}


def _rebind(original, replacement):
    for modname, module in list(sys.modules.items()):
        if modname != "spectra_census" and not modname.startswith("spectra_census."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap every traced function of the imported package in place."""
    import importlib

    for modname, fname, layer, kind, after in TRACED:
        module = importlib.import_module(f"spectra_census.{modname}")
        original = getattr(module, fname)
        if kind == "count":
            wrapped = _counter(tracer, layer, original)
        elif kind == "gen":
            wrapped = _span_generator(tracer, f"{layer}:{fname}", original)
        else:
            wrapped = _span(tracer, f"{layer}:{fname}", original, after)
        _rebind(original, wrapped)
    census = importlib.import_module("spectra_census.census")
    for cls_name in FAMILIES:
        cls = getattr(census, cls_name)
        cls.count_grid = _span(tracer, f"census.classify:{cls_name}.count_grid", cls.count_grid,
                               _classify_rows)


# ---------------------------------------------------------------------------
# summary


def _self_times(spans):
    """Per span: duration minus the duration of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (name, start, end, parent), c in zip(spans, child)]


def load_spans(span_dir: Path):
    """Flushed span lines of every process of one run."""
    lines = []
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            lines.extend(json.loads(line) for line in fh if line.strip())
    return lines


def _shard_calls(lines):
    """Per _run_sharded call: (call wall, busy seconds of each worker)."""
    calls = []
    tasks = [(ln["pid"], s[1], s[2]) for ln in lines for s in ln["spans"] if s[0] in SHARD_TASKS]
    for ln in lines:
        if not ln["root"]:
            continue
        for name, start, end, _ in ln["spans"]:
            if name != "census.shard:_run_sharded":
                continue
            busy = defaultdict(float)
            for pid, t0, t1 in tasks:
                if start <= t0 and t1 <= end:
                    busy[pid] += t1 - t0
            calls.append((end - start, list(busy.values())))
    return calls


def summarize(lines, wall_s: float) -> dict:
    """Per-layer self times (all processes), counters and shard balance."""
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    root_self = defaultdict(float)
    counts = defaultdict(float)
    root_span_s = 0.0
    for ln in lines:
        for key, value in ln["counts"].items():
            counts[key] = max(counts[key], value) if key.endswith("rss_mb") else counts[key] + value
        outer = []  # per span: layers of its ancestors (a parent precedes its children)
        for (name, start, end, parent), own in zip(ln["spans"], _self_times(ln["spans"])):
            layer = name.split(":", 1)[0]
            outer.append(outer[parent] | {ln["spans"][parent][0].split(":", 1)[0]}
                         if parent >= 0 else frozenset())
            self_s[layer] += own
            if ln["root"]:
                root_self[layer] += own
                if parent < 0:
                    root_span_s += end - start
            if layer not in outer[-1]:
                incl_s[layer] += end - start
    calls = _shard_calls(lines)
    busy = [b for _, per in calls for b in per]
    max_busy = sum(max(per) for _, per in calls if per)
    mean_busy = sum(sum(per) / len(per) for _, per in calls if per)
    startup = wall_s - root_span_s
    total = sum(self_s.values()) + startup

    def share(layer):
        return self_s[layer] / total if total > 0 else 0.0

    evaluate_s = self_s["census.evaluate"]
    scanned = counts["census.necklace.rows_in"]
    return {
        "layers": {"self_s": dict(self_s), "root_self_s": dict(root_self), "inclusive_s": dict(incl_s)},
        "workers": [per for _, per in calls],
        "metrics": {
            "census.evaluate.s": evaluate_s,
            "census.evaluate.rows": counts["census.evaluate.rows"],
            "census.evaluate.rows_per_s": counts["census.evaluate.rows"] / evaluate_s if evaluate_s else 0.0,
            "census.evaluate.share": share("census.evaluate"),
            "census.decode.s": self_s["census.decode"],
            "census.decode.rows": counts["census.decode.rows"],
            "census.necklace.s": self_s["census.necklace"],
            "census.necklace.rows_in": scanned,
            "census.necklace.kept_ratio": counts["census.necklace.kept"] / scanned if scanned else 0.0,
            "census.necklace.share": share("census.necklace"),
            "census.spectrum.s": self_s["census.spectrum"],
            "census.classify.s": self_s["census.classify"],
            "census.classify.rows": counts["census.classify.rows"],
            "census.walk.self_s": self_s["census.walk"],
            "census.shard.calls": len(calls),
            "census.shard.busy_s": sum(busy),
            "census.shard.busy_max_s": max_busy,
            "census.shard.imbalance": max_busy / mean_busy if mean_busy else 0.0,
            "census.shard.overhead_s": sum(w for w, per in calls) - max_busy,
            "fitting.ladder.self_s": self_s["fitting.ladder"],
            "fitting.ladder.rss_mb": counts["fitting.ladder.rss_mb"],
            "fitting.factor.s": incl_s["fitting.factor"],
            "fitting.fit.s": self_s["fitting.fit"],
            "fitting.fit.calls": counts["fitting.fit.calls"],
            "reps.gate.s": self_s["reps.gate"],
            "reps.dependence.s": incl_s["reps.dependence"],
            "reps.dependence.classes": counts["reps.dependence.classes"],
            "group.enumerate.s": self_s["group.enumerate"],
            "algebra.mul.calls": counts["algebra.mul.calls"],
            "cli.parse.s": self_s["cli.parse"],
            "cli.write.s": self_s["cli.write"],
            "trace.startup_s": startup,
            # share of the traced wall inside layer spans of the CLI process; the rest is
            # interpreter start-up (trace.startup_s) and cli.main's own glue
            "trace.accounted_share": (
                (sum(root_self.values()) - root_self["cli.main"]) / wall_s if wall_s else 0.0
            ),
        },
    }


def main(argv) -> int:
    """traced_cli entry: <span_dir> <spectra-census arguments...>"""
    tracer = Tracer(Path(argv[0]))
    from spectra_census import cli

    install(tracer)
    idx = tracer.begin("cli.main:main")
    try:
        return cli.main(argv[1:])
    finally:
        tracer.end(idx)
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
