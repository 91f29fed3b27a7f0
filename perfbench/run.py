#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the spectra-census CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cartan-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload, one table
    python3 perfbench/run.py --workload all --seed 1 --smoke --trace 1   # seconds, for tests
    python3 perfbench/run.py --crosscheck                          # traced shares on the A4 pair

Every workload runs the CLI from ``src/`` in fresh child processes with the
BLAS thread pools pinned to one thread and no more workers than CPUs.  The
timed region runs children back to back, each after two set-up probes; the
output check and the summaries run after it.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_PROBES_PER_CHILD = 2
CHILD_TIMEOUT_S = 150.0
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "words_per_s": "1/s",
                    "setup_s": "s"}


def per_layer_units() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def machine() -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: "1" for name in THREAD_PINS})
    return env


def run_child(argv: list, log: Path) -> dict:
    """Run one child to exit; wall from exec to exit, CPU and peak RSS from wait4
    (which include the pool workers the child waited for)."""
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=err, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:  # interrupted: stop the child and its workers first
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def digest(out_dir: Path) -> str:
    """sha256 over the numeric artifacts (CSV and .dat), by name."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.suffix in (".csv", ".dat"):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file() and p.suffix != ".log")


def median(values):
    return statistics.median(values) if values else 0.0


class Workload:
    def __init__(self, name: str, seed: int, smoke: bool, tag: str = ""):
        self.name, self.seed = name, seed
        self.L_max = (workloads.SMOKE if smoke else workloads.FULL)[name]
        self.command, workers, self.config = workloads.generate(name, seed, self.L_max)
        self.workers = min(workers, len(os.sched_getaffinity(0)))
        self.dir = OUT / f"{name}-{seed}{tag}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1) + "\n")
        self.words = workloads.total_words(2, self.L_max)
        self.runs = []
        self.setups = []

    def setup(self):
        self.setups.append(run_child(
            [sys.executable, str(HERE / "setup_probe.py"), str(self.config_path)],
            self.dir / "setup.log"))

    def run(self, traced: bool) -> dict:
        """One CLI child on a fresh output directory, checked after exit."""
        i = len(self.runs)
        out = self.dir / f"run{i}"
        out.mkdir()
        cli_args = [self.command, "--config", str(self.config_path), "--out", str(out),
                    "--workers", str(self.workers)]
        if traced:
            spans = self.dir / f"spans{i}"
            spans.mkdir()
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans)] + cli_args
        else:
            argv = [sys.executable, "-m", "spectra_census"] + cli_args
        result = run_child(argv, self.dir / f"run{i}.log")
        result.update(traced=traced, out=out, words_per_s=self.words / result["wall_s"])
        result["problems"] = []
        if result["rc"] != 0:
            result["problems"].append(f"exit code {result['rc']}")
        if (out / "error.json").exists():
            error = json.loads((out / "error.json").read_text())
            result["problems"].append(f"error.json {error['code']}: {error['message']}")
        if not (out / "MANIFEST.json").exists():
            result["problems"].append("no MANIFEST.json")
        result["digest"] = digest(out)
        if traced:
            import tracer

            result["layers"] = tracer.summarize(tracer.load_spans(spans), result["wall_s"])
            result["layers"]["metrics"]["cli.write.bytes"] = artifact_bytes(out)
        self.runs.append(result)
        return result

    def timed_loop(self, seconds: float, kinds: tuple, probes: int):
        """Children back to back, cycling through kinds (traced or not), each
        after `probes` set-up probes, while the next step is expected to end in
        time; at least one child of each kind.  Interleaving the probes spreads
        both kinds of sample over the whole run, so a drift in machine speed
        moves them alike."""
        t0 = time.perf_counter()
        steps = []
        for traced in itertools.cycle(kinds):
            start = time.perf_counter()
            for _ in range(probes):
                self.setup()
            self.run(traced)
            steps.append(time.perf_counter() - start)
            if len(steps) >= len(kinds) and time.perf_counter() - t0 + median(steps) > seconds:
                return

    def check(self, twin_L_max: int) -> list:
        """Output check, outside the timed region: digests agree across runs and
        the twin walk matches the oracle."""
        import oracle

        problems = []
        digests = {r["digest"] for r in self.runs}
        if len(digests) != 1:
            problems.append(f"artifact digests differ across runs: {sorted(digests)}")
        manifest = json.loads((self.runs[0]["out"] / "MANIFEST.json").read_text())
        try:
            problems += oracle.twin_check(self.name, self.config, manifest, twin_L_max,
                                          self.workers)
        except Exception as exc:  # any failure of the twin is a failed check
            problems.append(f"twin walk raised {type(exc).__name__}: {exc}")
        return problems


def bench(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    wl = Workload(name, seed, smoke)
    # a traced run alternates untraced and traced children, so that the
    # tracing overhead compares neighbours in time; set-up is measured untraced
    if trace:
        wl.timed_loop(seconds, (False, True), probes=0)
    else:
        wl.timed_loop(seconds, (False,), probes=1 if smoke else SETUP_PROBES_PER_CHILD)
    setup = wl.setups
    problems = []
    if any(s["rc"] != 0 for s in setup):
        problems.append("set-up probe failed")
    if not any(r["problems"] for r in wl.runs):
        problems += wl.check(workloads.SMOKE[name] if smoke else workloads.TWIN_L_MAX)
    failed = sum(1 for r in wl.runs if r["problems"] or problems)
    untraced = [r for r in wl.runs if not r["traced"]]
    metrics = {
        "wall_s": median([r["wall_s"] for r in untraced]),
        "cpu_s": median([r["cpu_s"] for r in untraced]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        "words_per_s": median([r["words_per_s"] for r in untraced]),
    }
    if setup:
        metrics["setup_s"] = median([s["wall_s"] for s in setup])
    result = {
        "workload": name, "seed": seed, "L_max": wl.L_max, "workers": wl.workers,
        "words": wl.words, "machine": machine(), "config": wl.config,
        "digest": wl.runs[0]["digest"], "samples": len(untraced), "setup_samples": len(setup),
        "attempted": len(wl.runs), "failed": failed,
        "problems": problems + [p for r in wl.runs for p in r["problems"]],
        "end_to_end": metrics,
        "wall_samples": [r["wall_s"] for r in untraced],
        "setup_samples_s": [s["wall_s"] for s in setup],
    }
    if trace:
        traced = [r for r in wl.runs if r["traced"]]
        layer = {key: median([r["layers"]["metrics"][key] for r in traced])
                 for key in traced[0]["layers"]["metrics"]}
        layer["trace.wall_s"] = median([r["wall_s"] for r in traced])
        layer["trace.untraced_wall_s"] = metrics["wall_s"]
        layer["trace.overhead_s"] = layer["trace.wall_s"] - metrics["wall_s"]
        layer["trace.overhead_share"] = layer["trace.overhead_s"] / metrics["wall_s"]
        result["per_layer"] = layer
        result["trace_samples"] = len(traced)
        result["layers"] = traced[0]["layers"]["layers"]
        result["shard_workers"] = traced[0]["layers"]["workers"]
    with open(wl.dir / "result.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    return result


# ---------------------------------------------------------------------------
# reports


def print_report(r: dict):
    m = r["machine"]
    print(f"== {r['workload']} seed={r['seed']} L_max={r['L_max']} workers={r['workers']} "
          f"words={r['words']} | nproc={m['nproc']} cpu={m['cpu']!r} "
          f"python={m['python']} numpy={m['numpy']}")
    print(f"   config: {json.dumps(r['config']['representation'])}")
    fail_rate = r["failed"] / r["attempted"]
    verdict = "PASS" if not r["problems"] else "FAIL: " + "; ".join(r["problems"])
    print(f"   output check: {verdict} (artifact digest {r['digest']})")
    for key, value in r["end_to_end"].items():
        count = r["setup_samples"] if key == "setup_s" else r["samples"]
        print(f"   {key:<12} {value:14.6g} {END_TO_END_UNITS[key]:<4} median of {count}")
    for key in ("wall_samples", "setup_samples_s"):
        print(f"   {key}: " + " ".join(f"{x:.3f}" for x in r[key]))
    print(f"   {'fail_rate':<12} {fail_rate:14.6g} {'1':<4} {r['failed']} of {r['attempted']} runs")
    if "per_layer" in r:
        print(f"   traced ({r['trace_samples']} runs); self seconds by layer, all processes:")
        total = sum(r["layers"]["self_s"].values())
        for layer, s in sorted(r["layers"]["self_s"].items(), key=lambda kv: -kv[1]):
            root = r["layers"]["root_self_s"].get(layer, 0.0)
            print(f"     {layer:<18} {s:9.4f} s {100 * s / total:5.1f}%  (CLI process {root:.4f} s)")
        for i, busy in enumerate(r["shard_workers"]):
            print(f"     shard call {i}: worker busy " + ", ".join(f"{b:.3f} s" for b in busy))
        units = per_layer_units()
        for key, value in r["per_layer"].items():
            print(f"   {key:<28} {value:14.6g} {units.get(key, '')}")


def final_line(results: list, trace: bool, prefix: bool):
    metrics = {}
    units = per_layer_units() if trace else END_TO_END_UNITS
    for r in results:
        values = r["per_layer"] if trace else r["end_to_end"]
        for key, unit in units.items():
            name = f"{r['workload']}.{key}" if prefix else key
            metrics[name] = {"value": values[key], "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0 and not any(r["problems"] for r in results),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))


def crosscheck() -> int:
    """Traced Cartan and Jordan tube censuses on the A4 pair at L_max 14,
    for comparison with the ROADMAP baseline shares (94% evaluate, 61% necklace)."""
    _, _, ladder = workloads.generate("cartan-ladder", 0, 14)
    rows = []
    for command, layer in (("census-cartan", "census.evaluate"), ("census-jordan", "census.necklace")):
        wl = Workload("cartan-ladder", 0, smoke=False, tag="-" + command)
        wl.command = command
        # the tube region of configs/ratio_tube.json
        wl.config = {"kind": command, "representation": ladder["representation"],
                     "region": {"type": "tube", "direction": [0.5851252923490876, 0.810942903201819],
                                "epsilon": 1.1},
                     "t_grid": ladder["t_grid"], "L_max": 14}
        wl.config_path.write_text(json.dumps(wl.config))
        r = wl.run(traced=True)
        walk = r["layers"]["layers"]["inclusive_s"]["census.walk"]
        own = r["layers"]["layers"]["self_s"][layer]
        rows.append((command, layer, own, walk, r["wall_s"], r["problems"]))
    for command, layer, own, walk, wall, problems in rows:
        print(f"{command} L_max=14 A4 pair: {layer} {own:.2f} s of census walk {walk:.2f} s "
              f"= {100 * own / walk:.1f}% (traced wall {wall:.2f} s){' ' + str(problems) if problems else ''}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.FULL) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny L_max, one child per workload")
    parser.add_argument("--crosscheck", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "spectra_census" / "cli.py").is_file():
        print(f"no spectra_census package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.crosscheck:
        return crosscheck()
    names = list(workloads.FULL) if args.workload == "all" else [args.workload]
    seconds = 0.0 if args.smoke else args.seconds
    results = []
    for name in names:
        results.append(bench(name, args.seed, seconds, bool(args.trace), args.smoke))
        print_report(results[-1])
    final_line(results, bool(args.trace), prefix=len(names) > 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
