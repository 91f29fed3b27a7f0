"""Every name the perfbench span tracer wraps resolves in the package, so a
rename that would blind the benchmark's per-layer metrics fails here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _tracer()
    census = importlib.import_module("spectra_census.census")
    for modname, fname, *_ in tracer.TRACED:
        module = importlib.import_module(f"spectra_census.{modname}")
        assert callable(getattr(module, fname, None)), f"{modname}.{fname}"
    for cls_name in tracer.FAMILIES:
        assert callable(getattr(getattr(census, cls_name, None), "count_grid", None)), cls_name
    # a shard task's span is named <layer>:<function>, the layer led by its module
    for name in tracer.SHARD_TASKS:
        layer, fname = name.split(":")
        module = importlib.import_module(f"spectra_census.{layer.split('.')[0]}")
        assert callable(getattr(module, fname, None)), name
