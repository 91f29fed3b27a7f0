"""Seeded workload generator.

Each workload is a CLI subcommand plus a config document drawn from a seed.
Factor parameters are drawn from ranges where ``schottky_pair`` certifies
the ping-pong gate; a draw that fails certification is redrawn, never run
with ``--force``.  Seed 0 pins the real factors to the pair of the ROADMAP
baselines, ``schottky_pair(3, 3)`` joined with ``schottky_pair(5, 3)``.
"""

from __future__ import annotations

import random

A4_PAIR = ((3.0, 3.0), (5.0, 3.0))

# Full size: one child run of each takes about 3.5-5.5 s on a 2-core Xeon, so a
# 40 s run holds 5-8 of them and reports their median.
FULL = {"cartan-ladder": 12, "jordan-sectors": 13, "correlate-w2": 12}
# Smoke size: every workload in about a second.
SMOKE = {"cartan-ladder": 7, "jordan-sectors": 8, "correlate-w2": 8}
# Word length of the output-check twin walk.
TWIN_L_MAX = 6


def _certified(rng: random.Random, field: str, stretch_range, separation_range, tries=64):
    """Draw factor parameters until schottky_pair certifies them."""
    from spectra_census import reps

    for _ in range(tries):
        doc = {
            "builder": "schottky_pair",
            "stretch": round(rng.uniform(*stretch_range), 6),
            "separation": round(rng.uniform(*separation_range), 6),
            "field": field,
        }
        if field == "complex":
            doc["twist"] = round(rng.uniform(0.2, 1.4), 6)
        try:
            reps.schottky_pair(doc["stretch"], doc["separation"], field, doc.get("twist"))
        except reps.PingPongFailure:
            continue
        return doc
    raise RuntimeError("no certified draw in range; the ranges are wrong")


def _real_pair(rng: random.Random, seed: int):
    if seed == 0:
        return [
            {"builder": "schottky_pair", "stretch": s, "separation": sep, "field": "real"}
            for s, sep in A4_PAIR
        ]
    return [
        _certified(rng, "real", (2.8, 3.4), (2.8, 3.4)),
        _certified(rng, "real", (4.5, 5.5), (2.8, 3.4)),
    ]


def generate(name: str, seed: int, L_max: int) -> tuple:
    """(subcommand, workers, config) of one workload, drawn from the seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "cartan-ladder":
        return "ladder", 1, {
            "kind": "ladder",
            "representation": {"factors": _real_pair(rng, seed)},
            "direction": "auto",
            "L_probe": 8,
            "source": "cartan-tube",
            "epsilons": [1.6, 1.1, 0.8],
            "t_grid": {"t_min": 4.037, "t_max": 47.0, "step": 0.5},
            "L_max": L_max,
        }
    if name == "jordan-sectors":
        factor = _certified(rng, "complex", (2.8, 3.6), (2.8, 3.4))
        return "census-box", 1, {
            "kind": "census-box",
            "representation": factor,
            "direction": [1.0],
            "widths": [0.8],
            "sectors": 8,
            "t_grid": {"t_min": 2.017, "t_max": 30.9, "step": 0.8},
            "L_max": L_max,
        }
    if name == "correlate-w2":
        return "correlate", 2, {
            "kind": "correlate",
            "representation": {"factors": _real_pair(rng, seed)},
            "direction": "auto",
            "L_probe": 8,
            # unit widths leave the box series too sparse for the fit on some
            # seeds at L_max <= 10; width 2 fits every seed from 0 to 39
            "widths": [2.0, 2.0],
            "t_grid": {"t_min": 7.037, "t_max": 43.1, "step": 2.0},
            "factor_t_grid": {"t_min": 2.037, "t_max": 40.0, "step": 0.5},
            "L_max": L_max,
            "bounds_tol": 0.1,
        }
    raise KeyError(name)


def total_words(k: int, L_max: int) -> int:
    """Reduced words of length 1..L_max in rank k, from 2k(2k-1)^(n-1)."""
    return sum(2 * k * (2 * k - 1) ** (n - 1) for n in range(1, L_max + 1))

