"""Output check: a small-L_max twin of each workload's walk against a scalar oracle.

The twin runs through the public ``census_cartan`` / ``census_box`` calls
with the workload's representation, region or sectors and grid.  The oracle
recounts the same cells word by word in plain Python: its own generator
matrices (rebuilt from the ``schottky_pair`` parameters), its own reduced
word and necklace enumeration, exact 2x2 products (no renormalization at
these lengths) and closed-form spectra.  It imports nothing from the
package.  Counts must agree exactly.
"""

from __future__ import annotations

import bisect
import cmath
import math
from pathlib import Path

# ---------------------------------------------------------------------------
# scalar oracle


def generator_images(doc: dict) -> list:
    """g1, g1^-1, g2, g2^-1 of a schottky_pair builder document, as (a, b, c, d)."""
    s, sep = float(doc["stretch"]), float(doc["separation"])
    twist = float(doc.get("twist") or 0.0)
    if doc.get("field", "real") == "complex":
        a, d = s * cmath.exp(1j * twist), cmath.exp(-1j * twist) / s
    else:
        a, d = s, 1.0 / s
    g1 = (a, 0.0, 0.0, d)
    ch, sh = math.cosh(sep / 2.0), math.sinh(sep / 2.0)
    g2 = _mul(_mul((ch, sh, sh, ch), g1), (ch, -sh, -sh, ch))
    return [g1, _inverse(g1), g2, _inverse(g2)]


def _mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _inverse(x):
    return (x[3], -x[1], -x[2], x[0])


def reduced_words(k: int, L_max: int):
    """Every reduced word of length 1..L_max as a tuple of letter codes
    (code c and c ^ 1 are inverse letters)."""
    frontier = [(c,) for c in range(2 * k)]
    while frontier:
        yield from frontier
        if len(frontier[0]) == L_max:
            return
        frontier = [w + (c,) for w in frontier for c in range(2 * k) if c != w[-1] ^ 1]


def necklaces(k: int, L_max: int):
    """One cyclically reduced word per conjugacy class: the least rotation."""
    for w in reduced_words(k, L_max):
        n = len(w)
        if n > 1 and w[-1] == w[0] ^ 1:
            continue
        if all(w <= w[i:] + w[:i] for i in range(1, n)):
            yield w


def product(images, word):
    out = images[word[0]]
    for c in word[1:]:
        out = _mul(out, images[c])
    return out


def cartan(m) -> float:
    """Twice the log of the top singular value of a unimodular matrix."""
    fro2 = sum(abs(x) ** 2 for x in m)
    return math.log((fro2 + math.sqrt(fro2 * fro2 - 4.0)) / 2.0)


def jordan(m):
    """(twice the log modulus of the dominant eigenvalue, its angle mod pi)."""
    t = m[0] + m[3]
    r = cmath.sqrt(t * t - 4.0)
    lam = max((t + r) / 2.0, (t - r) / 2.0, key=abs)
    return 2.0 * math.log(abs(lam)), cmath.phase(lam) % math.pi


def count_tube(X, v, eps, grid):
    norms = []
    for x in X:
        along = sum(a * b for a, b in zip(x, v))
        dist = math.sqrt(sum((a - along * b) ** 2 for a, b in zip(x, v)))
        if dist <= eps and all(a >= 0.0 for a in x):
            norms.append(math.sqrt(sum(a * a for a in x)))
    return [sum(1 for r in norms if r <= t) for t in grid]


def count_ray(values, grid):
    return [sum(1 for x in values if x <= t) for t in grid]


def box_window(x, v, widths):
    lo = max((a - w) / b for a, w, b in zip(x, widths, v))
    hi = min(a / b for a, b in zip(x, v))
    return lo, hi


def count_box(X, v, widths, grid):
    windows = [box_window(x, v, widths) for x in X]
    return [sum(1 for lo, hi in windows if lo <= t <= hi) for t in grid]


def sector_histograms(X, H, v, widths, grid, edges):
    """Per grid time, holonomy sector counts of the rows inside the box."""
    out = []
    for t in grid:
        hist = [0] * (len(edges) - 1)
        for x, h in zip(X, H):
            lo, hi = box_window(x, v, widths)
            if lo <= t <= hi:
                sector = min(max(bisect.bisect_right(edges, h) - 1, 0), len(edges) - 2)
                hist[sector] += 1
        out.append(hist)
    return out


# ---------------------------------------------------------------------------
# twin walks


def _factor_docs(config: dict) -> list:
    rep = config["representation"]
    return rep["factors"] if "factors" in rep else [rep]


def twin_check(name: str, config: dict, manifest: dict, L_max: int, workers: int) -> list:
    """Mismatch messages of the twin walk against the oracle; empty when equal."""
    from spectra_census import census, cli, regions, reps

    rep = cli.parse_representation(config["representation"], Path("."))
    images = [generator_images(doc) for doc in _factor_docs(config)]
    grid = cli.parse_grid(config["t_grid"])
    words = list(reduced_words(rep.k, L_max))
    classes = list(necklaces(rep.k, L_max))
    problems = []

    def compare(label, got, want):
        if list(got) != list(want):
            problems.append(f"{label}: census {list(got)} != oracle {list(want)}")

    if name == "cartan-ladder":
        mu = [[cartan(product(g, w)) for g in images] for w in words]
        for eps in config["epsilons"]:
            family = census.TubeBallFamily(regions.TubeSpec(manifest["direction"], eps))
            series = census.census_cartan(rep, family, grid, L_max, workers=workers)
            compare(f"tube eps={eps}", series.counts,
                    count_tube(mu, family.spec.direction, eps, grid))
    elif name == "jordan-sectors":
        spectra = [[jordan(product(g, w)) for g in images] for w in classes]
        lam = [[s[0] for s in row] for row in spectra]
        holo = [row[0][1] for row in spectra]
        edges = [math.pi * i / config["sectors"] for i in range(config["sectors"])] + [math.pi]
        series, hists = census.census_box(
            rep, config["direction"], config["widths"], grid, L_max, sectors=edges, workers=workers
        )
        compare("box", series.counts, count_box(lam, config["direction"], config["widths"], grid))
        want = sector_histograms(lam, holo, config["direction"], config["widths"], grid, edges)
        compare("sectors", [list(h.counts) for h in hists[0]], want)
    elif name == "correlate-w2":
        v = manifest["direction"]
        lam = [[jordan(product(g, w))[0] for g in images] for w in classes]
        series, _ = census.census_box(rep, v, config["widths"], grid, L_max, workers=workers)
        compare("box", series.counts, count_box(lam, v, config["widths"], grid))
        fgrid = cli.parse_grid(config["factor_t_grid"])
        for i, g in enumerate(images):
            sub = reps.Representation(k=rep.k, factors=(rep.factors[i],))
            ray = census.census_cartan(sub, census.CoordinateRayFamily(0, 1), fgrid, L_max,
                                       workers=workers)
            compare(f"factor {i} ray", ray.counts,
                    count_ray([cartan(product(g, w)) for w in words], fgrid))
    else:
        raise KeyError(name)
    return problems

