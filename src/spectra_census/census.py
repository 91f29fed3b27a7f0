"""The counting hot loop.

Streams reduced words / conjugacy-class necklaces through a representation
in fixed-size chunks, evaluates per-factor matrix products vectorized over
the chunk, and classifies the resulting spectrum vectors against a region
family over a T-grid.

_tally is the one chunk loop: every census, the completeness horizon and
the growth-indicator ladder run through it.  _jordan_partial,
_cartan_partial and _box_partial only pick the chunk stream; they keep
their names because the perfbench tracer wraps them by name and counts
their spans as shard busy time.

Every word is addressed by its index in the depth-first lexicographic order,
and its (P, S) is the left fold of its letters through one renormalized step
(_extend): the same floats in the same order whichever chunk or shard
computes its prefixes, whether word by word (evaluate_chunk) or down the
prefix tree (prefix_walk).  Counts are therefore bit-identical for any
chunking and any number of worker shards, and shard merges are plain
integer sums.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import algebra, regions
from .errors import SpectraCensusError
from .group import CapacityExceeded, _check_budget, stratum_size  # noqa: F401
from .reps import PingPongFailure, Representation, generator_arrays, validate_representation

CHUNK = 1 << 15
LN2 = math.log(2.0)

KIND_JORDAN = "jordan-classes"
KIND_JORDAN_PRIMITIVE = "jordan-primitive-classes"
KIND_CARTAN = "cartan-elements"


class InsufficientData(SpectraCensusError):
    """Nothing was enumerated; horizon is undefined."""


class WorkerCrashed(SpectraCensusError):
    """A shard worker process died before returning its partial counts."""


@dataclass(frozen=True)
class CountSeries:
    """Counts over a T-grid with a completeness horizon.

    Counts beyond t_trust are reported but untrusted.  The horizon is
    empirical, not certified: it is derived from c_min_hat, the minimal
    stretch per letter over the enumerated items, and nothing bounds the
    stretch of the longer words the enumeration did not reach.
    """

    t_grid: Tuple[float, ...]
    counts: Tuple[int, ...]
    kind: str
    region: str
    L_max: int
    t_trust: float
    c_min_hat: float
    cumulative: bool

    def __post_init__(self):
        grid = tuple(float(t) for t in self.t_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("t_grid must be strictly increasing")
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.counts) != len(grid):
            raise ValueError("counts and t_grid lengths differ")
        if self.cumulative and any(b < a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("cumulative series must have nondecreasing counts")

    @property
    def trusted(self) -> Tuple[bool, ...]:
        return tuple(t <= self.t_trust for t in self.t_grid)


@dataclass(frozen=True)
class HolonomyHistogram:
    """Sector counts of holonomy angles for one factor at one grid time."""

    sector_edges: Tuple[float, ...]
    counts: Tuple[int, ...]
    factor: int
    time: float

    def __post_init__(self):
        e = self.sector_edges
        if len(e) < 2 or any(b <= a for a, b in zip(e, e[1:])):
            raise ValueError("sector_edges must be strictly increasing")
        if not (abs(e[0]) < 1e-12 and abs(e[-1] - math.pi) < 1e-12):
            raise ValueError("sector_edges must cover [0, pi] exactly")
        if len(self.counts) != len(e) - 1:
            raise ValueError("need one count per sector")


# ---------------------------------------------------------------------------
# region families: vectorized classification against a T-grid


class TubeBallFamily:
    """{x in tube : ||x|| <= T}, cumulative in T."""

    cumulative = True

    def __init__(self, spec: regions.TubeSpec):
        self.spec = spec
        self.region_id = regions.region_id(spec)

    def count_grid(self, X: np.ndarray, grid: np.ndarray) -> np.ndarray:
        v = np.asarray(self.spec.direction)
        u = X - np.asarray(self.spec.offset)
        resid = u - np.outer(u @ v, v)
        dist = np.sqrt(np.sum(resid * resid, axis=1))
        keep = (dist <= self.spec.epsilon) & np.all(X >= 0.0, axis=1)
        norms = np.sort(np.sqrt(np.sum(X[keep] * X[keep], axis=1)))
        return np.searchsorted(norms, grid, side="right").astype(np.int64)


class ConeBallFamily:
    """{x in open cone : ||x|| <= T}, cumulative in T."""

    cumulative = True

    def __init__(self, spec: regions.ConeSpec):
        self.spec = spec
        self.region_id = regions.region_id(spec)

    def count_grid(self, X: np.ndarray, grid: np.ndarray) -> np.ndarray:
        v = np.asarray(self.spec.direction)
        norms = np.sqrt(np.sum(X * X, axis=1))
        good = (norms > 0.0) & np.all(X >= 0.0, axis=1)
        cosang = np.ones_like(norms)
        np.divide(X @ v, norms, out=cosang, where=good)
        angle = np.arccos(np.clip(cosang, -1.0, 1.0))
        keep = good & (angle < self.spec.half_angle)
        kept = np.sort(norms[keep])
        return np.searchsorted(kept, grid, side="right").astype(np.int64)


class BoxWindowFamily:
    """Moving box prod_i [v_i T, v_i T + eps_i]; not cumulative."""

    cumulative = False

    def __init__(self, direction: Sequence[float], widths: Sequence[float]):
        v = np.asarray(direction, dtype=float)
        w = np.asarray(widths, dtype=float)
        if v.shape != w.shape or v.ndim != 1:
            raise ValueError("direction and widths must be 1-d and equal length")
        if np.any(v <= 0.0) or np.any(w <= 0.0):
            raise ValueError("direction and widths must be strictly positive")
        self.direction = v
        self.widths = w
        self.region_id = regions.region_id(
            regions.BoxWindow(tuple(v), tuple(w), 0.0)
        )

    def window(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per row, the closed interval of T for which the row is in the box."""
        lo = np.max((X - self.widths) / self.direction, axis=1)
        hi = np.min(X / self.direction, axis=1)
        return lo, hi

    def count_grid(self, X: np.ndarray, grid: np.ndarray) -> np.ndarray:
        lo, hi = self.window(X)
        ok = lo <= hi
        lo, hi = np.sort(lo[ok]), np.sort(hi[ok])
        started = np.searchsorted(lo, grid, side="right")
        ended = np.searchsorted(hi, grid, side="left")
        return (started - ended).astype(np.int64)

    def member_mask(self, X: np.ndarray, t: float) -> np.ndarray:
        lo, hi = self.window(X)
        return (lo <= t) & (t <= hi)


class CoordinateRayFamily:
    """{x : x_i <= T}: rank-one counting of a single factor, cumulative."""

    cumulative = True

    def __init__(self, index: int, d: int):
        if not 0 <= index < d:
            raise ValueError("factor index out of range")
        self.index = index
        self.region_id = f"ray[coord={index}]"

    def count_grid(self, X: np.ndarray, grid: np.ndarray) -> np.ndarray:
        vals = np.sort(X[:, self.index])
        return np.searchsorted(vals, grid, side="right").astype(np.int64)


class TruncatedTubeFamily:
    """Family T_{T,b} over the grid for the box-difference truncation profiles.

    The cross-section is left unbounded: the upper-minus-lower difference
    count is insensitive to it (outside the box shadow the two profiles
    cross and the slab difference is empty), which is the identity the
    moving-box census is checked against.
    """

    cumulative = True

    def __init__(self, direction: Sequence[float], widths: Sequence[float], side: str):
        if side not in ("upper", "lower"):
            raise ValueError("side must be 'upper' or 'lower'")
        self.direction = np.asarray(regions.unit(direction), dtype=float)
        self.widths = np.asarray(widths, dtype=float)
        self.side = side
        self.region_id = f"ttube[{side};v=({','.join(format(x, '.6g') for x in self.direction)})]"

    def count_grid(self, X: np.ndarray, grid: np.ndarray) -> np.ndarray:
        v = self.direction
        t = X @ v
        U = X - np.outer(t, v)
        if self.side == "upper":
            b = np.min((self.widths - U) / v, axis=1)
        else:
            b = np.max(-U / v, axis=1)
        keep = (t >= 0.0) & np.all(X >= 0.0, axis=1)
        vals = np.sort((t - b)[keep])
        return np.searchsorted(vals, grid, side="right").astype(np.int64)


# ---------------------------------------------------------------------------
# vectorized word enumeration and evaluation


def _letter_table(k: int) -> np.ndarray:
    table = np.empty((2 * k, 2 * k - 1), dtype=np.int8)
    for prev in range(2 * k):
        nxt = [l for l in range(2 * k) if l != prev ^ 1]
        table[prev] = nxt
    return table


def decode_words(k: int, n: int, start: int, stop: int) -> np.ndarray:
    """Letter-code matrix (stop-start, n) of reduced words of length n,
    rows in depth-first lexicographic order of the full stratum."""
    table = _letter_table(k)
    base = 2 * k - 1
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((idx.size, n), dtype=np.int8)
    pw = base ** (n - 1)
    first, rem = np.divmod(idx, pw)
    out[:, 0] = first
    for j in range(1, n):
        pw //= base
        digit, rem = np.divmod(rem, pw)
        out[:, j] = table[out[:, j - 1], digit]
    return out


def cyclically_reduced_mask(letters: np.ndarray) -> np.ndarray:
    if letters.shape[1] == 1:
        return np.ones(letters.shape[0], dtype=bool)
    return letters[:, -1] != (letters[:, 0] ^ 1)


def canonical_mask(letters: np.ndarray) -> np.ndarray:
    """Rows that are the lexicographically minimal rotation of themselves."""
    m, n = letters.shape
    keep = np.ones(m, dtype=bool)
    if n == 1:
        return keep
    for s in range(1, n):
        rot = np.concatenate([letters[:, s:], letters[:, :s]], axis=1)
        diff = rot != letters
        first = np.argmax(diff, axis=1)
        any_diff = diff.any(axis=1)
        rows = np.arange(m)
        smaller = any_diff & (rot[rows, first] < letters[rows, first])
        keep &= ~smaller
    return keep


def periods(letters: np.ndarray) -> np.ndarray:
    m, n = letters.shape
    out = np.full(m, n, dtype=np.int64)
    for p in range(1, n):
        if n % p:
            continue
        eq = (np.concatenate([letters[:, p:], letters[:, :p]], axis=1) == letters).all(axis=1)
        out = np.where(eq & (out == n), p, out)
    return out


def _extend(P: np.ndarray, S: np.ndarray, B: np.ndarray, logB: np.ndarray):
    """One left-fold step: (P, S) -> renormalized (P @ B, S + logB).

    Renormalization divides by an exact power of two exactly as the scalar
    path does.  Every evaluation path takes its steps through here, so a
    word's (P, S) is the same fold of the same floats whichever path ran it.
    """
    a00, a01 = P[:, 0, 0], P[:, 0, 1]
    a10, a11 = P[:, 1, 0], P[:, 1, 1]
    b00, b01 = B[:, 0, 0], B[:, 0, 1]
    b10, b11 = B[:, 1, 0], B[:, 1, 1]
    Q = np.empty_like(P)
    Q[:, 0, 0] = a00 * b00 + a01 * b10
    Q[:, 0, 1] = a00 * b01 + a01 * b11
    Q[:, 1, 0] = a10 * b00 + a11 * b10
    Q[:, 1, 1] = a10 * b01 + a11 * b11
    S = S + logB
    A = np.abs(Q)
    mx = np.maximum(np.maximum(A[:, 0, 0], A[:, 0, 1]), np.maximum(A[:, 1, 0], A[:, 1, 1]))
    _, e = np.frexp(mx)
    e = np.where((mx >= 0.5) & (mx <= 2.0), 0, e).astype(np.int32)
    Q /= np.ldexp(1.0, e)[:, None, None]
    S += e * LN2
    return Q, S


def evaluate_chunk(letters: np.ndarray, images: np.ndarray, logs: np.ndarray):
    """Renormalized products of generator images along each row.

    Returns (entries (m,2,2), log_scales (m,)).
    """
    P = images[letters[:, 0]]
    S = logs[letters[:, 0]]
    for j in range(1, letters.shape[1]):
        P, S = _extend(P, S, images[letters[:, j]], logs[letters[:, j]])
    return P, S


def prefix_walk(k: int, n: int, start: int, stop: int, images: np.ndarray, logs: np.ndarray):
    """evaluate_chunk(decode_words(k, n, start, stop), images, logs), folded
    down the prefix tree instead of word by word.

    At depth j the ancestors of the rows form the contiguous index range
    [start // b^(n-j), (stop-1) // b^(n-j) + 1) of stratum j, with b = 2k-1.
    Depth 1 is the generator images; each deeper level extends the level
    above by one _extend step per node, so a word costs about b/(b-1)
    products instead of n-1, and its (P, S) is bit-identical to
    evaluate_chunk's.
    """
    table = _letter_table(k)
    base = 2 * k - 1
    pw = base ** (n - 1)
    lo = start // pw
    last = np.arange(lo, (stop - 1) // pw + 1)
    P, S = images[last], logs[last]
    for _ in range(1, n):
        pw //= base
        child_lo = start // pw
        parent, digit = np.divmod(np.arange(child_lo, (stop - 1) // pw + 1), base)
        parent -= lo
        last = table[last[parent], digit]
        P, S = _extend(P[parent], S[parent], images[last], logs[last])
        lo = child_lo
    return P, S


def jordan_chunk(P: np.ndarray, S: np.ndarray, is_complex: bool, tol: float = algebra.DEFAULT_TOL):
    """(lengths, holonomy angles or None); raises NonLoxodromic on any failure."""
    t = P[:, 0, 0] + P[:, 1, 1]
    det = np.exp(-2.0 * S)
    if is_complex:
        r = np.sqrt(t * t - 4.0 * det + 0j)
        lam_p, lam_m = t + r, t - r
        lam = np.where(np.abs(lam_p) >= np.abs(lam_m), lam_p, lam_m) * 0.5
        mod = np.abs(lam)
        bad = ~(S + np.log(np.where(mod > 0, mod, 1.0)) > math.log(1.0 + tol)) | (mod == 0.0)
        if bad.any():
            raise algebra.NonLoxodromic(
                f"{int(bad.sum())} non-loxodromic products in a complex factor"
            )
        lengths = 2.0 * (S + np.log(mod))
        holos = np.angle(lam) % math.pi
        return lengths, holos
    ta = np.abs(t)
    bad = ~(S + np.log(np.where(ta > 0, ta, 1.0)) > math.log(2.0 + tol)) | (ta == 0.0)
    if bad.any():
        raise algebra.NonLoxodromic(f"{int(bad.sum())} non-loxodromic products in a real factor")
    lam = 0.5 * (ta + np.sqrt(ta * ta - 4.0 * det))
    return 2.0 * (S + np.log(lam)), None


def cartan_chunk(P: np.ndarray, S: np.ndarray) -> np.ndarray:
    fro2 = np.sum(np.abs(P) ** 2, axis=(1, 2))
    h = 2.0 * S + np.log(fro2) - LN2
    h = np.maximum(h, 0.0)
    return h + np.log1p(np.sqrt(-np.expm1(-2.0 * h)))


# ---------------------------------------------------------------------------
# chunk streams


def _factor_images(rep: Representation):
    return [generator_arrays(f, rep.k) for f in rep.factors]


def _chunk_ranges(k: int, L_max: int, shard, chunk: int):
    """(n, lo, hi) for each chunk of each stratum's shard range, in walk order."""
    for n in range(1, L_max + 1):
        start, stop = (0, stratum_size(k, n)) if shard is None else shard.get(n, (0, 0))
        for lo in range(start, stop, chunk):
            yield n, lo, min(lo + chunk, stop)


def iter_word_chunks(rep, L_max: int, shard=None, chunk: int = CHUNK, budget=None):
    """Yields (letters, mu (m,d)) over all reduced words of length 1..L_max.

    shard, when given, is a dict {n: (start, stop)} of index ranges per
    stratum; the default covers everything.
    """
    _check_budget(rep.k, L_max, budget)
    images = _factor_images(rep)
    for n, lo, hi in _chunk_ranges(rep.k, L_max, shard, chunk):
        letters = decode_words(rep.k, n, lo, hi)
        mu = np.empty((letters.shape[0], rep.d))
        for i, (mats, logs) in enumerate(images):
            P, S = prefix_walk(rep.k, n, lo, hi, mats, logs)
            mu[:, i] = cartan_chunk(P, S)
        yield letters, mu


def iter_class_chunks(rep, L_max: int, shard=None, chunk: int = CHUNK, budget=None):
    """Yields (letters, lam (m,d), holos (m,d) or None, primitive (m,)) over
    canonical necklaces of core length 1..L_max."""
    _check_budget(rep.k, L_max, budget)
    images = _factor_images(rep)
    any_complex = any(f.field == algebra.COMPLEX for f in rep.factors)
    for n, lo, hi in _chunk_ranges(rep.k, L_max, shard, chunk):
        letters = decode_words(rep.k, n, lo, hi)
        keep = cyclically_reduced_mask(letters)
        letters = letters[keep]
        if letters.size:
            letters = letters[canonical_mask(letters)]
        if not letters.size:
            continue
        lam = np.empty((letters.shape[0], rep.d))
        holos = np.full((letters.shape[0], rep.d), np.nan) if any_complex else None
        for i, (mats, logs) in enumerate(images):
            P, S = evaluate_chunk(letters, mats, logs)
            lengths, h = jordan_chunk(P, S, rep.factors[i].field == algebra.COMPLEX)
            lam[:, i] = lengths
            if h is not None:
                holos[:, i] = h
        yield letters, lam, holos, periods(letters) == n


def _gate_validated(rep: Representation, force: bool):
    if force:
        return
    if rep.k != 2:
        raise PingPongFailure(
            "ping-pong certification covers rank-2 pairs only; pass force=True to count anyway"
        )
    reports = validate_representation(rep)
    for i, r in enumerate(reports):
        if not r.passed:
            raise PingPongFailure(
                f"factor {i} failed ping-pong validation (margin {r.margin:.6g}); "
                "counts on uncertified representations need force=True"
            )


# ---------------------------------------------------------------------------
# censuses


def _horizon(c_min: float, L_max: int, t_max: float) -> float:
    if not math.isfinite(c_min):
        return 0.0
    raw = c_min * (L_max - 1) - c_min
    return max(0.0, min(raw, t_max))


@dataclass
class _Partial:
    counts: np.ndarray
    c_min: float
    histograms: Optional[np.ndarray] = None  # (d, n_grid, n_sectors)


def _shards(k: int, L_max: int, workers: int) -> List[Dict[int, Tuple[int, int]]]:
    if workers <= 1:
        return [None]
    out = []
    for w in range(workers):
        shard = {}
        for n in range(1, L_max + 1):
            total = stratum_size(k, n)
            lo = total * w // workers
            hi = total * (w + 1) // workers
            shard[n] = (lo, hi)
        out.append(shard)
    return out


def _tally(rep, chunks, families, grid, primitive_only, edges, sink) -> _Partial:
    """The one chunk loop behind every census, horizon and ladder.

    chunks yields (letters, X, holos or None, primitive or None).  Per chunk
    it folds the minimal stretch per letter into c_min, hands the chunk to
    the sink, adds each family's count_grid over the grid into its row of
    counts (n_families, n_grid), and, when sector edges are given, bins the
    holonomy of the rows inside the first family's window per grid time.
    """
    counts = np.zeros((len(families), grid.size), dtype=np.int64)
    hist = None if edges is None else np.zeros((rep.d, grid.size, len(edges) - 1), dtype=np.int64)
    c_min = math.inf
    complex_factors = [i for i, f in enumerate(rep.factors) if f.field == algebra.COMPLEX]
    for letters, X, holos, primitive in chunks:
        norms = np.sqrt(np.sum(X * X, axis=1))
        c_min = min(c_min, float(np.min(norms / letters.shape[1])))
        if sink is not None:
            sink(letters, X, holos)
        keep = primitive if primitive_only else slice(None)
        rows = X[keep]
        for row, family in zip(counts, families):
            row += family.count_grid(rows, grid)
        if hist is not None and complex_factors and rows.size:
            hrows = holos[keep]
            lo, hi = families[0].window(rows)
            for ti, t in enumerate(grid):
                mask = (lo <= t) & (t <= hi)
                if not mask.any():
                    continue
                for i in complex_factors:
                    sector = np.searchsorted(edges, hrows[mask, i], side="right") - 1
                    sector = np.clip(sector, 0, len(edges) - 2)
                    hist[i, ti] += np.bincount(sector, minlength=len(edges) - 1)
    return _Partial(counts, c_min, hist)


def _jordan_partial(rep, families, grid, L_max, primitive_only, sink, shard, budget) -> _Partial:
    chunks = iter_class_chunks(rep, L_max, shard=shard, budget=budget)
    return _tally(rep, chunks, families, grid, primitive_only, None, sink)


def _cartan_partial(rep, families, grid, L_max, sink, shard, budget) -> _Partial:
    chunks = ((w, mu, None, None) for w, mu in iter_word_chunks(rep, L_max, shard=shard, budget=budget))
    return _tally(rep, chunks, families, grid, False, None, sink)


def _box_partial(rep, families, grid, L_max, primitive_only, edges, sink, shard, budget) -> _Partial:
    chunks = iter_class_chunks(rep, L_max, shard=shard, budget=budget)
    return _tally(rep, chunks, families, grid, primitive_only, edges, sink)


def _run_sharded(task: Callable, rep, L_max: int, workers: int) -> _Partial:
    shards = _shards(rep.k, L_max, workers)
    if len(shards) == 1:
        return task(shards[0])
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(task, shards))
    except BrokenProcessPool as exc:
        raise WorkerCrashed(f"a census worker process died: {exc}") from exc
    hist = None if parts[0].histograms is None else sum(p.histograms for p in parts)
    return _Partial(sum(p.counts for p in parts), min(p.c_min for p in parts), hist)


def _grid(t_grid) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("t_grid must be a nonempty strictly increasing 1-d array")
    return grid


def _census(rep, walk, args, family, t_grid, L_max, kind, workers, force, budget, sink):
    """Gate, run walk(rep, (family,), grid, L_max, *args, sink, shard, budget)
    over the worker shards, and wrap the family's counts as a CountSeries."""
    _gate_validated(rep, force)
    if sink is not None and workers > 1:
        raise ValueError("a spectra sink requires workers=1 (callbacks do not cross processes)")
    grid = _grid(t_grid)
    task = functools.partial(walk, rep, (family,), grid, L_max, *args, sink, budget=budget)
    part = _run_sharded(task, rep, L_max, workers)
    series = CountSeries(
        t_grid=tuple(grid),
        counts=tuple(part.counts[0]),
        kind=kind,
        region=family.region_id,
        L_max=L_max,
        t_trust=_horizon(part.c_min, L_max, float(grid[-1])),
        c_min_hat=part.c_min,
        cumulative=family.cumulative,
    )
    return series, part


def census_jordan(
    rep: Representation,
    family,
    t_grid,
    L_max: int,
    primitive_only: bool = False,
    workers: int = 1,
    force: bool = False,
    budget: Optional[int] = None,
    spectra_sink=None,
) -> CountSeries:
    """Count conjugacy classes whose Jordan vector lies in family(T), per grid T."""
    kind = KIND_JORDAN_PRIMITIVE if primitive_only else KIND_JORDAN
    return _census(
        rep, _jordan_partial, (primitive_only,), family, t_grid, L_max, kind, workers, force,
        budget, spectra_sink,
    )[0]


def census_cartan(
    rep: Representation,
    family,
    t_grid,
    L_max: int,
    workers: int = 1,
    force: bool = False,
    budget: Optional[int] = None,
    spectra_sink=None,
) -> CountSeries:
    """Count group elements whose Cartan vector lies in family(T), per grid T."""
    return _census(
        rep, _cartan_partial, (), family, t_grid, L_max, KIND_CARTAN, workers, force, budget,
        spectra_sink,
    )[0]


def census_box(
    rep: Representation,
    direction,
    widths,
    t_grid,
    L_max: int,
    sectors: Optional[Sequence[float]] = None,
    primitive_only: bool = False,
    workers: int = 1,
    force: bool = False,
    budget: Optional[int] = None,
    spectra_sink=None,
):
    """Moving-box census of Jordan vectors, optionally cross-classified by
    holonomy sector per complex factor.

    Returns (CountSeries, histograms) where histograms is None without
    sectors, else {factor_index: [HolonomyHistogram per grid point]}.
    """
    family = BoxWindowFamily(direction, widths)
    edges = None
    if sectors is not None:
        edges = np.asarray(sectors, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("sectors must be an increasing sequence of angles")
        if abs(edges[0]) > 1e-12 or abs(edges[-1] - math.pi) > 1e-12:
            raise ValueError("sector edges must cover [0, pi] exactly")
    kind = KIND_JORDAN_PRIMITIVE if primitive_only else KIND_JORDAN
    series, part = _census(
        rep, _box_partial, (primitive_only, edges), family, t_grid, L_max, kind, workers, force,
        budget, spectra_sink,
    )
    if edges is None:
        return series, None
    histograms = {}
    for i, f in enumerate(rep.factors):
        if f.field != algebra.COMPLEX:
            continue
        histograms[i] = [
            HolonomyHistogram(
                sector_edges=tuple(edges),
                counts=tuple(int(c) for c in part.histograms[i, ti]),
                factor=i,
                time=t,
            )
            for ti, t in enumerate(series.t_grid)
        ]
    return series, histograms


def completeness_horizon(
    rep: Representation,
    L_max: int,
    kind: str,
    workers: int = 1,
    force: bool = False,
    budget: Optional[int] = None,
) -> Tuple[float, float]:
    """(t_trust, c_min_hat) from the empirical minimal stretch per word length.

    The horizon backs off one full c_min_hat below c_min_hat * (L_max - 1).
    If every word the enumeration missed stretches at least c_min_hat per
    letter, as the enumerated ones do, it is longer than c_min_hat * L_max
    and counts below the horizon are complete.  That premise is empirical:
    c_min_hat is a minimum over the enumerated items only, so the horizon
    is an empirical estimate, not a certificate.
    """
    _gate_validated(rep, force)
    if L_max < 1:
        raise InsufficientData("need at least the length-1 stratum")
    no_grid = np.empty(0)
    if kind in (KIND_JORDAN, KIND_JORDAN_PRIMITIVE, "jordan"):
        task = functools.partial(_jordan_partial, rep, (), no_grid, L_max, False, None, budget=budget)
    elif kind in (KIND_CARTAN, "cartan"):
        task = functools.partial(_cartan_partial, rep, (), no_grid, L_max, None, budget=budget)
    else:
        raise ValueError(f"unknown census kind {kind!r}")
    c_min = _run_sharded(task, rep, L_max, workers).c_min
    if not math.isfinite(c_min):
        raise InsufficientData("enumeration produced no items")
    return _horizon(c_min, L_max, math.inf), c_min
