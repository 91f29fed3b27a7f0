"""The counting hot loop.

Streams reduced words / conjugacy-class necklaces through a representation
in blocks of at most BLOCK rows, evaluates per-factor matrix products
vectorized over the block, and classifies the resulting spectrum vectors
against the region families of regions.py over a T-grid: one count row per
family, or per aperture for a ladder family.

_census is the one census driver: census_jordan, census_cartan,
census_box, the growth-indicator ladder (fitting) and completeness_horizon
all call it, with a census kind and the families to count.  It alone gates
the representation, refuses an L_max below 1, checks the grid
(_checked_grid), builds the generator images and the pruning bound once,
picks the shard task from the kind, runs it over the worker shards
(_run_sharded), adds the evaluated Cartan leaves or classes to a profile
and computes the horizon.  Every count a census takes is a row of one
record (_Partial), which shards merge by one rule; the public entries only
read its rows: one family's first row as a CountSeries (_series), the
holonomy sector rows as histograms (census_box), or nothing but the
horizon.  The shard tasks _jordan_partial, _cartan_partial and
_box_partial take _partial's argument list, the shard last: each is one
call of _partial, which feeds one shard of the walk's stream to _tally,
the one chunk loop, and they keep their names because the perfbench tracer
wraps them by name and counts their spans as shard busy time.  The word
budget is not a parameter: group._check_budget reads
SPECTRA_CENSUS_MAX_WORDS, or DEFAULT_BUDGET, where each stream starts, and
_census before it builds the bound or forks.

One walk (_walk) feeds every census, ladder, horizon and probe: it goes
depth-first down the prefix tree of the reduced words to L_max, once,
carrying each node's letters and one (P, S) per factor, and yields each
node once, as an item of its own length.  A word's (P, S) is the left fold
of its letters through one renormalized step (_extend): the same floats in
the same order whichever block or shard computes its prefixes, whether
word by word (evaluate_chunk) or down the tree.  Counts are therefore
bit-identical for any block size and any number of worker shards, and
shard merges are plain integer sums.  A shard is always a pair
(w, workers), and (0, 1) is the whole walk.  Shards deal the subtrees
below a fixed depth round the workers: the calling process forks a child
for each shard but shard 0, walks shard 0 itself, and merges the partial
counts the children pipe back.  The fold keeps each 2x2 in
struct-of-arrays form, a 4-tuple (p00, p01, p10, p11) of contiguous 1-d
arrays, for words and necklaces, real and complex alike.

The census kind picks the walk's node filter.  The Cartan stream yields
every word, with the letters the walk carries, reduced to its Cartan
projections block by block.  The Jordan stream, one necklace per
conjugacy class, keeps only prenecklaces by their FKM state and folds the
last level's necklaces only, so its cost scales with the classes rather
than the words.  Within a length either stream comes in word-index
order, and the lengths interleave.  decode_words, evaluate_chunk,
cyclically_reduced_mask, canonical_mask and periods are its test oracles.
jordan_chunk gates loxodromy at algebra.DEFAULT_TOL, the one tolerance
of its scalar references, reps.lambda_vector and algebra.jordan_length.

A census drops the subtrees that no grid point can count and that cannot
lower the minimal stretch per letter (_Pruning), by the certified
per-letter-pair defect tables of reps.defect_table and each family's
reach.  That bound is its only filter: every word or class the walk
reaches is evaluated and handed to the families, which count nothing
beyond their reach.  A truncated tube (which has no reach) and the
dependence probe walk everything, and so do iter_word_chunks and
iter_class_chunks, the streams that the CLI's --dump-spectra writes out
after the census; both yield _stream's chunks, of one shape.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import algebra
from .regions import (  # noqa: F401  (the region families, re-exported)
    ApertureLadderFamily,
    BoxWindowFamily,
    ConeBallFamily,
    CoordinateRayFamily,
    TruncatedTubeFamily,
    TubeBallFamily,
    _col_sq_sum,
    _row_nonneg,
    _row_sq_sum,
)
from .errors import SpectraCensusError
from .group import CapacityExceeded, _check_budget, stratum_size  # noqa: F401
from .reps import (
    PingPongFailure,
    Representation,
    defect_table,
    generator_arrays,
    validate_representation,
)

BLOCK = 1 << 12
LN2 = math.log(2.0)

KIND_JORDAN = "jordan-classes"
KIND_JORDAN_PRIMITIVE = "jordan-primitive-classes"
KIND_CARTAN = "cartan-elements"


class InsufficientData(SpectraCensusError):
    """Nothing was enumerated; horizon is undefined."""


class WorkerCrashed(SpectraCensusError):
    """A shard worker process could not start or died before returning its
    partial counts."""


def _checked_grid(t_grid) -> np.ndarray:
    """t_grid as a float array, or ValueError unless it is 1-d, nonempty,
    finite and strictly increasing; the one T-grid rule."""
    grid = np.asarray(t_grid, dtype=float)
    if not (grid.ndim == 1 and grid.size and np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise ValueError("t_grid must be a nonempty, finite, strictly increasing 1-d array")
    return grid


def _checked_edges(sectors) -> np.ndarray:
    """Holonomy sector edges as a float array, or ValueError unless there are
    at least two, strictly increasing from 0 to pi, each end within 1e-12
    inclusive (so every edge is finite); the one sector-edge rule."""
    e = np.asarray(sectors, dtype=float)
    if not (e.ndim == 1 and e.size >= 2 and np.all(np.diff(e) > 0)
            and abs(e[0]) <= 1e-12 and abs(e[-1] - math.pi) <= 1e-12):
        raise ValueError("sector edges must increase strictly from 0 to pi, within 1e-12")
    return e


@dataclass(frozen=True)
class CountSeries:
    """Counts over a T-grid with a completeness horizon.

    Counts beyond t_trust are reported but untrusted.  The horizon is
    empirical, not certified: it is derived from c_min_hat, the minimal
    stretch per letter over the enumerated items, and nothing bounds the
    stretch of the longer words the enumeration did not reach.  t_grid
    must pass _checked_grid.
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
        object.__setattr__(self, "t_grid", tuple(_checked_grid(self.t_grid).tolist()))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.counts) != len(self.t_grid):
            raise ValueError("counts and t_grid lengths differ")
        if self.cumulative and any(b < a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("cumulative series must have nondecreasing counts")

    @property
    def trusted(self) -> Tuple[bool, ...]:
        return tuple(t <= self.t_trust for t in self.t_grid)


@dataclass(frozen=True)
class HolonomyHistogram:
    """Holonomy sector counts (edges by _checked_edges) for one factor at one grid time."""

    sector_edges: Tuple[float, ...]
    counts: Tuple[int, ...]
    factor: int
    time: float

    def __post_init__(self):
        if len(self.counts) != len(_checked_edges(self.sector_edges)) - 1:
            raise ValueError("need one count per sector")


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


def _extend(P, S: np.ndarray, B, logB: np.ndarray):
    """One left-fold step: (P, S) -> renormalized (P @ B, S + logB).

    P and B are 2x2 matrices in struct-of-arrays form, 4-tuples
    (p00, p01, p10, p11) of contiguous 1-d arrays, one entry per item;
    cartan_chunk sums their squared moduli in that order, left to right.
    Renormalization divides by an exact power of two exactly as the scalar
    path does.  Every evaluation path takes its steps through here, so a
    word's (P, S) is the same fold of the same floats whichever path ran it.
    """
    a00, a01, a10, a11 = P
    b00, b01, b10, b11 = B
    Q = (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11, a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)
    S = S + logB
    mx = np.maximum(np.maximum(np.abs(Q[0]), np.abs(Q[1])), np.maximum(np.abs(Q[2]), np.abs(Q[3])))
    _, e = np.frexp(mx)
    e *= (mx < 0.5) | (mx > 2.0)  # no rescaling while 0.5 <= mx <= 2
    scale = np.ldexp(1.0, e)
    for q in Q:
        q /= scale
    S += e * LN2
    return Q, S


def _gather(P, idx: np.ndarray):
    """The items idx of a struct-of-arrays 2x2 (or generator images)."""
    return tuple(x.take(idx) for x in P)


def evaluate_chunk(letters: np.ndarray, images, logs: np.ndarray):
    """Renormalized products of generator images along each row.

    images holds the generator images as a 4-tuple of (2k,) entry arrays
    (_factor_images).  Returns (P, log_scales (m,)), P the 4-tuple
    (p00, p01, p10, p11) of (m,) arrays, whose Frobenius norm cartan_chunk
    sums left to right in that order.
    """
    P = _gather(images, letters[:, 0])
    S = logs[letters[:, 0]]
    for j in range(1, letters.shape[1]):
        P, S = _extend(P, S, _gather(images, letters[:, j]), logs[letters[:, j]])
    return P, S


def _walk(k: int, L_max: int, factors, shard=(0, 1), bound=None, classes: bool = False):
    """(letters (m, t) int8, period (m,) or None, one (P, S) per factor) of
    the nodes of each depth t = 1..L_max of the prefix tree of the reduced
    words, from one depth-first walk that folds each node once, for every
    length.

    Depth 1 is the generator images; each child extends its parent by one
    _extend step, so a node's (P, S), P the 4-tuple (p00, p01, p10, p11) of
    entry arrays in the order cartan_chunk sums them, is the left fold of
    its letters, bit-identical to evaluate_chunk's, and a word costs about
    b/(b-1) products instead of t-1, b = 2k-1.  Each depth yields the
    current run's nodes in word-index order, with period None; the lengths
    interleave.  A level whose children would exceed BLOCK rows is split
    into runs of BLOCK // b nodes, each descended in turn, so no array of
    the walk exceeds a block.  The blocks are for the pages, not the flops:
    a step over tens of thousands of rows frees megabytes of temporaries,
    which the allocator hands back to the kernel and the next step faults
    in again, while a block's temporaries are reused from the heap, once
    the walk has raised glibc's trim threshold (below).  shard
    (w, workers) deals the nodes of depth min(5, max(2, L_max)) round the
    workers, so each gets the same number give or take one, and only shard
    0 yields the shallower nodes (all of them at L_max 1); the default
    (0, 1) is the whole walk.

    classes keeps only prenecklaces, with their FKM state p, the period of
    the longest Lyndon prefix (Cattell, Ruskey, Sawada, Serra and Miers, J.
    Algorithms 37, 2000): appending a_t to a_0..a_{t-1} kills the node if
    a_t < a_{t-p}, sets p = t + 1 if a_t > a_{t-p} and keeps p otherwise.  A
    node of depth t is a necklace iff t % p == 0, and then p is its period.
    Each depth then yields only its cyclically reduced necklaces, with
    their periods, and the last level folds only those.

    bound, a _Pruning, drops a node of depth t < L_max, once it is yielded,
    when no word (or necklace) of length t+1..L_max below it is in reach.
    The decision reads only the node's own data, so every shard prunes the
    levels above the deal alike and deals the same nodes.
    """
    # glibc raises its dynamic mmap threshold to the size of a freed mmapped
    # chunk, and its trim threshold to twice that: one 1 MB array freed here
    # keeps the levels' arrays at the top of the heap from being trimmed off
    # and faulted in again.  Other allocators just allocate and free it.
    np.empty(1 << 20, dtype=np.uint8)
    table = _letter_table(k).astype(np.intp)
    base = 2 * k - 1
    w, workers = shard
    deal = min(5, max(2, L_max))
    dealt = 0  # nodes of depth deal seen so far, in index order

    def take(idx, letters, p, evals):
        return letters[idx], None if p is None else p[idx], [(_gather(P, idx), S.take(idx)) for P, S in evals]

    def pruned(t, letters, p, evals):
        # the nodes of depth t that some word or necklace below them needs
        if bound is None or t == L_max:
            return letters, p, evals
        keep = bound.alive(evals, letters[:, 0], letters[:, t - 1], t, range(t + 1, L_max + 1))
        return (letters, p, evals) if keep is None else take(np.flatnonzero(keep), letters, p, evals)

    def descend(t, letters, p, evals):
        nonlocal dealt
        while t < L_max and len(letters):
            if len(letters) * base > BLOCK and len(letters) > 1:
                g = max(1, BLOCK // base)
                for i in range(0, len(letters), g):
                    run = slice(i, i + g)
                    runs = [(tuple(x[run] for x in P), S[run]) for P, S in evals]
                    yield from descend(t, letters[run], None if p is None else p[run], runs)
                return
            a = table.take(letters[:, t - 1], axis=0).ravel()
            if classes:
                ref = np.repeat(letters[np.arange(p.size), t - p], base)
                period = np.where(a > ref, t + 1, np.repeat(p, base))
                neck = ((t + 1) % period == 0) & (a != np.repeat(letters[:, 0], base) ^ 1)
                # the last level folds only the necklaces it yields
                idx = np.flatnonzero((a >= ref) & (neck if t + 1 == L_max else True))
            else:
                idx = np.arange(a.size)
            t += 1
            if t == deal:
                idx, dealt = idx[(np.arange(dealt, dealt + idx.size) % workers) == w], dealt + idx.size
            if not idx.size:
                return
            parent, a = idx // base, a[idx]
            letters = np.column_stack([letters.take(parent, axis=0), a.astype(np.int8)])
            evals = [
                _extend(_gather(P, parent), S.take(parent), _gather(images, a), logs.take(a))
                for (P, S), (images, logs) in zip(evals, factors)
            ]
            if classes:
                p, sel = period[idx], np.flatnonzero(neck[idx])
            if t >= deal or w == 0:
                if not classes:
                    yield letters, None, evals
                elif sel.size:
                    yield take(sel, letters, p, evals)
            letters, p, evals = pruned(t, letters, p, evals)

    first = np.arange(2 * k)
    letters = first[:, None].astype(np.int8)
    p = np.ones(2 * k, dtype=np.intp) if classes else None
    evals = [(_gather(images, first), logs.take(first)) for images, logs in factors]
    if w == 0 and L_max >= 1:
        yield letters, p, evals
    yield from descend(1, *pruned(1, letters, p, evals))


def jordan_chunk(P, S: np.ndarray, is_complex: bool):
    """(lengths, holonomy angles or None); raises NonLoxodromic on any failure
    of the loxodromy gate, at the scalar references' tolerance
    algebra.DEFAULT_TOL."""
    tol = algebra.DEFAULT_TOL
    t = P[0] + P[3]
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


def _cartan_floor(P, S: np.ndarray) -> np.ndarray:
    """h = log(||g||_F^2 / 2) of each item, a lower bound on its Cartan
    length mu = arccosh(||g||_F^2 / 2), within log 2 of it."""
    # |p00|^2 + |p01|^2 + |p10|^2 + |p11|^2 summed left to right, the order
    # np.sum(|P|^2, axis=(1, 2)) takes over an (m, 2, 2) array
    a00, a01, a10, a11 = (np.abs(x) ** 2 for x in P)
    fro2 = a00 + a01 + a10 + a11
    return 2.0 * S + np.log(fro2) - LN2


def cartan_chunk(P, S: np.ndarray) -> np.ndarray:
    h = np.maximum(_cartan_floor(P, S), 0.0)
    return h + np.log1p(np.sqrt(-np.expm1(-2.0 * h)))


# ---------------------------------------------------------------------------
# chunk streams


def _factor_images(rep: Representation):
    """Per factor, (images, logs): the generator images as a 4-tuple of
    contiguous (2k,) entry arrays, in letter-code order."""
    out = []
    for f in rep.factors:
        mats, logs = generator_arrays(f)
        out.append((tuple(mats[:, i, j].copy() for i in (0, 1) for j in (0, 1)), logs))
    return out


def _complex_factors(rep) -> list:
    """rep's complex factors' indices, the order of _tally's sector rows."""
    return [i for i, f in enumerate(rep.factors) if f.field == algebra.COMPLEX]


def _generator_norm(rep, images, jordan: bool = False) -> float:
    """c1: the smallest norm of a generator's Cartan vector, or with jordan
    its Jordan vector, from images = _factor_images(rep).  Stratum 1 holds
    every generator, so no walk's c_min_hat exceeds it."""
    cx = _complex_factors(rep)
    one = np.column_stack(
        [jordan_chunk(P, S, i in cx)[0] if jordan else cartan_chunk(P, S) for i, (P, S) in enumerate(images)]
    )
    return float(np.min(np.sqrt(_row_sq_sum(one))))


def _stream(rep, L_max: int, shard=(0, 1), bound=None, classes: bool = False, images=None):
    """Yields (letters, X (m,d), holos (m,d) or None, primitive (m,) or None),
    one per block of _walk, never an empty one: the Cartan vectors X of the
    reduced words of length 1..L_max, or with classes the Jordan vectors,
    holonomy angles and primitivity of the canonical necklaces, one per
    conjugacy class.

    bound, when given, is the _Pruning of the families the blocks are
    counted for, built for this L_max and this kind of walk: the walk is
    pruned by it, and each block is yielded whole, as the walk folded it.
    Otherwise every word or class is yielded.  shard is the pair
    (w, workers) of _walk, the whole walk by default.  images, when given,
    is _factor_images(rep).
    """
    _check_budget(rep.k, L_max)
    cx = _complex_factors(rep)
    images = _factor_images(rep) if images is None else images
    for letters, period, evals in _walk(rep.k, L_max, images, shard, bound, classes):
        X = np.empty((letters.shape[0], rep.d))
        if not classes:
            for i, (P, S) in enumerate(evals):
                X[:, i] = cartan_chunk(P, S)
            yield letters, X, None, None
            continue
        holos = np.full(X.shape, np.nan) if cx else None
        for i, (P, S) in enumerate(evals):
            X[:, i], h = jordan_chunk(P, S, i in cx)
            if h is not None:
                holos[:, i] = h
        yield letters, X, holos, period == letters.shape[1]


def iter_word_chunks(rep, L_max: int):
    """Yields _stream's (letters, mu (m,d), None, None) over all reduced
    words of length 1..L_max, one chunk per block of the walk: within a
    length in word-index order, the lengths interleaved in walk order."""
    yield from _stream(rep, L_max)


def iter_class_chunks(rep, L_max: int):
    """Yields _stream's (letters, lam (m,d), holos (m,d) or None, primitive
    (m,)) over canonical necklaces of core length 1..L_max, one per class.

    Each chunk holds the necklaces of one length from one run of the walk,
    in word-index order; lengths interleave in walk order.
    """
    yield from _stream(rep, L_max, classes=True)


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


def _horizon_grid(rep, t_grid, L_max: int):
    """t_grid cut after its first point above _horizon(c1, L_max, inf), with
    _Pruning's margin: no Cartan census of rep to L_max has a larger t_trust,
    since stratum 1 is always walked and so c_min_hat <= c1 = _generator_norm.
    The point kept past the bound keeps _horizon's cap min(raw, grid[-1]) at
    the whole grid's t_trust, so every count up to it is the same, while the
    census, pruned at the cut grid's last T, walks only the words that reach
    it.  A grid with no point past the bound is returned whole; one that
    fails _checked_grid is refused here, before any walk."""
    grid = _checked_grid(t_grid)
    c1 = _generator_norm(rep, _factor_images(rep))
    bound = _horizon(c1, L_max, math.inf) * (1.0 + _Pruning.MARGIN) + _Pruning.MARGIN
    return grid[: np.searchsorted(grid, bound, side="right") + 1]


@dataclass
class _Partial:
    """One census record: counts (rows, grid), the family rows and then, with
    sector edges, one row per complex factor and sector (_tally); c_min the
    minimal stretch per letter; leaves the Cartan or Jordan vectors evaluated."""

    counts: np.ndarray
    c_min: float
    leaves: int = 0


class _Pruning:
    """Which Cartan words, or which classes, no family can count and the
    minimal stretch per letter does not need, from the certified
    per-letter-pair defect tables C_i of reps.defect_table.

    m_ib(r) bounds mu_i from below over the words of length r that start
    with the letter b, and a node u whose last letter is a has the slack
    s_ia(r) = min over b != a^-1 of m_ib(r) - C_i[a, b]: every reduced word
    uv with |v| = r has mu_i(uv) >= mu_i(u) + s_ia(r).

    A Cartan word w = uv of stratum n whose prefix u has depth t < n thus
    lies above the point L = (max(0, mu_i(u) + s_ia(n - t)))_i of the
    positive orthant.  A necklace w = uv of length n, u a node of the class
    walk at depth t < n, has lambda_i(w) >= mu_i(w) - C_i[last(w), first(u)]
    (the C_lambda corollary of reps.defect_table), so its Jordan vector lies
    above L less the largest C_i[c, first(u)] over c.  Either walk drops
    the node only if that point is out of reach for every n = t+1..L_max.

    Out of reach means ||L|| > max(R, n c1) and every coordinate family's
    coordinate of L exceeds its R: a ball, ladder or box counts no norm
    beyond its reach R (family.reach at the grid's last T; R is 0 without
    families), a coordinate ray no coordinate beyond it, and no dropped word
    or class can lower c_min_hat, which is at most c1, the smallest norm of
    a generator's Cartan (or Jordan) vector, since stratum 1 holds that
    generator.  So counts, holonomy histograms, c_min_hat and t_trust are
    the full walk's.  A margin of 1e-9, relative and absolute, covers the
    rounding of the bound.

    Internal nodes are tested with h = log(||P||_F^2 / 2) <= mu, which saves
    cartan_chunk's three transcendental steps.  Leaves are not tested: the
    walk evaluates every word or necklace it reaches, and a leaf out of
    reach by its own vector has norm above n c1 >= n c_min_hat and lies
    beyond every family's reach, so it moves no count and no c_min_hat.
    m_ib(r) is the exact minimum for r <= EXACT (8,748 words of length 8 at
    k = 2), from one unpruned walk to depth EXACT (or L_max - 1) that
    _census runs once, before any shard forks, extended by
    m_ib(x + y) >= m_ib(x) + m_i(y) - C_i beyond, m_i the minimum over the
    first letters and C_i the largest entry of the table; c1 is
    _generator_norm, from the generator images alone.
    The decision reads only a node's own (P, S), first and last letters and
    these constants, so it does not depend on the block size or workers.
    """

    EXACT = 8
    MARGIN = 1e-9

    @classmethod
    def of(cls, rep, families, grid, L_max: int, images, jordan: bool = False) -> Optional["_Pruning"]:
        """The bound for these families, for the class walk when jordan is
        set, or None when some factor has no defect table or some family no
        finite reach."""
        reaches = [f.reach(float(grid[-1])) if hasattr(f, "reach") else None for f in families]
        if None in reaches:
            return None
        tables = [defect_table(f) for f in rep.factors]
        if any(t is None for t in tables):
            return None
        return cls(rep, reaches, L_max, images, np.stack(tables, axis=-1), jordan)

    def __init__(self, rep, reaches, L_max: int, images, tables: np.ndarray, jordan: bool):
        """tables[a, b, i] is C_i[a, b]."""
        k, d = rep.k, rep.d
        c1 = _generator_norm(rep, images, jordan)
        ball = max([R for axis, R in reaches if axis == "norm"], default=0.0)
        scale = 1.0 + self.MARGIN
        self.norm2 = [(max(ball, n * c1) * scale + self.MARGIN) ** 2 for n in range(L_max + 1)]
        self.coords = [(axis, R * scale + self.MARGIN) for axis, R in reaches if axis != "norm"]
        m = np.zeros((max(L_max, 2), 2 * k, d))  # m[r, b, i] = m_ib(r)
        exact = min(self.EXACT, L_max - 1)
        m[1 : exact + 1] = np.inf
        for letters, _, evals in _walk(k, exact, images):
            mu = np.column_stack([cartan_chunk(P, S) for P, S in evals])
            np.minimum.at(m[letters.shape[1]], letters[:, 0], mu)
        for r in range(exact + 1, L_max):
            low = m[r - 1 : 0 : -1].min(axis=1)  # m_i(r - x) for x = 1..r-1
            m[r] = np.max(m[1:r] + low[:, None], axis=0) - tables.max(axis=(0, 1))
        # slack[r, a, i] = s_ia(r); C_i[a, a ^ 1] = -inf drops b = a^-1
        self.slack = np.min(m[:, None] - tables[None], axis=2)
        # entry[b, i]: the largest C_i[c, b] over the letters c a necklace can end with
        self.entry = tables.max(axis=0) if jordan else None

    def beyond(self, cols, n: int) -> np.ndarray:
        """Rows whose lower bounds cols (one nonnegative array per factor)
        put every word of stratum n above them out of reach."""
        out = _col_sq_sum(cols) > self.norm2[n]
        for i, r in self.coords:
            out &= cols[i] > r
        return out

    def alive(self, evals, first, last, j: int, lengths) -> Optional[np.ndarray]:
        """The nodes of depth j to keep, or None when every node is kept.

        first and last are the nodes' first and last letters; a Cartan bound
        reads only last.  A node is dropped when, for every n in lengths,
        the words (or necklaces) of length n below it are out of reach."""
        h = [_cartan_floor(P, S) for P, S in evals]
        if self.entry is not None:
            h = [x - self.entry[:, i].take(first) for i, x in enumerate(h)]
        drop = True
        for n in lengths:
            slack = self.slack[n - j]
            drop &= self.beyond([np.maximum(x + slack[:, i].take(last), 0.0) for i, x in enumerate(h)], n)
            if not drop.any():
                return None
        return ~drop


def _tally(rep, chunks, families, grid, primitive_only, edges) -> _Partial:
    """The one chunk loop behind every census, horizon and ladder.

    chunks yields _stream's nonempty (letters, X, holos or None, primitive
    or None).  Per chunk it adds len(X) to the leaves, folds the minimal
    stretch per letter into c_min, adds each family's count_grid into its
    rows of counts (one row, or family.rows), and, when sector edges are
    given, adds the first family's count_grid of each holonomy sector's
    items into one row per complex factor and sector, factor-major, below.
    """
    spans = np.cumsum([0] + [getattr(f, "rows", 1) for f in families])
    sectors = 0 if edges is None else len(edges) - 1
    complex_factors = _complex_factors(rep) if sectors else []
    counts = np.zeros((spans[-1] + len(complex_factors) * sectors, grid.size), dtype=np.int64)
    c_min = math.inf
    leaves = 0
    for letters, X, holos, primitive in chunks:
        leaves += len(X)
        norms = np.sqrt(_row_sq_sum(X))
        c_min = min(c_min, float(np.min(norms / letters.shape[1])))
        keep = primitive if primitive_only else slice(None)
        rows = X[keep]
        for start, stop, family in zip(spans, spans[1:], families):
            counts[start:stop] += family.count_grid(rows, grid)
        for j, i in enumerate(complex_factors):
            sector = np.clip(np.searchsorted(edges, holos[keep, i], side="right") - 1, 0, sectors - 1)
            for s in range(sectors):
                counts[spans[-1] + j * sectors + s] += families[0].count_grid(rows[sector == s], grid)
    return _Partial(counts, c_min, leaves)


def _partial(rep, families, grid, L_max, classes, primitive_only, edges, images, bound, shard) -> _Partial:
    """_tally of one shard of the walk, over the classes or the words, from
    the generator images and the bound that the census built for every shard."""
    chunks = _stream(rep, L_max, shard, bound, classes, images)
    return _tally(rep, chunks, families, grid, primitive_only, edges)


# the three walks' shard tasks, by the names the tracer times
def _jordan_partial(*args) -> _Partial:
    return _partial(*args)


def _cartan_partial(*args) -> _Partial:
    return _partial(*args)


def _box_partial(*args) -> _Partial:
    return _partial(*args)


def _serve(task: Callable, shard, fd: int):
    """The body of a forked shard process: task(shard), or the exception it
    raised, pickled into the pipe's write end fd; never returns.  The exit
    status is 0 only once the whole result is written."""
    status = 1
    try:
        try:
            result = task(shard)
        except Exception as exc:  # carried to the parent and raised there
            result = exc
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _run_sharded(task: Callable, workers: int) -> _Partial:
    """task(shard) over the shards (w, workers), w = 0..workers-1, of the
    walk, merged into one _Partial: counts and leaves summed, c_min least.

    One worker runs task((0, 1)) in this process and never forks.  With
    more, the process forks one child per shard 1..workers-1, walks shard 0
    itself while they run, then reads each child's pipe and reaps it: a
    child pickles its _Partial, or the exception its shard raised, which is
    raised again here with its own type, and a child that exits without a
    whole result is WorkerCrashed, as is a pipe or fork the system refuses
    (EMFILE at the descriptor limit, EAGAIN at the process limit).  If this
    process's own shard raises or is interrupted, or a fork fails, the
    children it forked are killed and reaped.  Forking needs POSIX os.fork;
    without it workers above 1 are a ValueError, as is workers below 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    shards = [(w, workers) for w in range(workers)]
    if workers == 1:
        return task(shards[0])
    if not hasattr(os, "fork"):
        raise ValueError(f"workers={workers} needs os.fork, which this platform lacks")
    pids, pipes = [], []  # the children not yet reaped, and their read ends
    try:
        for shard in shards[1:]:
            try:
                r, w = os.pipe()
                pipes.append(r)
                try:
                    pid = os.fork()
                    if pid == 0:
                        _serve(task, shard, w)
                finally:
                    os.close(w)
            except OSError as exc:
                raise WorkerCrashed(
                    f"could not start the census worker for shard {shard[0]}: {exc}"
                ) from None
            pids.append(pid)
        parts = [task(shards[0])]
        for shard in shards[1:]:
            with os.fdopen(pipes.pop(0), "rb") as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
            if status != 0:
                raise WorkerCrashed(f"the census worker for shard {shard[0]} died (exit status {status})")
            part = pickle.loads(data)
            if isinstance(part, BaseException):
                raise part
            parts.append(part)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for r in pipes:
            os.close(r)
    return _Partial(sum(p.counts for p in parts), min(p.c_min for p in parts), sum(p.leaves for p in parts))


def _census(rep, kind, families, grid, L_max, workers, force, edges=None, profile=None):
    """The one census driver: count families over grid for the census kind,
    on every worker shard, and return (the merged _Partial, t_trust).

    kind picks the shard task: _cartan_partial for KIND_CARTAN, else
    _jordan_partial, or _box_partial when sector edges are given, counting
    primitive classes only for KIND_JORDAN_PRIMITIVE.  The generator images
    and the pruning bound are built here, once, and handed to the task in
    its one argument list.  The horizon is capped at the grid's last T, and uncapped without
    families, where the grid is not read.  When profile is given, a Cartan
    walk adds its evaluated leaves to profile["cartan_leaves"], and a class
    walk its evaluated classes to profile["class_leaves"].
    """
    _gate_validated(rep, force)
    if L_max < 1:
        raise InsufficientData("need at least the length-1 stratum")
    grid = _checked_grid(grid) if families else np.empty(0)
    _check_budget(rep.k, L_max)  # before the bound's walk and any fork
    classes, primitive_only = kind != KIND_CARTAN, kind == KIND_JORDAN_PRIMITIVE
    images = _factor_images(rep)
    bound = _Pruning.of(rep, families, grid, L_max, images, classes)  # once, before any fork
    task = _cartan_partial if not classes else _jordan_partial if edges is None else _box_partial
    args = (rep, families, grid, L_max, classes, primitive_only, edges, images, bound)
    part = _run_sharded(functools.partial(task, *args), workers)
    if profile is not None:
        key = "class_leaves" if classes else "cartan_leaves"
        profile[key] = profile.get(key, 0) + part.leaves
    return part, _horizon(part.c_min, L_max, float(grid[-1]) if families else math.inf)


def _series(rep, kind, family, t_grid, L_max, workers, force, edges=None, profile=None):
    """_census of one family, its first count row as a CountSeries; returns
    (series, the merged _Partial)."""
    part, t_trust = _census(rep, kind, (family,), t_grid, L_max, workers, force, edges, profile)
    series = CountSeries(
        t_grid=t_grid,
        counts=part.counts[0],
        kind=kind,
        region=family.region_id,
        L_max=L_max,
        t_trust=t_trust,
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
    profile: Optional[dict] = None,
) -> CountSeries:
    """Count conjugacy classes whose Jordan vector lies in family(T), per grid T.

    The walk skips the classes no grid point can count (_Pruning); every
    class is in iter_class_chunks.  profile, when given, is a dict whose
    "class_leaves" the walk adds its evaluated classes to.
    """
    kind = KIND_JORDAN_PRIMITIVE if primitive_only else KIND_JORDAN
    return _series(rep, kind, family, t_grid, L_max, workers, force, profile=profile)[0]


def census_cartan(
    rep: Representation,
    family,
    t_grid,
    L_max: int,
    workers: int = 1,
    force: bool = False,
    profile: Optional[dict] = None,
) -> CountSeries:
    """Count group elements whose Cartan vector lies in family(T), per grid T.

    The walk skips the words no grid point can count (_Pruning); every word
    is in iter_word_chunks.  profile, when given, is a dict whose
    "cartan_leaves" the walk adds its evaluated words to.
    """
    return _series(rep, KIND_CARTAN, family, t_grid, L_max, workers, force, profile=profile)[0]


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
    profile: Optional[dict] = None,
):
    """Moving-box census of Jordan vectors, optionally cross-classified by
    holonomy sector per complex factor.

    Returns (CountSeries, histograms) where histograms is None without
    sectors, else {factor_index: [HolonomyHistogram per grid point]}, read
    from the sector rows below the box's row.  A box, sector edges
    (_checked_edges) or grid that breaks its rule, and sectors on a
    representation with no complex factor (algebra.RealFactor), are refused
    before any walk.  The walk is pruned to the box's reach and profiled as
    in census_jordan.
    """
    family = BoxWindowFamily(direction, widths)
    complex_factors = _complex_factors(rep)
    edges = None if sectors is None else _checked_edges(sectors)
    if edges is not None and not complex_factors:
        raise algebra.RealFactor("holonomy is only defined for complex factors")
    kind = KIND_JORDAN_PRIMITIVE if primitive_only else KIND_JORDAN
    series, part = _series(rep, kind, family, t_grid, L_max, workers, force, edges, profile)
    if edges is None:
        return series, None
    rows = part.counts[1:].reshape(len(complex_factors), edges.size - 1, len(series.t_grid))
    return series, {
        i: [HolonomyHistogram(tuple(edges), tuple(h.tolist()), i, t) for h, t in zip(hist.T, series.t_grid)]
        for i, hist in zip(complex_factors, rows)
    }


def completeness_horizon(
    rep: Representation,
    L_max: int,
    kind: str,
    workers: int = 1,
    force: bool = False,
    profile: Optional[dict] = None,
) -> Tuple[float, float]:
    """(t_trust, c_min_hat) from the empirical minimal stretch per word length.

    The horizon backs off one full c_min_hat below c_min_hat * (L_max - 1).
    If every word the enumeration missed stretches at least c_min_hat per
    letter, as the enumerated ones do, it is longer than c_min_hat * L_max
    and counts below the horizon are complete.  That premise is empirical:
    c_min_hat is a minimum over the enumerated items only, so the horizon
    is an empirical estimate, not a certificate.  kind is "jordan", the
    minimum over the conjugacy classes, or "cartan", over the words; a
    horizon counts no family, so it has no primitive-only kind.
    """
    kinds = {"jordan": KIND_JORDAN, "cartan": KIND_CARTAN}
    if kind not in kinds:
        raise ValueError(f"horizon kind must be 'jordan' or 'cartan', got {kind!r}")
    part, t_trust = _census(rep, kinds[kind], (), (), L_max, workers, force, profile=profile)
    if not math.isfinite(part.c_min):
        raise InsufficientData("enumeration produced no items")
    return t_trust, part.c_min
