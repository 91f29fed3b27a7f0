"""The counting hot loop.

Streams reduced words / conjugacy-class necklaces through a representation
in fixed-size chunks, evaluates per-factor matrix products vectorized over
the chunk, and classifies the resulting spectrum vectors against the region
families of regions.py over a T-grid: one count row per family, or per
aperture for a ladder family.

_census is the one census driver: census_jordan, census_cartan,
census_box, the growth-indicator ladder (fitting) and completeness_horizon
all call it, with a census kind and the families to count.  It alone
gates the representation, refuses an L_max below 1 and a spectra sink
across processes, validates the grid, picks the shard task from the kind,
runs it over the worker shards, adds the evaluated Cartan leaves to a
profile and computes the horizon.  The public entries only wrap its
counts: one family's first row as a CountSeries (_series), or nothing
but the horizon.  Each shard task, _jordan_partial, _cartan_partial or
_box_partial, only picks the chunk stream for _tally, the one chunk loop;
they keep their names because the perfbench tracer wraps them by name and
counts their spans as shard busy time.  The word budget is not a
parameter: group._check_budget reads SPECTRA_CENSUS_MAX_WORDS, or
DEFAULT_BUDGET, where each stream starts.

Every word is addressed by its index in the depth-first lexicographic order,
and its (P, S) is the left fold of its letters through one renormalized step
(_extend): the same floats in the same order whichever chunk or shard
computes its prefixes, whether word by word (evaluate_chunk) or down the
prefix tree (_fold_walk).  Counts are therefore bit-identical for any
chunking and any number of worker shards, and shard merges are plain
integer sums.  Shards take every workers-th chunk of the walk.  The fold
keeps each 2x2 in struct-of-arrays form, a 4-tuple (p00, p01, p10, p11) of
contiguous 1-d arrays, for words and necklaces, real and complex alike.

The Cartan stream (_word_stream) folds each chunk of word indices down the
prefix tree, every factor together (_fold_walk), and never decodes it.
The deep levels of the tree are folded in blocks of at most BLOCK rows,
each reduced to its Cartan projections at once, so no array of the walk
grows past a block: the cost of a CHUNK-long step was page faults, not
arithmetic, as the allocator returned each step's freed temporaries to the
kernel and the next step faulted them back in.  A census drops the
subtrees no grid point can count (_Pruning), by the certified defect
constants of reps.defect_constant.  _tally needs only the word length, and
the letters are decoded (decode_words) only for a spectra sink, or for
iter_word_chunks; both walk every word.  The Jordan stream, one necklace
per conjugacy class, walks the same tree but keeps only prenecklaces by their FKM state
(necklace_walk), so its cost scales with the classes rather than the
words; the survivors are evaluated word by word (evaluate_chunk).
canonical_mask and periods, necklace filters over whole decoded rows, are
its test oracles.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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
    defect_constant,
    generator_arrays,
    validate_representation,
)

CHUNK = 1 << 15
BLOCK = 1 << 12
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


def _fold_walk(k: int, n: int, start: int, stop: int, factors, bound=None):
    """Per block of leaves of [start, stop) in stratum n, in index order, one
    (P, S) per factor: the renormalized products of the words, folded down
    the prefix tree, every factor together.

    At depth j the ancestors of the leaves form the contiguous index range
    [start // b^(n-j), (stop-1) // b^(n-j) + 1) of stratum j, with b = 2k-1.
    Depth 1 is the generator images; each deeper level extends the level
    above by one _extend step per node, so a word costs about b/(b-1)
    products instead of n-1, and its (P, S), P the 4-tuple (p00, p01, p10,
    p11) of entry arrays in the order cartan_chunk sums them, is
    bit-identical to evaluate_chunk's.  Only the first and the last node of
    a level can have children outside the range.

    A level is folded whole while its children fit in BLOCK rows; past that
    its nodes are split into runs whose children do, and each run is
    descended in turn, so no array of the walk exceeds a block.  The blocks
    are for the pages, not the flops: a step over a whole CHUNK frees
    megabytes of temporaries, which the allocator hands back to the kernel
    and the next step faults in again, while a block's temporaries are
    reused from the heap.

    bound, a _Pruning, drops the internal nodes none of whose leaves it can
    need, with the whole subtree below them; a level that loses no node is
    not gathered.  Without a bound every leaf is yielded, and the blocks,
    concatenated, are evaluate_chunk's (P, S) for each factor.
    """
    table = _letter_table(k).astype(np.intp)
    base = 2 * k - 1

    def survivors(evals, last, j, left, right):
        # the rows at depth j that the bound keeps, with the end flags of the
        # survivors, or None when no row survives
        keep = bound.alive(evals, n, j)
        if keep is None:
            return evals, last, left, right
        idx = np.flatnonzero(keep)
        if not idx.size:
            return None
        evals = [(_gather(P, idx), S.take(idx)) for P, S in evals]
        return evals, last.take(idx), left and keep[0], right and keep[-1]

    def descend(j, evals, last, left, right):
        # left / right: the first / last row is the first / last node of
        # the range at depth j, whose outer children are clipped
        while j < n:
            pw = base ** (n - j)  # leaves per node at depth j
            child = pw // base
            r0 = start // child - start // pw * base if left else 0
            r1 = last.size * base
            if right:
                r1 -= (stop - 1) // pw * base + base - 1 - (stop - 1) // child
            if r1 - r0 > BLOCK and last.size > 1:
                g = max(1, BLOCK // base)
                for i in range(0, last.size, g):
                    run = slice(i, i + g)
                    yield from descend(
                        j, [(tuple(x[run] for x in P), S[run]) for P, S in evals], last[run],
                        left and i == 0, right and i + g >= last.size,
                    )
                return
            parent = np.arange(r0, r1) // base
            last = table.take(last, axis=0).ravel()[r0:r1]
            evals = [
                _extend(_gather(P, parent), S.take(parent), _gather(images, last), logs.take(last))
                for (P, S), (images, logs) in zip(evals, factors)
            ]
            j += 1
            if bound is not None and j < n:
                kept = survivors(evals, last, j, left, right)
                if kept is None:
                    return
                evals, last, left, right = kept
        yield evals

    last = np.arange(start // base ** (n - 1), (stop - 1) // base ** (n - 1) + 1)
    evals = [(_gather(images, last), logs[last]) for images, logs in factors]
    if bound is None or n == 1:
        yield from descend(1, evals, last, True, True)
    else:
        kept = survivors(evals, last, 1, True, True)
        if kept is not None:
            yield from descend(1, *kept)


def necklace_walk(k: int, n: int, start: int, stop: int):
    """(letters, period) of the cyclically reduced necklaces among the rows of
    decode_words(k, n, start, stop), in row order, without decoding the rest.

    Descends the ancestors of the rows as _fold_walk does, keeping only
    prenecklaces with their FKM state p, the period of the longest Lyndon
    prefix (Cattell, Ruskey, Sawada, Serra and Miers, J. Algorithms 37,
    2000): appending a_t to a_0..a_{t-1} kills the node if a_t < a_{t-p},
    sets p = t + 1 if a_t > a_{t-p} and keeps p otherwise.  A leaf is a
    necklace iff n % p == 0, and then p is its period, so a word is primitive
    iff p == n.  The cost scales with the prenecklaces, not with the words.
    """
    table = _letter_table(k)
    base = 2 * k - 1
    pw = base ** (n - 1)
    node = np.arange(start // pw, (stop - 1) // pw + 1)
    letters = np.empty((node.size, n), dtype=np.int8)
    letters[:, 0] = node
    p = np.ones(node.size, dtype=np.int8)
    for t in range(1, n):
        pw //= base
        child = (node[:, None] * base + np.arange(base)).ravel()
        inside = (child >= start // pw) & (child <= (stop - 1) // pw)
        parent = np.repeat(np.arange(node.size), base)[inside]
        node = child[inside]
        a = table[letters[parent, t - 1], node % base]
        ref = letters[parent, t - p[parent]]
        alive = a >= ref
        parent, node, a = parent[alive], node[alive], a[alive]
        p = np.where(a > ref[alive], t + 1, p[parent])
        letters = letters[parent]
        letters[:, t] = a
    keep = (n % p == 0) & cyclically_reduced_mask(letters)
    return letters[keep], p[keep]


def jordan_chunk(P, S: np.ndarray, is_complex: bool, tol: float = algebra.DEFAULT_TOL):
    """(lengths, holonomy angles or None); raises NonLoxodromic on any failure."""
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
        mats, logs = generator_arrays(f, rep.k)
        out.append((tuple(mats[:, i, j].copy() for i in (0, 1) for j in (0, 1)), logs))
    return out


def _chunk_ranges(k: int, L_max: int, shard, chunk: int):
    """(n, lo, hi) for each chunk of each stratum in walk order; shard (w,
    workers) keeps every workers-th of them from the w-th on."""
    w, workers = (0, 1) if shard is None else shard
    sizes = [(n, stratum_size(k, n)) for n in range(1, L_max + 1)]
    ranges = ((n, lo, min(lo + chunk, total)) for n, total in sizes for lo in range(0, total, chunk))
    return itertools.islice(ranges, w, None, workers)


def _cartan_blocks(k: int, n: int, lo: int, hi: int, images, bound=None):
    """The Cartan vectors (m, d) of _fold_walk's blocks of leaves."""
    for evals in _fold_walk(k, n, lo, hi, images, bound):
        yield np.column_stack([cartan_chunk(P, S) for P, S in evals])


def _word_stream(rep, L_max: int, shard=None, chunk: int = CHUNK, reach=None):
    """Yields (n, lo, hi, mu (m,d), leaves) over all reduced words of length
    1..L_max: each chunk is the index range [lo, hi) of stratum n, whose
    words are folded down the prefix tree and never decoded.  leaves counts
    the words whose Cartan vector was evaluated.

    reach, when given, is the pair (families, grid) the chunks are counted
    for: the walk is then pruned by _Pruning.of, if it applies, and mu
    holds, in index order, only the words that some family may count or
    that may lower the minimal stretch per letter.  Otherwise mu holds every
    word of the chunk in index order.  shard, when given, is a pair (w,
    workers) from _shards; the default covers everything.
    """
    _check_budget(rep.k, L_max)
    images = _factor_images(rep)
    bound = None if reach is None else _Pruning.of(rep, *reach, L_max, images)
    for n, lo, hi in _chunk_ranges(rep.k, L_max, shard, chunk):
        mu = np.empty((hi - lo, rep.d))
        rows = leaves = 0
        for block in _cartan_blocks(rep.k, n, lo, hi, images, bound):
            leaves += len(block)
            if bound is not None:
                block = bound.kept(block, n)
            mu[rows : rows + len(block)] = block
            rows += len(block)
        yield n, lo, hi, mu[:rows], leaves


def iter_word_chunks(rep, L_max: int, shard=None, chunk: int = CHUNK):
    """Yields (letters, mu (m,d)) over all reduced words of length 1..L_max:
    _word_stream with each chunk's words decoded."""
    for n, lo, hi, mu, _ in _word_stream(rep, L_max, shard, chunk):
        yield decode_words(rep.k, n, lo, hi), mu


def iter_class_chunks(rep, L_max: int, shard=None, chunk: int = CHUNK):
    """Yields (letters, lam (m,d), holos (m,d) or None, primitive (m,)) over
    canonical necklaces of core length 1..L_max, one per conjugacy class.

    Each chunk holds the necklaces among one chunk of word indices, found by
    necklace_walk in index order; chunks without one are skipped.  shard is
    as in iter_word_chunks.
    """
    _check_budget(rep.k, L_max)
    images = _factor_images(rep)
    any_complex = any(f.field == algebra.COMPLEX for f in rep.factors)
    for n, lo, hi in _chunk_ranges(rep.k, L_max, shard, chunk):
        letters, period = necklace_walk(rep.k, n, lo, hi)
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
        yield letters, lam, holos, period == n


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
    leaves: int = 0  # Cartan vectors evaluated


class _Pruning:
    """Which Cartan words no family can count and the minimal stretch per
    letter does not need, from the certified defect constants C_i of
    reps.defect_constant.

    A word w = uv of stratum n whose prefix u has depth j < n has
    mu_i(w) >= mu_i(u) + m_i(n - j) - C_i, m_i(r) a lower bound on mu_i over
    the words of length r, so its Cartan vector lies above the point
    L = (max(0, mu_i(u) + m_i(n - j) - C_i))_i of the positive orthant.  The
    node u, and its subtree, is dropped when ||L|| > max(R, n c1) and every
    coordinate family's coordinate of L exceeds the grid's last T: a ball or
    ladder counts no norm beyond R, the grid's last T (R is 0 without
    families), a coordinate ray no coordinate beyond it, and no dropped word
    can lower c_min_hat, which is at most c1, the smallest generator norm,
    since stratum 1 holds that generator.  So counts, c_min_hat and t_trust
    are the full walk's.  A margin of 1e-9, relative and absolute, covers
    the rounding of the bound.

    Internal nodes are tested with h = log(||P||_F^2 / 2) <= mu, which saves
    cartan_chunk's three transcendental steps, and leaves by their own mu,
    with no defect term.  m_i(r) is the exact minimum for r <= EXACT (8,748
    words at k = 2), from an unpruned walk that every worker runs for
    itself, extended by m(a + b) >= m(a) + m(b) - C beyond.  The decision
    reads only a node's own (P, S) and these constants, so it does not
    depend on chunking or workers.
    """

    EXACT = 8
    MARGIN = 1e-9

    @classmethod
    def of(cls, rep, families, grid, L_max: int, images) -> Optional["_Pruning"]:
        """The bound for these families, or None when some factor has no
        defect certificate or some family no finite reach."""
        axes = [getattr(f, "reach_axis", None) for f in families]
        if None in axes:
            return None
        defects = [defect_constant(f) for f in rep.factors]
        if None in defects:
            return None
        return cls(rep, axes, float(grid[-1]) if axes else 0.0, L_max, images, np.array(defects))

    def __init__(self, rep, axes, reach: float, L_max: int, images, defects: np.ndarray):
        (mu1,) = _cartan_blocks(rep.k, 1, 0, 2 * rep.k, images)
        c1 = float(np.min(np.sqrt(_row_sq_sum(mu1))))
        ball = reach if "norm" in axes else 0.0
        scale = 1.0 + self.MARGIN
        self.norm2 = [(max(ball, n * c1) * scale + self.MARGIN) ** 2 for n in range(L_max + 1)]
        self.coords = [(a, reach * scale + self.MARGIN) for a in axes if a != "norm"]
        m = np.zeros((max(L_max, 2), rep.d))
        m[1] = mu1.min(axis=0)
        for r in range(2, L_max):
            if r <= self.EXACT:
                blocks = _cartan_blocks(rep.k, r, 0, stratum_size(rep.k, r), images)
                m[r] = functools.reduce(np.minimum, (b.min(axis=0) for b in blocks))
            else:
                m[r] = np.max(m[1:r] + m[r - 1 : 0 : -1], axis=0) - defects
        self.slack = (m - defects).tolist()  # m_i(r) - C_i per r

    def beyond(self, cols, n: int) -> np.ndarray:
        """Rows whose lower bounds cols (one nonnegative array per factor)
        put every word of stratum n above them out of reach."""
        out = _col_sq_sum(cols) > self.norm2[n]
        for i, r in self.coords:
            out &= cols[i] > r
        return out

    def alive(self, evals, n: int, j: int) -> Optional[np.ndarray]:
        """The rows of depth j < n to keep, or None when every row is kept."""
        slack = self.slack[n - j]
        # no entry of a walk's P exceeds 2 in modulus (RenormMatrix, _extend),
        # so h <= 2S + 3 log 2: a block whose largest S leaves it in reach
        # is kept without a test per row
        top = [max(0.0, 2.0 * float(S.max()) + 3.0 * LN2 + s) for (_, S), s in zip(evals, slack)]
        if not self.beyond(top, n):
            return None
        cols = [np.maximum(_cartan_floor(P, S) + s, 0.0) for (P, S), s in zip(evals, slack)]
        drop = self.beyond(cols, n)
        return ~drop if drop.any() else None

    def kept(self, mu: np.ndarray, n: int) -> np.ndarray:
        """The leaves of stratum n, mu (m, d) their Cartan vectors, that
        some family may count or that may lower the minimal stretch."""
        if not self.beyond(mu.max(axis=0).tolist(), n):
            return mu
        return mu[~self.beyond(mu.T, n)]


def _shards(workers: int) -> List[Optional[Tuple[int, int]]]:
    """One (w, workers) per worker: the walk's chunks are dealt round the
    workers, so each gets the same number of chunks give or take one, and
    the necklaces, which crowd the low indices of every stratum, are shared."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers == 1:
        return [None]
    return [(w, workers) for w in range(workers)]


def _tally(rep, chunks, families, grid, primitive_only, edges, sink) -> _Partial:
    """The one chunk loop behind every census, horizon and ladder.

    chunks yields (n, letters, X, holos or None, primitive or None), n the
    word length and letters None when no sink reads them.  Per chunk it
    folds the minimal stretch per letter into c_min, hands the chunk to the
    sink, adds each family's count_grid into its block of counts (one
    row, or family.rows), and, when sector edges are given, bins the
    holonomy of the rows inside the first family's window per grid time.
    """
    spans = np.cumsum([0] + [getattr(f, "rows", 1) for f in families])
    counts = np.zeros((spans[-1], grid.size), dtype=np.int64)
    hist = None if edges is None else np.zeros((rep.d, grid.size, len(edges) - 1), dtype=np.int64)
    c_min = math.inf
    complex_factors = [i for i, f in enumerate(rep.factors) if f.field == algebra.COMPLEX]
    for n, letters, X, holos, primitive in chunks:
        if not len(X):  # a chunk the bound pruned to nothing
            continue
        norms = np.sqrt(_row_sq_sum(X))
        c_min = min(c_min, float(np.min(norms / n)))
        if sink is not None:
            sink(letters, X, holos)
        keep = primitive if primitive_only else slice(None)
        rows = X[keep]
        for start, stop, family in zip(spans, spans[1:], families):
            counts[start:stop] += family.count_grid(rows, grid)
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


def _class_chunks(rep, L_max, shard):
    """iter_class_chunks in _tally's (n, letters, X, holos, primitive) form."""
    for letters, lam, holos, primitive in iter_class_chunks(rep, L_max, shard=shard):
        yield letters.shape[1], letters, lam, holos, primitive


def _jordan_partial(rep, families, grid, L_max, primitive_only, sink, shard) -> _Partial:
    chunks = _class_chunks(rep, L_max, shard)
    return _tally(rep, chunks, families, grid, primitive_only, None, sink)


def _cartan_partial(rep, families, grid, L_max, sink, shard) -> _Partial:
    # a sink reads every word in order, so it is walked unpruned
    reach = (families, grid) if sink is None else None
    leaves = 0

    def chunks():
        nonlocal leaves
        for n, lo, hi, mu, evaluated in _word_stream(rep, L_max, shard, reach=reach):
            leaves += evaluated
            yield n, None if sink is None else decode_words(rep.k, n, lo, hi), mu, None, None

    part = _tally(rep, chunks(), families, grid, False, None, sink)
    part.leaves = leaves
    return part


def _box_partial(rep, families, grid, L_max, primitive_only, edges, sink, shard) -> _Partial:
    chunks = _class_chunks(rep, L_max, shard)
    return _tally(rep, chunks, families, grid, primitive_only, edges, sink)


def _run_sharded(task: Callable, workers: int) -> _Partial:
    shards = _shards(workers)
    if len(shards) == 1:
        return task(shards[0])
    # imported here: a one-process run never needs the pool, and the import
    # costs tens of milliseconds of start-up
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(task, shards))
    except BrokenProcessPool as exc:
        raise WorkerCrashed(f"a census worker process died: {exc}") from exc
    hist = None if parts[0].histograms is None else sum(p.histograms for p in parts)
    return _Partial(
        sum(p.counts for p in parts), min(p.c_min for p in parts), hist, sum(p.leaves for p in parts)
    )


def _census(rep, kind, families, grid, L_max, workers, force, sink=None, edges=None, profile=None):
    """The one census driver: count families over grid for the census kind,
    on every worker shard, and return (the merged _Partial, t_trust).

    kind picks the shard task: _cartan_partial for KIND_CARTAN, else
    _jordan_partial, or _box_partial when sector edges are given, counting
    primitive classes only for KIND_JORDAN_PRIMITIVE.  The horizon is capped
    at the grid's last T, and uncapped without families, where the grid is
    not read.  A Cartan walk adds its evaluated leaves to
    profile["cartan_leaves"], when profile is given.
    """
    _gate_validated(rep, force)
    if L_max < 1:
        raise InsufficientData("need at least the length-1 stratum")
    if sink is not None and workers > 1:
        raise ValueError("a spectra sink requires workers=1 (callbacks do not cross processes)")
    grid = np.asarray(grid, dtype=float)
    if families and (grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0)):
        raise ValueError("t_grid must be a nonempty strictly increasing 1-d array")
    primitive_only = kind == KIND_JORDAN_PRIMITIVE
    if kind == KIND_CARTAN:
        task = functools.partial(_cartan_partial, rep, families, grid, L_max, sink)
    elif kind not in (KIND_JORDAN, KIND_JORDAN_PRIMITIVE):
        raise ValueError(f"unknown census kind {kind!r}")
    elif edges is None:
        task = functools.partial(_jordan_partial, rep, families, grid, L_max, primitive_only, sink)
    else:
        task = functools.partial(_box_partial, rep, families, grid, L_max, primitive_only, edges, sink)
    part = _run_sharded(task, workers)
    if profile is not None and kind == KIND_CARTAN:
        profile["cartan_leaves"] = profile.get("cartan_leaves", 0) + part.leaves
    return part, _horizon(part.c_min, L_max, float(grid[-1]) if families else math.inf)


def _series(rep, kind, family, t_grid, L_max, workers, force, sink=None, edges=None, profile=None):
    """_census of one family, its first count row as a CountSeries; returns
    (series, the merged _Partial)."""
    part, t_trust = _census(rep, kind, (family,), t_grid, L_max, workers, force, sink, edges, profile)
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
    spectra_sink=None,
) -> CountSeries:
    """Count conjugacy classes whose Jordan vector lies in family(T), per grid T."""
    kind = KIND_JORDAN_PRIMITIVE if primitive_only else KIND_JORDAN
    return _series(rep, kind, family, t_grid, L_max, workers, force, spectra_sink)[0]


def census_cartan(
    rep: Representation,
    family,
    t_grid,
    L_max: int,
    workers: int = 1,
    force: bool = False,
    spectra_sink=None,
    profile: Optional[dict] = None,
) -> CountSeries:
    """Count group elements whose Cartan vector lies in family(T), per grid T.

    The walk skips the words no grid point can count (_Pruning) unless a
    spectra sink reads every word; profile, when given, is a dict whose
    "cartan_leaves" the walk adds its evaluated words to.
    """
    return _series(
        rep, KIND_CARTAN, family, t_grid, L_max, workers, force, spectra_sink, profile=profile
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
    series, part = _series(rep, kind, family, t_grid, L_max, workers, force, spectra_sink, edges)
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
    profile: Optional[dict] = None,
) -> Tuple[float, float]:
    """(t_trust, c_min_hat) from the empirical minimal stretch per word length.

    The horizon backs off one full c_min_hat below c_min_hat * (L_max - 1).
    If every word the enumeration missed stretches at least c_min_hat per
    letter, as the enumerated ones do, it is longer than c_min_hat * L_max
    and counts below the horizon are complete.  That premise is empirical:
    c_min_hat is a minimum over the enumerated items only, so the horizon
    is an empirical estimate, not a certificate.  kind is a census kind, or
    "jordan" or "cartan" for short.
    """
    kind = {"jordan": KIND_JORDAN, "cartan": KIND_CARTAN}.get(kind, kind)
    part, t_trust = _census(rep, kind, (), (), L_max, workers, force, profile=profile)
    if not math.isfinite(part.c_min):
        raise InsufficientData("enumeration produced no items")
    return t_trust, part.c_min
