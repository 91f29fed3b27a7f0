"""Representation tuples into products of SL(2,R)/SL(2,C) factors.

Covers loading/serializing representation documents, the standard Schottky
pair builder, constructive discreteness certification via isometric-circle
ping-pong, scalar word evaluation and spectrum vectors (test references for the
vectorized census engine), and numerical detection of dependent factor tuples.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import algebra
from .algebra import COMPLEX, REAL, NotUnimodular, RenormMatrix
from .errors import SpectraCensusError
from .group import CyclicWord, Word, letter_code

# Deterministic frame rotations tried when a generator fixes infinity and
# isometric circles degenerate.  Angles are arbitrary but fixed so that
# validation reports are reproducible run to run.
_FALLBACK_ANGLES = (0.6, 1.1, 0.35, 1.7)

DEFAULT_PINGPONG_TOL = 1e-9
DEFAULT_DEPENDENCE_TOL = 1e-6


class SchemaError(SpectraCensusError):
    """Representation document does not match the expected schema."""


class PingPongFailure(SpectraCensusError):
    """Isometric circles overlap; the pair is not certified Schottky."""


class NotApplicable(SpectraCensusError):
    """Isometric circles are degenerate in every attempted frame."""


class InsufficientData(SpectraCensusError):
    """Not enough conjugacy classes to probe dependence."""


@dataclass(frozen=True)
class Factor:
    field: str
    generators: Tuple[RenormMatrix, ...]

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field tag {self.field!r}")
        for g in self.generators:
            if g.field != self.field:
                raise ValueError("generator field tag differs from factor field")


@dataclass(frozen=True)
class Representation:
    """d-tuple of rank-one factors sharing one free group of rank k."""

    k: int
    factors: Tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one factor")
        for f in self.factors:
            if len(f.generators) != self.k:
                raise ValueError("every factor needs exactly k generator images")

    @property
    def d(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class ProductElement:
    """Per-factor renormalized image of one word."""

    matrices: Tuple[RenormMatrix, ...]


@dataclass(frozen=True)
class SpectrumVector:
    """Point of the positive chamber: a Jordan or Cartan vector."""

    coords: Tuple[float, ...]
    kind: str  # "jordan" | "cartan"
    holonomies: Optional[Tuple[Optional[float], ...]] = None

    def __post_init__(self):
        if self.kind not in ("jordan", "cartan"):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        for c in self.coords:
            if not math.isfinite(c) or c < 0.0:
                raise ValueError(f"spectrum coordinate {c!r} is not a finite nonneg real")
        if self.kind == "jordan" and any(c <= 0.0 for c in self.coords):
            raise ValueError("jordan vectors must be strictly positive")


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    margin: float
    circles: Tuple[Tuple[complex, float, str], ...]
    frame_rotation: Optional[float]
    message: str


@dataclass(frozen=True)
class DependenceReport:
    rank: int
    dependent: bool
    singular_values: Tuple[float, ...]
    m_hat: Optional[float]
    M_hat: Optional[float]
    probe_core_length: int
    n_classes: int
    tol: float


# ---------------------------------------------------------------------------
# builders


def schottky_pair(
    stretch: float,
    separation: float,
    field: str = REAL,
    twist: Optional[float] = None,
) -> Representation:
    """Standard ping-pong pair: a diagonal stretch and its conjugate by a
    hyperbolic translation of length `separation` along a perpendicular axis.

    The complex variant multiplies the eigenvalues by exp(+-i twist), which
    makes the generator holonomy exactly `twist` mod pi.  The returned pair
    is certified by validate_ping_pong; in the default validation frames the
    certificate holds empirically for separation >= 2 at stretch >= 3 and
    separation >= 3 down to stretch 2.
    """
    if stretch <= 1.0:
        raise ValueError("stretch must exceed 1")
    if separation <= 0.0:
        raise ValueError("separation must be positive")
    if field == REAL:
        if twist not in (None, 0.0):
            raise ValueError("twist is only meaningful for complex factors")
        g1 = np.array([[stretch, 0.0], [0.0, 1.0 / stretch]])
    elif field == COMPLEX:
        tw = 0.0 if twist is None else float(twist)
        g1 = np.array(
            [
                [stretch * np.exp(1j * tw), 0.0],
                [0.0, np.exp(-1j * tw) / stretch],
            ]
        )
    else:
        raise ValueError(f"unknown field tag {field!r}")
    c, s = math.cosh(separation / 2.0), math.sinh(separation / 2.0)
    h = np.array([[c, s], [s, c]])
    hinv = np.array([[c, -s], [-s, c]])
    g2 = h @ g1 @ hinv
    rep = Representation(
        k=2, factors=(Factor(field, (algebra.from_raw(g1, field), algebra.from_raw(g2, field))),)
    )
    report = validate_ping_pong(rep)
    if not report.passed:
        raise PingPongFailure(
            f"schottky_pair(stretch={stretch}, separation={separation}) failed "
            f"ping-pong with margin {report.margin:.6g}"
        )
    return rep


def join(*reps: Representation) -> Representation:
    """Concatenate factor tuples of representations of the same rank."""
    if not reps:
        raise ValueError("join needs at least one representation")
    k = reps[0].k
    if any(r.k != k for r in reps):
        raise ValueError("all representations must share the free-group rank")
    factors: List[Factor] = []
    for r in reps:
        factors.extend(r.factors)
    return Representation(k=k, factors=tuple(factors))


def conjugate_factor(factor: Factor, h) -> Factor:
    """Conjugate every generator image by a fixed unimodular matrix."""
    hm = algebra.from_raw(h, factor.field)
    return Factor(factor.field, tuple(algebra.conjugate(hm, g) for g in factor.generators))


# ---------------------------------------------------------------------------
# documents


def load_representation(document: dict) -> Representation:
    """Parse a representation document; see README for the schema."""
    if not isinstance(document, dict):
        raise SchemaError("representation document must be a mapping")
    try:
        k = int(document["rank"])
    except (KeyError, TypeError, ValueError):
        raise SchemaError("missing or invalid 'rank'") from None
    if k < 1:
        raise SchemaError("'rank' must be at least 1")
    factors_doc = document.get("factors")
    if not isinstance(factors_doc, list) or not factors_doc:
        raise SchemaError("'factors' must be a nonempty list")
    factors = []
    for fi, fdoc in enumerate(factors_doc):
        if not isinstance(fdoc, dict):
            raise SchemaError(f"factor {fi} must be a mapping")
        field = fdoc.get("field")
        if field not in (REAL, COMPLEX):
            raise SchemaError(f"factor {fi}: field must be 'real' or 'complex'")
        gens_doc = fdoc.get("generators")
        if not isinstance(gens_doc, list) or len(gens_doc) != k:
            raise SchemaError(f"factor {fi}: need exactly {k} generator matrices")
        gens = []
        for gi, gdoc in enumerate(gens_doc):
            mat = _parse_matrix(gdoc, field, fi, gi)
            try:
                gens.append(algebra.from_raw(mat, field))
            except NotUnimodular as exc:
                raise NotUnimodular(
                    f"factor {fi} generator {gi}: {exc}", factor=fi, generator=gi
                ) from None
        factors.append(Factor(field, tuple(gens)))
    return Representation(k=k, factors=tuple(factors))


def _parse_matrix(gdoc, field: str, fi: int, gi: int) -> np.ndarray:
    where = f"factor {fi} generator {gi}"
    if not isinstance(gdoc, list) or len(gdoc) != 4:
        raise SchemaError(f"{where}: matrix must be a row-major list of 4 entries")
    vals = []
    for ei, entry in enumerate(gdoc):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise SchemaError(f"{where} entry {ei}: expected an [re, im] pair")
        # not bools or strings, which float() reads, nor NaN or Infinity, which
        # json.load reads and neither the unimodularity check nor the gate rejects
        if not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in entry):
            raise SchemaError(f"{where} entry {ei}: {entry!r} is not a pair of finite numbers")
        re, im = float(entry[0]), float(entry[1])
        if field == REAL and im != 0.0:
            raise SchemaError(f"{where} entry {ei}: real factor with nonzero imaginary part")
        vals.append(complex(re, im))
    arr = np.array(vals).reshape(2, 2)
    return arr.real if field == REAL else arr


def to_document(rep: Representation) -> dict:
    """Serialize to the loader schema (true matrices, row-major [re, im] pairs)."""
    factors = []
    for f in rep.factors:
        gens = []
        for g in f.generators:
            true = g.true_matrix().astype(complex).reshape(4)
            gens.append([[float(z.real), float(z.imag)] for z in true])
        factors.append({"field": f.field, "generators": gens})
    return {"rank": rep.k, "factors": factors}


# ---------------------------------------------------------------------------
# ping-pong validation


def _rotation_frame(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _isometric_circles(mats: Sequence[RenormMatrix]) -> Optional[List[Tuple[complex, float]]]:
    """(center, radius) of the isometric circle of each matrix, or None if
    some matrix fixes infinity (lower-left entry numerically zero)."""
    out = []
    for g in mats:
        true = g.true_matrix()
        c, d = complex(true[1, 0]), complex(true[1, 1])
        scale = max(abs(complex(x)) for x in true.reshape(4))
        if abs(c) <= 1e-12 * scale:
            return None
        out.append((-d / c, 1.0 / abs(c)))
    return out


def validate_ping_pong(rep: Representation) -> ValidationReport:
    """Certify freeness/discreteness of a one-factor pair via isometric circles.

    Passes iff the four circles of g1^±1, g2^±1 are pairwise disjoint with
    margin > DEFAULT_PINGPONG_TOL, the census gate's tolerance.  This is a
    sufficient condition only: a failure means "not certified", not "not
    Schottky".  Generators fixing infinity have degenerate circles; the
    check is then run in a deterministically rotated frame, which does not
    change the group.
    """
    if rep.d != 1:
        raise ValueError("validate_ping_pong expects a one-factor representation")
    if rep.k != 2:
        raise ValueError("validate_ping_pong expects exactly two generators")
    factor = rep.factors[0]
    g1, g2 = factor.generators
    labels = ("g1", "g1^-1", "g2", "g2^-1")

    def circles_for(frame_theta: Optional[float]):
        if frame_theta is None:
            a, b = g1, g2
        else:
            r = algebra.from_raw(_rotation_frame(frame_theta), factor.field)
            a, b = algebra.conjugate(r, g1), algebra.conjugate(r, g2)
        return _isometric_circles([a, algebra.inverse(a), b, algebra.inverse(b)])

    frame = None
    circles = circles_for(None)
    if circles is None:
        for theta in _FALLBACK_ANGLES:
            circles = circles_for(theta)
            if circles is not None:
                frame = theta
                break
    if circles is None:
        raise NotApplicable(
            "isometric circles degenerate in every attempted frame "
            "(a generator fixes infinity identically; is it elliptic or trivial?)"
        )

    margin = math.inf
    for i in range(4):
        for j in range(i + 1, 4):
            (ci, ri), (cj, rj) = circles[i], circles[j]
            margin = min(margin, abs(ci - cj) - ri - rj)
    passed = margin > DEFAULT_PINGPONG_TOL
    message = "pairwise disjoint isometric circles" if passed else "isometric circles overlap or nest"
    return ValidationReport(
        passed=passed,
        margin=float(margin),
        circles=tuple((c, r, lbl) for (c, r), lbl in zip(circles, labels)),
        frame_rotation=frame,
        message=message,
    )


def defect_table(factor: Factor) -> Optional[np.ndarray]:
    """Certified per-letter-pair quasi-additivity defects of one rank-2
    factor, a (4, 4) array C in letter-code order, or None.

    For every reduced product uv of nonempty words u, v whose cut is the
    letter pair (a, b), a the last letter of u and b the first of v,
    mu(uv) >= mu(u) + mu(v) - C[a, b], mu the Cartan length d(o, g.o) at the
    basepoint o = j of upper half-space (Beardon, The Geometry of Discrete
    Groups, 1983, on isometric circles; Bridson and Haefliger, Metric Spaces
    of Non-positive Curvature, 1999, III.H.1, on Gromov products).  No
    reduced product cuts at (a, a^-1), and C[a, a ^ 1] is -inf.

    Proof sketch.  mu(uv) = d(u^-1.o, v.o) = mu(u) + mu(v) - 2(u^-1.o . v.o)_o.
    A generator maps the outside of its isometric hemisphere into the inside
    of its inverse's, so, with o outside all four disjoint hemispheres of the
    ping-pong certificate, u^-1.o lies inside the hemisphere of a and v.o
    inside the hemisphere of b^-1: different hemispheres, since uv is
    reduced.  The ray from o through a point of a half-space stays inside
    that half-space, and moving a point outward along its ray never lowers
    the Gromov product, so (u^-1.o . v.o)_o <= (xi . eta)_o =
    -log sin(theta/2) for the ends xi, eta of the rays, theta >= the
    smallest visual angle from o between the two boundary discs.  Hence
    C[a, b] = -2 log sin(theta/2) for the disc pair (a, b^-1).  Seen from o,
    the disc of center c and radius r is the spherical cap of angular radius
    atan2(2r, 1 + |c|^2 - r^2) around the polar angle atan(|c| - r) +
    atan(|c| + r) in the direction arg c.

    Corollary (C_lambda).  For a cyclically reduced w every power w^m is
    reduced and every cut between its periods is (last(w), first(w)), so
    mu(w^m) >= m mu(w) - (m - 1) C[last(w), first(w)], and the translation
    length lambda(w) = lim mu(w^m)/m >= mu(w) - C[last(w), first(w)].

    The circles are the ones validate_ping_pong certifies at the gate's
    tolerance, DEFAULT_PINGPONG_TOL, in letter-code order (the inverse of
    letter a is a ^ 1); its frame rotations fix o, so mu is the same in
    every frame.  Returns None when the lemma does not apply: k != 2, the
    circles degenerate or fail ping-pong, or o lies inside (or on) a
    hemisphere.
    """
    if len(factor.generators) != 2:
        return None
    try:
        report = validate_ping_pong(Representation(k=2, factors=(factor,)))
    except NotApplicable:
        return None
    if not report.passed:
        return None
    caps = []
    for c, r, _ in report.circles:
        a = abs(c)
        room = 1.0 + a * a - r * r  # > 0 iff o lies outside the hemisphere
        if room <= 0.0:
            return None
        phi, psi = math.atan(a - r) + math.atan(a + r), cmath.phase(c)
        axis = np.array([math.sin(phi) * math.cos(psi), math.sin(phi) * math.sin(psi), -math.cos(phi)])
        caps.append((axis, math.atan2(2.0 * r, room)))
    table = np.full((4, 4), -np.inf)
    for i, (axis_a, radius_a) in enumerate(caps):
        for j, (axis_b, radius_b) in enumerate(caps[i + 1 :], i + 1):
            chord = float(np.linalg.norm(axis_a - axis_b))
            theta = 2.0 * math.asin(min(1.0, 0.5 * chord)) - radius_a - radius_b
            if theta <= 0.0:
                return None
            # the cuts (i, j ^ 1) and (j, i ^ 1) both meet the discs i and j
            table[i, j ^ 1] = table[j, i ^ 1] = 2.0 * -math.log(math.sin(0.5 * theta))
    return table


def defect_constant(factor: Factor) -> Optional[float]:
    """Certified quasi-additivity defect C of one rank-2 factor, or None: the
    largest entry of defect_table, so mu(uv) >= mu(u) + mu(v) - C for every
    reduced product uv of nonempty words u, v."""
    table = defect_table(factor)
    return None if table is None else float(table.max())


def validate_representation(rep: Representation):
    """Per-factor ping-pong reports; the gate passes iff every factor passes."""
    return tuple(validate_ping_pong(Representation(k=rep.k, factors=(f,))) for f in rep.factors)


# ---------------------------------------------------------------------------
# evaluation and spectra


def _images_with_inverses(factor: Factor) -> List[RenormMatrix]:
    out = []
    for g in factor.generators:
        out.append(g)
        out.append(algebra.inverse(g))
    return out


def generator_arrays(factor: Factor):
    """(2k, 2, 2) image array and (2k,) log-scale array in letter-code order."""
    imgs = _images_with_inverses(factor)
    dtype = np.complex128 if factor.field == COMPLEX else np.float64
    mats = np.stack([g.entries.astype(dtype) for g in imgs])
    logs = np.array([g.log_scale for g in imgs])
    return mats, logs


def evaluate(rep: Representation, w: Word) -> ProductElement:
    """Per-factor renormalized product of generator images along the word."""
    if not w.letters:
        raise ValueError("cannot evaluate the empty word")
    if max(abs(l) for l in w.letters) > rep.k:
        raise ValueError("word uses letters beyond the representation rank")
    mats = []
    for factor in rep.factors:
        imgs = _images_with_inverses(factor)
        acc = None
        for l in w.letters:
            g = imgs[letter_code(l)]
            acc = g if acc is None else algebra.mul(acc, g)
        mats.append(acc)
    return ProductElement(tuple(mats))


def lambda_vector(rep: Representation, c: CyclicWord) -> SpectrumVector:
    """Jordan vector of a conjugacy class, with per-complex-factor holonomies."""
    prod = evaluate(rep, c.word())
    coords = []
    holos: List[Optional[float]] = []
    for g in prod.matrices:
        coords.append(algebra.jordan_length(g))
        holos.append(algebra.holonomy_angle(g) if g.field == COMPLEX else None)
    return SpectrumVector(tuple(coords), "jordan", tuple(holos))


def mu_vector(rep: Representation, w: Word) -> SpectrumVector:
    """Cartan vector (per-factor basepoint displacement) of a group element."""
    prod = evaluate(rep, w)
    return SpectrumVector(tuple(algebra.cartan_length(g) for g in prod.matrices), "cartan")


# ---------------------------------------------------------------------------
# dependence detection


def detect_dependence(rep: Representation, L_probe: int) -> DependenceReport:
    """Numerical rank of the span of Jordan vectors up to core length L_probe:
    the singular values above DEFAULT_DEPENDENCE_TOL times the largest.

    Rank below d is the operational signature of dependent factors (the
    spectrum cone degenerates to a lower-dimensional cone).  The vectors are
    the ones the Jordan censuses count (census.iter_class_chunks).  This is
    a probe at finite depth, not a proof; the report records the depth.
    """
    from . import census  # census imports this module
    if rep.d < 2:
        raise ValueError("dependence detection needs at least two factors")
    if rep.k < 2 or L_probe < 1:
        raise ValueError(f"need rank >= 2 and L_probe >= 1, got {rep.k} and {L_probe}")
    # the walk interleaves core lengths; the SVD's last bits follow the row order
    chunks = sorted(census.iter_class_chunks(rep, L_probe), key=lambda c: c[0].shape[1])
    lam = np.concatenate([block for _, block, _, _ in chunks])
    if len(lam) < rep.d + 3:
        raise InsufficientData(
            f"only {len(lam)} classes up to core length {L_probe}; need {rep.d + 3}"
        )
    sv = np.linalg.svd(lam, compute_uv=False)
    rank = int(np.sum(sv > DEFAULT_DEPENDENCE_TOL * sv[0]))
    m_hat = M_hat = None
    if rep.d == 2:
        ratios = lam[:, 1] / lam[:, 0]
        m_hat, M_hat = float(ratios.min()), float(ratios.max())
    return DependenceReport(
        rank=rank,
        dependent=rank < rep.d,
        singular_values=tuple(float(s) for s in sv),
        m_hat=m_hat,
        M_hat=M_hat,
        probe_core_length=L_probe,
        n_classes=len(lam),
        tol=DEFAULT_DEPENDENCE_TOL,
    )
