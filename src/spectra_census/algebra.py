"""Renormalized 2x2 linear algebra over R and C.

A group element is stored as ``exp(log_scale) * entries`` with the entry
matrix kept at O(1) magnitude.  Products of length-L words in a Schottky
group grow like e^{cL} and overflow raw doubles near L ~ 350; keeping the
scale in a separate additive log leaves translation lengths, displacements
and holonomy angles accurate at any word length.

Renormalization always divides by an exact power of two, so it never
perturbs the stored entries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SpectraCensusError

LN2 = math.log(2.0)

REAL = "real"
COMPLEX = "complex"

DEFAULT_TOL = 1e-9


class NonLoxodromic(SpectraCensusError):
    """Element failed the loxodromy test; in a validated Schottky group this
    signals a broken representation, not a legitimate input."""


class RealFactor(SpectraCensusError):
    """Holonomy requested on a real factor, which carries none in this model."""


class NotUnimodular(SpectraCensusError):
    def __init__(self, message, factor=None, generator=None):
        super().__init__(message)
        self.factor = factor
        self.generator = generator


@dataclass(frozen=True)
class RenormMatrix:
    """2x2 matrix with max entry magnitude in [1/2, 2] plus a log scale.

    The represented ("true") matrix is exp(log_scale) * entries and has
    determinant 1 by construction: raw input is projected onto SL2 at
    load time and determinant multiplicativity preserves it under mul.
    """

    entries: np.ndarray
    log_scale: float
    field: str

    def true_matrix(self) -> np.ndarray:
        """Materialize the represented matrix; only sensible at small scale."""
        return math.exp(self.log_scale) * self.entries

    def trace_entries(self) -> complex:
        return complex(self.entries[0, 0] + self.entries[1, 1])


def _renormalize(entries: np.ndarray, log_scale: float):
    m = max(abs(entries[0, 0]), abs(entries[0, 1]), abs(entries[1, 0]), abs(entries[1, 1]))
    if m == 0.0:
        raise ValueError("zero matrix cannot be renormalized")
    if 0.5 <= m <= 2.0:
        return entries, log_scale
    _, e = math.frexp(m)  # m = f * 2**e, f in [0.5, 1)
    return entries / math.ldexp(1.0, e), log_scale + e * LN2


def from_raw(matrix, field: Optional[str] = None, tol: float = DEFAULT_TOL) -> RenormMatrix:
    """Build a RenormMatrix from a raw 2x2 array, enforcing det = 1.

    The residual determinant drift below ``tol`` is projected away by
    dividing by the principal square root of the determinant.
    """
    arr = np.asarray(matrix)
    if arr.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {arr.shape}")
    if field is None:
        field = COMPLEX if np.iscomplexobj(arr) else REAL
    if field not in (REAL, COMPLEX):
        raise ValueError(f"unknown field tag {field!r}")
    if field == REAL and np.iscomplexobj(arr):
        if np.any(arr.imag != 0.0):
            raise ValueError("real factor matrix has nonzero imaginary parts")
        arr = arr.real
    dtype = np.complex128 if field == COMPLEX else np.float64
    arr = arr.astype(dtype)
    det = arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]
    if abs(det - 1.0) > tol:
        raise NotUnimodular(f"determinant {det} differs from 1 by more than {tol}")
    root = cmath.sqrt(complex(det)) if field == COMPLEX else math.sqrt(float(det.real))
    arr = arr / root
    if field == COMPLEX:
        arr = arr.astype(np.complex128)
    entries, log_scale = _renormalize(arr, 0.0)
    return RenormMatrix(entries, float(log_scale), field)


def identity(field: str = REAL) -> RenormMatrix:
    dtype = np.complex128 if field == COMPLEX else np.float64
    return RenormMatrix(np.eye(2, dtype=dtype), 0.0, field)


def mul(a: RenormMatrix, b: RenormMatrix) -> RenormMatrix:
    """Product of the true matrices, renormalized."""
    if a.field != b.field:
        raise ValueError(f"field tags differ: {a.field} vs {b.field}")
    a00, a01, a10, a11 = a.entries.ravel().tolist()
    b00, b01, b10, b11 = b.entries.ravel().tolist()
    c00 = a00 * b00 + a01 * b10
    c01 = a00 * b01 + a01 * b11
    c10 = a10 * b00 + a11 * b10
    c11 = a10 * b01 + a11 * b11
    s = a.log_scale + b.log_scale
    m = max(abs(c00), abs(c01), abs(c10), abs(c11))
    if m == 0.0:
        raise ValueError("zero matrix cannot be renormalized")
    if not 0.5 <= m <= 2.0:
        _, e = math.frexp(m)
        inv = 1.0 / math.ldexp(1.0, e)  # exact power of two
        c00 *= inv
        c01 *= inv
        c10 *= inv
        c11 *= inv
        s += e * LN2
    return RenormMatrix(np.array(((c00, c01), (c10, c11))), s, a.field)


def inverse(g: RenormMatrix) -> RenormMatrix:
    # det(true) = 1, so the inverse is the adjugate at the same scale.
    E = g.entries
    adj = np.array([[E[1, 1], -E[0, 1]], [-E[1, 0], E[0, 0]]], dtype=E.dtype)
    entries, log_scale = _renormalize(adj, g.log_scale)
    return RenormMatrix(entries, log_scale, g.field)


def conjugate(h: RenormMatrix, g: RenormMatrix) -> RenormMatrix:
    return mul(mul(h, g), inverse(h))


def _dominant_eigenvalue(g: RenormMatrix) -> complex:
    """Eigenvalue of `entries` with the largest modulus.

    Uses det(entries) = exp(-2 log_scale), exact by the det = 1 invariant;
    computing the determinant from the entries instead would drown in
    rounding noise once log_scale exceeds ~18.
    """
    t = g.trace_entries()
    det = math.exp(-2.0 * g.log_scale)  # underflow to 0.0 is harmless
    r = cmath.sqrt(t * t - 4.0 * det)
    lam_p, lam_m = t + r, t - r
    lam = lam_p if abs(lam_p) >= abs(lam_m) else lam_m
    return 0.5 * lam


def _loxodromy_gate(g: RenormMatrix):
    """(passes, dominant eigenvalue of `entries` or None when trivially elliptic),
    at the tolerance DEFAULT_TOL that census.jordan_chunk also reads."""
    if g.field == REAL:
        t = abs(g.entries[0, 0] + g.entries[1, 1])
        if t == 0.0 or g.log_scale + math.log(t) <= math.log(2.0 + DEFAULT_TOL):
            return False, None
        det = math.exp(-2.0 * g.log_scale)
        return True, 0.5 * (t + math.sqrt(t * t - 4.0 * det))
    lam = _dominant_eigenvalue(g)
    mod = abs(lam)
    if mod == 0.0 or g.log_scale + math.log(mod) <= math.log(1.0 + DEFAULT_TOL):
        return False, lam
    return True, lam


def is_loxodromic(g: RenormMatrix) -> bool:
    """Real field: |tr| > 2 + DEFAULT_TOL; complex field: dominant |eigenvalue| > 1 + DEFAULT_TOL."""
    return _loxodromy_gate(g)[0]


def jordan_length(g: RenormMatrix) -> float:
    """Translation length: twice the log modulus of the dominant eigenvalue."""
    ok, lam = _loxodromy_gate(g)
    if not ok:
        raise NonLoxodromic("element is not loxodromic at tolerance %g" % DEFAULT_TOL)
    return 2.0 * (g.log_scale + math.log(abs(lam)))


def frobenius_sq_log(g: RenormMatrix) -> float:
    """log of the squared Frobenius norm of the true matrix."""
    s = float(np.sum(np.abs(g.entries) ** 2))
    return 2.0 * g.log_scale + math.log(s)


def cartan_length(g: RenormMatrix) -> float:
    """Displacement of the basepoint: twice the log of the top singular value.

    Computed as arccosh(|g|_F^2 / 2) in log scale, which is exact for
    unimodular matrices (sigma1*sigma2 = 1).
    """
    h = frobenius_sq_log(g) - LN2  # log(|g|_F^2 / 2) >= 0 up to rounding
    if h <= 0.0:
        return 0.0
    return h + math.log1p(math.sqrt(-math.expm1(-2.0 * h)))


def holonomy_angle(g: RenormMatrix) -> float:
    """Rotation angle of a complex loxodromic element, reduced mod pi to [0, pi)."""
    if g.field != COMPLEX:
        raise RealFactor("holonomy is only defined for complex factors")
    ok, lam = _loxodromy_gate(g)
    if not ok:
        raise NonLoxodromic("element is not loxodromic at tolerance %g" % DEFAULT_TOL)
    return cmath.phase(lam) % math.pi


@dataclass(frozen=True)
class Loxodata:
    """Spectral summary of a loxodromic element."""

    jordan: float
    cartan: float
    holonomy_angle: Optional[float]
    trace_abs: float


def loxodata(g: RenormMatrix) -> Loxodata:
    jordan = jordan_length(g)
    cartan = cartan_length(g)
    holonomy = holonomy_angle(g) if g.field == COMPLEX else None
    t = abs(g.trace_entries())
    trace_abs = 0.0 if t == 0.0 else _safe_exp(g.log_scale + math.log(t))
    return Loxodata(jordan, cartan, holonomy, trace_abs)


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf
