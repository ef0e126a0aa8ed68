"""Hyperboloid-model geometry kernel.

Points live on the upper sheet of the hyperboloid

    H^d = { x in R^{d+1} : 1 + sum_{i<=d} x_i^2 = x_{d+1}^2,  x_{d+1} > 0 }

with the Minkowski bilinear form

    <u|v>_M = sum_{i<=d} u_i v_i - u_{d+1} v_{d+1}.

The time coordinate is the LAST component throughout this package (many
libraries put it first; files written by this package always use last).
Tangent vectors at x are ambient vectors v with <v|x>_M = 0; at the
basepoint (0,...,0,1) that means the last component is 0, so R^n lifts
into the tangent space by appending a zero ("linear" convention).

Numerics: the textbook expressions arccosh(-<x|y>_M) and
Log_x(y) = d * (y + <x|y>_M x) / ||.|| cancel catastrophically in float64
for nearby points (and, at large radius R, lose ~2R/ln(10) digits even
for moderate separations, since the bilinear form multiplies e^R-sized
components). Every operation here therefore evaluates an algebraically
identical cancellation-free form built on the chordal quantity

    q(x, y) = <x-y | x-y>_M = 2(cosh d(x,y) - 1) >= 0,

for which the componentwise difference is computed first:

    d(x, y)   = 2 asinh(sqrt(q)/2)
    Log_x(y)  = g * ((y - x) - (q/2) x),  g = d / sqrt(q (1 + q/4))
    P_{x->b}(u) = u + <b|u>_M / (2 + q/2) * (x + b)

Each equals the textbook form exactly in real arithmetic; tests verify the
defining properties (round trips, isometry, transport of geodesic speed)
rather than the raw expressions. sinh/cosh arguments are capped at 350 and
operations raise OverflowGuardError beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Largest magnitude fed to sinh/cosh before operations refuse to proceed.
OVERFLOW_CAP = 350.0

_CONSTRAINT_ATOL = 1e-9
_CONSTRAINT_RTOL = 1e-12


class GeometryError(ValueError):
    """A geometric precondition was violated."""


class OverflowGuardError(GeometryError):
    """An operation would push sinh/cosh beyond the float64 envelope."""


def minkowski_inner(u, v):
    """<u|v>_M over the last axis: spatial dot minus product of time parts."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return np.sum(u[..., :-1] * v[..., :-1], axis=-1) - u[..., -1] * v[..., -1]


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HPoint:
    """A point on the upper hyperboloid sheet; ``coords`` has length dim + 1."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64)
        if c.ndim != 1 or c.size < 2:
            raise GeometryError("HPoint needs a 1-d coordinate array of length >= 2")
        if not np.all(np.isfinite(c)):
            raise GeometryError("HPoint coordinates must be finite")
        t = c[-1]
        if t <= 0.0:
            raise GeometryError("HPoint must lie on the upper sheet (time coord > 0)")
        # atol alone is unsatisfiable once t^2 rounds coarser than it; an overflow rejects
        with np.errstate(over="ignore", invalid="ignore"):
            resid = abs(1.0 + np.dot(c[:-1], c[:-1]) - t * t)
            on_sheet = resid <= _CONSTRAINT_ATOL + _CONSTRAINT_RTOL * t * t < math.inf
        if not on_sheet:
            raise GeometryError(f"point is off the hyperboloid (residual {resid:.3e})")
        object.__setattr__(self, "coords", _freeze(c))

    @property
    def dim(self) -> int:
        return self.coords.size - 1

    def __eq__(self, other):
        return isinstance(other, HPoint) and np.array_equal(self.coords, other.coords)


@dataclass(frozen=True)
class TangentVec:
    """An ambient vector Minkowski-orthogonal to its base point."""

    vec: np.ndarray
    base: HPoint

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=np.float64)
        b = self.base.coords
        if v.shape != b.shape:
            raise GeometryError("tangent vector and base point dimensions differ")
        if not np.all(np.isfinite(v)):
            raise GeometryError("tangent vector must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # as in HPoint, an overflow rejects
            tol = _CONSTRAINT_ATOL + _CONSTRAINT_RTOL * float(np.sum(np.abs(v * b)))
            ip = float(minkowski_inner(v, b))
        if not abs(ip) <= tol < math.inf:
            raise GeometryError(f"vector is not tangent at its base (<v|x>_M = {ip:.3e})")
        object.__setattr__(self, "vec", _freeze(v))

    @property
    def dim(self) -> int:
        return self.vec.size - 1

    def norm(self) -> float:
        """Minkowski norm sqrt(<v|v>_M); tangent vectors are spacelike."""
        sq = float(minkowski_inner(self.vec, self.vec))
        return math.sqrt(max(sq, 0.0))


@dataclass(frozen=True)
class Curvature:
    """Negative sectional curvature kappa of the ambient space."""

    kappa: float

    def __post_init__(self):
        if not (self.kappa < 0.0 and math.isfinite(self.kappa)):
            raise GeometryError("curvature must be a finite negative real")

    @classmethod
    def from_scale(cls, tau: float) -> "Curvature":
        """kappa = -tau^2, the curvature whose unit-speed metric is d_{-1}/tau."""
        return cls(-float(tau) ** 2)


def basepoint(d: int) -> HPoint:
    """(0, ..., 0, 1): the apex of H^d."""
    c = np.zeros(d + 1)
    c[-1] = 1.0
    return HPoint(c)


def lift(x) -> TangentVec:
    """R^n -> T_{basepoint}(H^n) by appending a zero time component."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise GeometryError("lift expects a non-empty 1-d vector")
    return TangentVec(np.concatenate([x, [0.0]]), basepoint(x.size))


def drop(v: TangentVec) -> np.ndarray:
    """Coordinate projection T -> R^n dropping the time component."""
    return np.array(v.vec[:-1], copy=True)


def _chordal_sq(x: np.ndarray, y: np.ndarray) -> float:
    """q = <x-y|x-y>_M, clamped to [0, inf); raises if it overflows."""
    d = x - y
    q = float(minkowski_inner(d, d))
    if not math.isfinite(q):
        raise OverflowGuardError("points too far from the origin for float64 distances")
    return max(q, 0.0)


def distance(x: HPoint, y: HPoint, k: Curvature | float = Curvature(-1.0)) -> float:
    """Geodesic distance d_kappa(x, y) = d_{-1}(x, y) / sqrt(|kappa|)."""
    kappa = k.kappa if isinstance(k, Curvature) else Curvature(float(k)).kappa
    if x.dim != y.dim:
        raise GeometryError("points live on hyperboloids of different dimension")
    q = _chordal_sq(x.coords, y.coords)
    return 2.0 * math.asinh(0.5 * math.sqrt(q)) / math.sqrt(-kappa)


def exp_map(x: HPoint, v: TangentVec) -> HPoint:
    """Exp_x(v) = cosh(||v||) x + sinh(||v||) v/||v||, with Exp_x(0) = x."""
    if v.base != x:
        raise GeometryError("exp_map: tangent vector is not based at x")
    sq = float(minkowski_inner(v.vec, v.vec))
    if sq < -1e-9:
        raise GeometryError(f"exp_map: vector is not spacelike (<v|v>_M = {sq:.3e})")
    theta = math.sqrt(max(sq, 0.0))
    if theta > OVERFLOW_CAP:
        raise OverflowGuardError(f"exp_map: ||v|| = {theta:.3g} exceeds cap {OVERFLOW_CAP}")
    if theta == 0.0:
        return HPoint(x.coords)
    if theta < 1e-4:
        sinhc = 1.0 + theta * theta / 6.0
    else:
        sinhc = math.sinh(theta) / theta
    return HPoint(math.cosh(theta) * x.coords + sinhc * v.vec)


def log_map(x: HPoint, y: HPoint) -> TangentVec:
    """Log_x(y): the tangent vector at x with exp_map(x, Log_x(y)) = y.

    Satisfies ||Log_x(y)||_M = d_{-1}(x, y).
    """
    if x.dim != y.dim:
        raise GeometryError("points live on hyperboloids of different dimension")
    if x.coords[-1] == 1.0 and not np.any(x.coords[:-1]):
        # at the apex q reads off the time coordinate with no cancellation,
        # and the time component of u below vanishes identically
        q = max(2.0 * (y.coords[-1] - 1.0), 0.0)
    else:
        q = _chordal_sq(x.coords, y.coords)
    if q == 0.0:
        return TangentVec(np.zeros_like(x.coords), x)
    d = 2.0 * math.asinh(0.5 * math.sqrt(q))
    # u = y - (-<x|y>) x = (y - x) - (q/2) x, with ||u||_M = sqrt(q (1 + q/4))
    u = (y.coords - x.coords) - (0.5 * q) * x.coords
    g = d / math.sqrt(q * (1.0 + 0.25 * q))
    return TangentVec(g * u, x)


def parallel_transport(x: HPoint, b: HPoint, u: TangentVec) -> TangentVec:
    """Transport u from T_x to T_b along the connecting geodesic.

    Uses the nonsingular closed form u + <b|u>_M/(1 - <x|b>_M) (x + b); it
    preserves Minkowski products and is the identity when x == b.
    """
    if u.base != x:
        raise GeometryError("parallel_transport: vector is not based at x")
    if x.dim != b.dim:
        raise GeometryError("points live on hyperboloids of different dimension")
    q = _chordal_sq(x.coords, b.coords)
    den = 2.0 + 0.5 * q  # 1 - <x|b>_M, always >= 2
    coef = float(minkowski_inner(b.coords, u.vec)) / den
    return TangentVec(u.vec + coef * (x.coords + b.coords), b)


def project_to_hyperboloid(v) -> HPoint:
    """Repair an ambient vector by recomputing the time coordinate."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise GeometryError("project_to_hyperboloid expects a 1-d vector of length >= 2")
    spatial = v[:-1]
    nrm2 = float(np.dot(spatial, spatial))
    if not math.isfinite(nrm2):
        raise OverflowGuardError("spatial part too large to re-project")
    out = np.concatenate([spatial, [math.sqrt(1.0 + nrm2)]])
    return HPoint(out)
