"""Dense real interval matrices backed by numpy.

Storage is two float64 arrays, the lower and upper bounds of each entry.
Every matrix of the finite stage is real: the Jacobian of a self-adjoint
linearization, its eigenvectors and their verified inverse.  Products use
the classical midpoint-radius scheme (Rump, "Fast and parallel interval
arithmetic", BIT 39, 1999): the midpoint product is one floating-point
matmul and the radius collects operand radii plus a (k+4)u accumulation
term that dominates the rounding error of any summation order, so the
result encloses the exact product entrywise without touching the FPU
rounding mode.

Exact zeros stay exact.  Outward rounding steps a bound through
interval.ulp_step, which would turn a zero into a subnormal, and BLAS runs
many times slower on subnormal operands.  So:

* a radius of exactly 0 is not stepped: max(hi - mid, mid - lo) is 0 only
  when lo == mid == hi, so the entry is a point and its radius is exact;
* a sum or difference of bounds that rounds to exactly 0 is not stepped:
  with gradual underflow a floating sum is 0 only when the exact sum is 0;
* in a product, an operand that is identically [0, 0] gives exact zeros
  without any matmul, a point operand (all radii 0) drops the radius terms
  it would multiply, and an all-zero midpoint drops the midpoint products.
  Each dropped term is a matmul of an exact zero matrix, which is exactly
  zero, so the enclosure is the one the full formula gives.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, SingularityUnverified
from .interval import IArray, Interval, iv_sqrt, ulp_step

_U = 2.0 ** -53
_TINY = 5e-308
_INF = math.inf


def _mid_rad(lo, hi):
    """Midpoint and outward radius; a radius of exactly 0 stays 0."""
    mid = lo + 0.5 * (hi - lo)
    return mid, ulp_step(np.maximum(hi - mid, mid - lo), _INF, 2, keep_zero=True)


def _mm_real(al, ah, bl, bh, prod=np.matmul, shape=None, k=None):
    """Enclosure of the product of real interval matrices, or of another
    bilinear product `prod` (a convolution, say) given the shape of its
    result and k, the most terms an entry of it sums."""
    if shape is None:
        shape, k = (al.shape[0], bl.shape[1]), al.shape[1]
    if not (al.any() or ah.any()) or not (bl.any() or bh.any()):
        return np.zeros(shape), np.zeros(shape)
    am, ar = _mid_rad(al, ah)
    bm, br = _mid_rad(bl, bh)
    aa = np.abs(am)
    ba = np.abs(bm)
    gamma = (k + 4) * _U
    if am.any() and bm.any():
        cm = prod(am, bm)
        m1 = prod(aa, ba)
    else:
        cm = np.zeros(shape)
        m1 = np.zeros(shape)
    a_point = not ar.any()
    b_point = not br.any()
    if a_point:
        m2 = np.zeros(shape) if b_point else prod(aa, br)
    else:
        m2 = prod(ar, ba) if b_point else prod(ar, ba + br) + prod(aa, br)
    rad = (m2 + gamma * m1) * (1.0 + 8.0 * gamma) + 5.0 * _TINY
    return ulp_step(cm - rad, -_INF, 2), ulp_step(cm + rad, _INF, 2)


def _add(lo1, hi1, lo2, hi2):
    return (ulp_step(lo1 + lo2, -_INF, keep_zero=True),
            ulp_step(hi1 + hi2, _INF, keep_zero=True))


def _scale(lo, hi, s: Interval):
    """Enclosure of s [lo, hi]; a point s of 0 or +-1 scales exactly."""
    cands = np.stack([lo * s.lo, lo * s.hi, hi * s.lo, hi * s.hi])
    if s.lo == s.hi and s.lo in (0.0, 1.0, -1.0):
        return cands.min(axis=0), cands.max(axis=0)
    return ulp_step(cands.min(axis=0), -_INF), ulp_step(cands.max(axis=0), _INF)


class IMatrix:
    """Real interval matrix [lo, hi]; shape (m, n)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.ascontiguousarray(lo, dtype=np.float64)
        self.hi = np.ascontiguousarray(hi, dtype=np.float64)
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatch("bound arrays differ in shape")
        if not (self.lo <= self.hi).all():
            raise DimensionMismatch("lower bound above upper bound, or a NaN bound")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_point(cls, a) -> "IMatrix":
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        return cls(a, a.copy())

    @classmethod
    def identity(cls, n: int) -> "IMatrix":
        return cls.from_point(np.eye(n))

    # -- views ------------------------------------------------------------

    @property
    def shape(self):
        return self.lo.shape

    @property
    def T(self) -> "IMatrix":
        return IMatrix(self.lo.T, self.hi.T)

    def get(self, i: int, j: int) -> Interval:
        return Interval(self.lo[i, j], self.hi[i, j])

    def mid(self) -> np.ndarray:
        return self.lo + 0.5 * (self.hi - self.lo)

    def mag(self) -> np.ndarray:
        """Entrywise max |x| over the matrix, exact."""
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def contains(self, a) -> bool:
        a = np.atleast_2d(np.asarray(a))
        return a.shape == self.shape and bool(np.all((self.lo <= a) & (a <= self.hi)))

    def widened(self, eps: float) -> "IMatrix":
        if eps < 0:
            raise DimensionMismatch("negative widening")
        return IMatrix(ulp_step(self.lo - eps, -_INF, 2), ulp_step(self.hi + eps, _INF, 2))

    # -- arithmetic -------------------------------------------------------

    def __neg__(self) -> "IMatrix":
        return IMatrix(-self.hi, -self.lo)

    def __add__(self, other: "IMatrix") -> "IMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"add {self.shape} and {other.shape}")
        return IMatrix(*_add(self.lo, self.hi, other.lo, other.hi))

    def __sub__(self, other: "IMatrix") -> "IMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"sub {self.shape} and {other.shape}")
        return self + (-other)          # x - y is x + (-y) in IEEE arithmetic

    def __matmul__(self, other: "IMatrix") -> "IMatrix":
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatch(f"matmul {self.shape} and {other.shape}")
        return IMatrix(*_mm_real(self.lo, self.hi, other.lo, other.hi))

    def scale_rows(self, s: IArray) -> "IMatrix":
        """diag(s) @ self for an IArray s, one element per row, in O(mn):
        entry (i, j) is the IArray product s[i] * self[i, j], its exact
        hull rounded outward, so an exact zero entry stays exactly zero."""
        if len(s.lo) != self.shape[0]:
            raise DimensionMismatch(f"scale {self.shape[0]} rows by {len(s.lo)}")
        ends = [np.broadcast_to(v[:, None], self.shape) for v in (s.lo, s.hi)]
        p = IArray(*ends) * IArray(self.lo, self.hi)
        return IMatrix(p.lo, p.hi)

    # -- norms ------------------------------------------------------------

    def _sum_hi(self, axis: int) -> np.ndarray:
        s = self.mag().sum(axis=axis)
        n = self.shape[axis]
        return ulp_step(s * (1.0 + (n + 2) * _U) + _TINY, _INF, 2)

    def norm1_hi(self) -> float:
        """Upper bound on the maximum column sum of magnitudes."""
        if self.shape[0] == 0 or self.shape[1] == 0:
            return 0.0
        return float(self._sum_hi(axis=0).max())

    def norminf_hi(self) -> float:
        if self.shape[0] == 0 or self.shape[1] == 0:
            return 0.0
        return float(self._sum_hi(axis=1).max())

    def row_sums_hi(self) -> np.ndarray:
        if self.shape[1] == 0:
            return np.zeros(self.shape[0])
        return self._sum_hi(axis=1)


def op_norm2_bound(a: IMatrix) -> Interval:
    """Enclosure [0, b] with the spectral norm certified to be at most b.

    Takes the smaller of sqrt(norm1 * norminf) and the square root of a
    Gershgorin bound on A^T A; the second route usually wins for the
    nearly-diagonal matrices produced by pseudo-diagonalization.
    """
    if a.shape[0] == 0 or a.shape[1] == 0:
        return Interval(0.0, 0.0)
    b1 = iv_sqrt(Interval(0.0, a.norm1_hi()) * Interval(0.0, a.norminf_hi())).hi
    ata = a.T @ a
    b2 = iv_sqrt(Interval(0.0, float(ata.row_sums_hi().max()))).hi
    return Interval(0.0, min(b1, b2))


def verified_inverse(a: IMatrix):
    """Certified inverse of a square interval matrix.

    Returns (inv, defect): an interval matrix containing the exact inverse of
    every point matrix inside `a`, and the residual norm bound that proves
    invertibility.  Raises SingularityUnverified when the residual bound of
    the floating-point candidate is not below one.
    """
    m, n = a.shape
    if m != n:
        raise DimensionMismatch("inverse of non-square matrix")
    try:
        r0 = np.linalg.inv(a.mid())
    except np.linalg.LinAlgError as exc:
        raise SingularityUnverified(f"midpoint inversion failed: {exc}") from exc
    if not np.all(np.isfinite(r0)):
        raise SingularityUnverified("midpoint inverse is not finite")
    r0m = IMatrix.from_point(r0)
    resid = IMatrix.identity(n) - (r0m @ a)
    e = op_norm2_bound(resid)
    if e.hi >= 1.0:
        raise SingularityUnverified(
            f"residual norm bound {e.hi} >= 1; cannot certify invertibility")
    nr0 = op_norm2_bound(r0m)
    ehi = Interval(0.0, e.hi)
    delta = (ehi / (Interval(1.0) - ehi) * Interval(0.0, nr0.hi)).hi
    return r0m.widened(delta), e
