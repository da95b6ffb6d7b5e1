"""Dense real interval matrices backed by numpy.

IMatrix is the 2-D interval.IArray: two float64 arrays, the lower and
upper bounds of each entry, with IArray's elementwise sums, differences
and bounds.  Every matrix of the finite stage is real: the Jacobian of a
self-adjoint linearization, its eigenvectors and their verified inverse.
What is specific to matrices lives here: the product, the sums of |A P|,
row scaling, the norms and the verified inverse.  Products use
the classical midpoint-radius scheme (Rump, "Fast and parallel interval
arithmetic", BIT 39, 1999): the midpoint product is one floating-point
matmul and the radius collects operand radii plus a (k+4)u accumulation
term that dominates the rounding error of any summation order, so the
result encloses the exact product entrywise without touching the FPU
rounding mode.

Exact zeros stay exact.  Outward rounding steps a bound through
interval.ulp_step, which would turn a zero into a subnormal, and BLAS runs
many times slower on subnormal operands.  A sum or difference is IArray's
two-sum, which steps only a bound that is not exact, so an exact zero
stays 0.  In a product:

* a radius of exactly 0 is not stepped: max(hi - mid, mid - lo) is 0 only
  when lo == mid == hi, so the entry is a point and its radius is exact;
* an operand that is identically [0, 0] gives exact zeros
  without any matmul, a point operand (all radii 0) drops the radius terms
  it would multiply, and an all-zero midpoint drops the midpoint products.
  Each dropped term is a matmul of an exact zero matrix, which is exactly
  zero, so the enclosure is the one the full formula gives.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, SingularityUnverified, UnboundedOperand
from .interval import IArray, Interval, iv_sqrt, ulp_step

_U = 2.0 ** -53
_TINY = 5e-308
_INF = math.inf


def _mid_rad(lo, hi):
    """Midpoint and outward radius; a radius of exactly 0 stays 0.  A finite
    point has the split's bits without it: lo + 0.0 (-0.0 becomes 0.0) and 0."""
    if np.array_equal(lo, hi) and np.isfinite(lo).all():
        return lo + 0.0, np.zeros(lo.shape)
    mid = lo + 0.5 * (hi - lo)
    return mid, ulp_step(np.maximum(hi - mid, mid - lo), _INF, 2, keep_zero=True)


def _sum_up(s, n):
    """Upper bound on a sum of non-negative terms from s, after at most n
    roundings; below the smallest normal a sum is exact (products aside)."""
    return np.where(s < 2.0 ** -1022, s, ulp_step(s * (1.0 + (n + 2) * _U), _INF, 2))


@np.errstate(over="ignore", invalid="ignore")
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
    gamma, mids = (k + 4) * _U, am.any() and bm.any()
    cm = prod(am, bm) if mids else np.zeros(shape)
    # each temporary goes once its last reader has run: |A_mid| and |B_mid|
    # overwrite the midpoints, and a point B leaves |A_mid| no reader after m1
    aa, ba = np.abs(am, out=am), np.abs(bm, out=bm)
    m1 = prod(aa, ba) if mids else np.zeros(shape)
    a_point, b_point = not ar.any(), not br.any()
    aa = None if b_point else aa
    if a_point:
        m2 = np.zeros(shape) if b_point else prod(aa, br)
    else:
        m2 = prod(ar, ba if b_point else ba + br)
        if not b_point:
            m2 += prod(aa, br)
    del aa, ba, ar, br
    # rad = (m2 + gamma m1) (1 + 8 gamma) + 5 tiny, accumulated in m2
    m2 += np.multiply(m1, gamma, out=m1)
    del m1
    m2 *= 1.0 + 8.0 * gamma
    m2 += 5.0 * _TINY
    lo = ulp_step(cm - m2, -_INF, 2)
    cm += m2
    if np.isnan(lo).any() or np.isnan(cm).any():     # inf - inf
        raise UnboundedOperand("interval product overflows the double range")
    return lo, ulp_step(cm, _INF, 2)


class IMatrix(IArray):
    """Real interval matrix [lo, hi]; shape (m, n).  An IArray operation
    that records an element error raises it at once: a matrix holds no
    placeholder entries."""

    __slots__ = ()

    def __init__(self, lo, hi):
        self.lo = np.ascontiguousarray(lo, dtype=np.float64)
        self.hi = np.ascontiguousarray(hi, dtype=np.float64)
        self.err = None
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatch("bound arrays differ in shape")
        if not (self.lo <= self.hi).all():
            raise DimensionMismatch("lower bound above upper bound, or a NaN bound")

    @classmethod
    def _of(cls, lo, hi, err) -> "IMatrix":
        return super()._of(lo, hi, err).checked()

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
    def T(self) -> "IMatrix":
        return IMatrix(self.lo.T, self.hi.T)

    def widened(self, eps: float) -> "IMatrix":
        if eps < 0:
            raise DimensionMismatch("negative widening")
        return IMatrix(ulp_step(self.lo - eps, -_INF, 2), ulp_step(self.hi + eps, _INF, 2))

    # -- arithmetic -------------------------------------------------------

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
        p = IArray(s.lo[:, None], s.hi[:, None]) * self
        return IMatrix._of(p.lo, p.hi, p.err)

    # -- norms ------------------------------------------------------------

    @np.errstate(over="ignore")     # a sum past the largest double is +inf, a sound bound
    def _sum_hi(self, axis: int) -> np.ndarray:
        # adding non-negative doubles has no underflow error, so a zero sum is exact
        return _sum_up(self.mag().sum(axis=axis), self.shape[axis])

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


@np.errstate(over="ignore", invalid="ignore")
def mag_product_sums(a: IMatrix, p: np.ndarray):
    """Upper bounds (rows, cols) on the row and column sums of |A~ P| over
    every A~ in `a` (m x k), for a float p (k x n), from one float product.
    With a = Am +- Ar (_mid_rad) and C = fl(Am P), |A~ P| <= |C| + (Ar +
    gamma_k |Am|)|P|, gamma_k = ku / (1 - ku) <= (k + 1) u for k < 9e7
    (Higham, Accuracy and Stability, 3.5).  Summed before it is multiplied
    out (Rump, BIT 39, 1999), row i is sum_j |C_ij| + ((Ar + gamma_k |Am|)
    |P| 1)_i, and column j likewise with 1^T Ar and 1^T |Am|.  Each sum is
    rounded up by its length (_sum_up); 5 _TINY per entry, as in _mm_real,
    covers underflow."""
    (m, k), n = a.shape, p.shape[1]
    if not (a.lo.any() or a.hi.any()) or not p.any():
        return np.zeros(m), np.zeros(n)
    am, ar = _mid_rad(a.lo, a.hi)
    c = np.abs(am @ p)
    aa, pa, gamma = np.abs(am, out=am), np.abs(p), (k + 1) * _U
    v = _sum_up(pa.sum(axis=1), n)
    rows = _sum_up(c.sum(axis=1) + _sum_up(ar @ v, k) + gamma * _sum_up(aa @ v, k)
                   + 5.0 * _TINY * n, n + 2)
    ar_cols, aa_cols = (_sum_up(x.sum(axis=0), m) for x in (ar, aa))
    cols = _sum_up(c.sum(axis=0) + _sum_up(ar_cols @ pa, k) + gamma * _sum_up(aa_cols @ pa, k)
                   + 5.0 * _TINY * m, m + 2)
    if np.isnan(rows).any() or np.isnan(cols).any():     # inf - inf or inf * 0
        raise UnboundedOperand("interval product overflows the double range")
    return rows, cols


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
