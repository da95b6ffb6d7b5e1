"""Outward-rounded real intervals and complex rectangles.

Endpoints are IEEE doubles.  Every arithmetic operation returns an interval
guaranteed to contain the exact result; rounding is handled by stepping the
computed endpoint one ulp outward with math.nextafter.  Additions and
subtractions recover the rounding error exactly (two-sum), so results that
are representable stay exact.  Multiplication keeps exactness when a factor
endpoint is 0 or +-1, which covers sign flips and identities.

Infinite endpoints are legal only as markers for unbounded spectral regions;
arithmetic on an unbounded interval raises UnboundedOperand.
"""

from __future__ import annotations

import math

import mpmath

from .errors import (
    DivisionByZeroInterval,
    DomainError,
    UnboundedOperand,
)

_INF = math.inf


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _sum_lo(a: float, b: float) -> float:
    # two-sum: s + err == a + b exactly (no overflow assumed)
    s = a + b
    if math.isinf(s):
        return -_INF if s < 0 else math.nextafter(_INF, 0)
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    return _down(s) if err < 0 else s

def _sum_hi(a: float, b: float) -> float:
    s = a + b
    if math.isinf(s):
        return _INF if s > 0 else -math.nextafter(_INF, 0)
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    return _up(s) if err > 0 else s


def _prod_exact(a: float, b: float) -> bool:
    return a in (0.0, 1.0, -1.0) or b in (0.0, 1.0, -1.0)


class Interval:
    """Closed real interval [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise DomainError(f"invalid interval endpoints [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors -----------------------------------------------------

    @classmethod
    def point(cls, x: float) -> "Interval":
        return cls(x, x)

    @classmethod
    def hull(cls, *items: "Interval | float") -> "Interval":
        los = []
        his = []
        for it in items:
            if isinstance(it, Interval):
                los.append(it.lo)
                his.append(it.hi)
            else:
                los.append(float(it))
                his.append(float(it))
        return cls(min(los), max(his))

    # -- predicates -------------------------------------------------------

    @property
    def is_bounded(self) -> bool:
        return not (math.isinf(self.lo) or math.isinf(self.hi))

    def _require_bounded(self) -> None:
        if not self.is_bounded:
            raise UnboundedOperand(f"arithmetic on unbounded interval {self}")

    def contains(self, x) -> bool:
        if isinstance(x, Interval):
            return self.lo <= x.lo and x.hi <= self.hi
        return self.lo <= x <= self.hi

    def __contains__(self, x) -> bool:
        return self.contains(x)

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # -- scalar views -----------------------------------------------------

    def mid(self) -> float:
        if not self.is_bounded:
            raise UnboundedOperand("midpoint of unbounded interval")
        m = self.lo + 0.5 * (self.hi - self.lo)
        return m if math.isfinite(m) else 0.5 * self.lo + 0.5 * self.hi

    def width(self) -> float:
        return _sum_hi(self.hi, -self.lo)

    def mag(self) -> float:
        """Upper bound on |x| over the interval (exact)."""
        return max(abs(self.lo), abs(self.hi))

    def mig(self) -> float:
        """Lower bound on |x| over the interval (exact)."""
        if self.contains_zero():
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    # -- arithmetic -------------------------------------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        other = _as_interval(other)
        self._require_bounded()
        other._require_bounded()
        return Interval(_sum_lo(self.lo, other.lo), _sum_hi(self.hi, other.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        return self + (-_as_interval(other))

    def __rsub__(self, other) -> "Interval":
        return _as_interval(other) + (-self)

    def __mul__(self, other) -> "Interval":
        other = _as_interval(other)
        self._require_bounded()
        other._require_bounded()
        al, ah, bl, bh = self.lo, self.hi, other.lo, other.hi
        cands = (al * bl, al * bh, ah * bl, ah * bh)
        lo = min(cands)
        hi = max(cands)
        exact = (_prod_exact(al, bl) and _prod_exact(al, bh)
                 and _prod_exact(ah, bl) and _prod_exact(ah, bh))
        if not exact:
            lo = _down(lo)
            hi = _up(hi)
        return Interval(lo, hi)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        other = _as_interval(other)
        self._require_bounded()
        other._require_bounded()
        if other.contains_zero():
            raise DivisionByZeroInterval(f"division by {other}")
        al, ah, bl, bh = self.lo, self.hi, other.lo, other.hi
        cands = (al / bl, al / bh, ah / bl, ah / bh)
        return Interval(_down(min(cands)), _up(max(cands)))

    def __rtruediv__(self, other) -> "Interval":
        return _as_interval(other) / self

    def sq(self) -> "Interval":
        """Tight [min, max] of x^2; lower endpoint 0 when 0 is inside."""
        self._require_bounded()
        m = self.mag()
        g = self.mig()
        lo = g * g
        hi = m * m
        if g not in (0.0, 1.0):
            lo = _down(max(lo, 0.0))
        if m not in (0.0, 1.0):
            hi = _up(hi)
        return Interval(max(lo, 0.0), hi)

    def abs(self) -> "Interval":
        return Interval(self.mig(), self.mag())

    def widened(self, eps: float) -> "Interval":
        if eps < 0:
            raise DomainError("negative widening")
        return Interval(_down(self.lo - eps), _up(self.hi + eps))

    # -- misc -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Interval)
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, (int, float)):
        return Interval(float(x))
    raise TypeError(f"cannot interpret {x!r} as an interval")


ZERO = Interval(0.0)
ONE = Interval(1.0)


def iv_sqrt(x: Interval) -> Interval:
    """Enclosure of sqrt over x intersected with [0, inf)."""
    x._require_bounded()
    if x.hi < 0.0:
        raise DomainError(f"sqrt of negative interval {x}")
    lo = max(x.lo, 0.0)
    rl = math.sqrt(lo)
    rh = math.sqrt(x.hi)
    # math.sqrt is correctly rounded; step out unless trivially exact
    if rl * rl != lo:
        rl = _down(rl)
    if rh * rh != x.hi:
        rh = _up(rh)
    return Interval(max(rl, 0.0), rh)


# -- transcendental endpoints via high-precision evaluation ---------------

_MP_DPS = 40
_GUARD = mpmath.mpf("1e-32")


def _mp_down(fn, x: float) -> float:
    """Float lower bound on fn(x); guards against the tiny mpmath error."""
    with mpmath.workdps(_MP_DPS):
        y = fn(mpmath.mpf(x))
        y = y - abs(y) * _GUARD - mpmath.mpf("1e-305")
        f = float(y)
        while mpmath.mpf(f) > y:
            f = _down(f)
    return f


def _mp_up(fn, x: float) -> float:
    with mpmath.workdps(_MP_DPS):
        y = fn(mpmath.mpf(x))
        y = y + abs(y) * _GUARD + mpmath.mpf("1e-305")
        f = float(y)
        while mpmath.mpf(f) < y:
            f = _up(f)
    return f


def _monotone_inc(fn, x: Interval) -> Interval:
    x._require_bounded()
    return Interval(_mp_down(fn, x.lo), _mp_up(fn, x.hi))


def iv_exp(x: Interval) -> Interval:
    return _monotone_inc(mpmath.exp, x)


def iv_tanh(x: Interval) -> Interval:
    return _monotone_inc(mpmath.tanh, x)


def iv_log(x: Interval) -> Interval:
    if x.lo <= 0.0:
        raise DomainError(f"log of non-positive interval {x}")
    return _monotone_inc(mpmath.log, x)


def iv_pow_int(x: Interval, k: int) -> Interval:
    """x**k for integer k >= 0 with the even-power minimum handled."""
    if k < 0:
        raise DomainError("negative integer power; divide explicitly")
    if k == 0:
        return ONE
    if k == 1:
        return Interval(x.lo, x.hi)
    if k % 2 == 0:
        half = iv_pow_int(x, k // 2)
        return half.sq()
    return x * iv_pow_int(x, k - 1)


def pi_interval() -> Interval:
    return Interval(_mp_down(lambda _: mpmath.pi, 0.0),
                    _mp_up(lambda _: mpmath.pi, 0.0))


PI = pi_interval()


class ComplexBox:
    """Axis-aligned rectangle in the complex plane (re and im intervals).

    Multiplication uses the four-product rectangle formula on each real
    component, never the three-multiplication shortcut, so enclosures stay
    valid entrywise.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        self.re = _as_interval(re)
        self.im = _as_interval(im) if im is not None else ZERO

    @classmethod
    def point(cls, z: complex) -> "ComplexBox":
        z = complex(z)
        return cls(Interval.point(z.real), Interval.point(z.imag))

    def contains(self, z) -> bool:
        if isinstance(z, ComplexBox):
            return self.re.contains(z.re) and self.im.contains(z.im)
        z = complex(z)
        return self.re.contains(z.real) and self.im.contains(z.imag)

    def __contains__(self, z) -> bool:
        return self.contains(z)

    def conj(self) -> "ComplexBox":
        return ComplexBox(self.re, -self.im)

    def __neg__(self) -> "ComplexBox":
        return ComplexBox(-self.re, -self.im)

    def __add__(self, other) -> "ComplexBox":
        other = _as_box(other)
        return ComplexBox(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexBox":
        other = _as_box(other)
        return ComplexBox(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "ComplexBox":
        return _as_box(other) + (-self)

    def __mul__(self, other) -> "ComplexBox":
        other = _as_box(other)
        return ComplexBox(self.re * other.re - self.im * other.im,
                          self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexBox":
        other = _as_box(other)
        den = other.re.sq() + other.im.sq()
        if den.contains_zero():
            raise DivisionByZeroInterval(f"division by box {other}")
        num = self * other.conj()
        return ComplexBox(num.re / den, num.im / den)

    def abs2(self) -> Interval:
        return self.re.sq() + self.im.sq()

    def abs(self) -> Interval:
        return iv_sqrt(self.abs2())

    def mag(self) -> float:
        """Upper bound on |z| over the box."""
        return iv_sqrt(self.abs2()).hi

    def mig(self) -> float:
        """Lower bound on |z| over the box."""
        return iv_sqrt(self.abs2()).lo

    def mid(self) -> complex:
        return complex(self.re.mid(), self.im.mid())

    def widened(self, eps: float) -> "ComplexBox":
        return ComplexBox(self.re.widened(eps), self.im.widened(eps))

    def __repr__(self) -> str:
        return f"ComplexBox({self.re!r}, {self.im!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, ComplexBox)
                and self.re == other.re and self.im == other.im)

    def __hash__(self) -> int:
        return hash((self.re, self.im))


def _as_box(x) -> ComplexBox:
    if isinstance(x, ComplexBox):
        return x
    if isinstance(x, Interval):
        return ComplexBox(x)
    if isinstance(x, complex):
        return ComplexBox.point(x)
    if isinstance(x, (int, float)):
        return ComplexBox(Interval(float(x)))
    raise TypeError(f"cannot interpret {x!r} as a complex box")
