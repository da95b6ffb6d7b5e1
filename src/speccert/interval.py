"""Outward-rounded real intervals, and the real disk centers as complex boxes.

Endpoints are IEEE doubles.  Every arithmetic operation returns an interval
guaranteed to contain the exact result; rounding is handled by stepping the
computed endpoint one ulp outward with math.nextafter.  Additions and
subtractions recover the rounding error exactly (two-sum), so results that
are representable stay exact.  Multiplication keeps exactness when a factor
endpoint is 0 or +-1, which covers sign flips and identities.

Infinite endpoints are legal only as markers for unbounded spectral regions;
arithmetic on an unbounded interval raises UnboundedOperand.

IArray holds a batch of intervals in two float64 arrays, so that a function
evaluated on many boxes (a bisection level of the radial branch-and-bound,
say) costs a few numpy calls instead of one Python call per box.  Its
operations give, element by element, the bits of the Interval operations.
An element whose scalar operation would raise does not stop the batch: the
element records the exception's class, and the exception is raised only
when a caller takes that element (`IArray.elements`).  IArray is the one
elementwise interval-array type: imatrix.IMatrix is the 2-D IArray, which
adds the matrix product and norms and raises an element's error at once,
and fourier's coefficient sums and scalings run through it.

Interval arrays step outward through one kernel, ulp_step, which gives the
bits of np.nextafter without its libm call per element: finite doubles of
one sign are ordered as their int64 bit patterns, so with -0.0 folded into
+0.0 a step up adds the sign (+-1) to the bits, and a step down is -up(-x).
Arrays under 1000 elements (the measured crossover) take np.nextafter.
"""

from __future__ import annotations

import functools
import math

import numpy as np

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


_STEP_MIN = 1000          # below this size np.nextafter is faster
_STEP_BLOCK = 1 << 15     # elements per integer step, for a 256 KB temporary


@np.errstate(invalid="ignore")    # a signalling NaN steps to a NaN, unreported
def ulp_step(x, to: float, steps: int = 1, out=None, keep_zero: bool = False):
    """x stepped `steps` ulps toward `to` (+-inf) into out (default x), bit for
    bit as np.nextafter; with keep_zero an exact zero comes out 0.0."""
    out = x if out is None else out
    zero = x == 0 if keep_zero else None
    if out.size < _STEP_MIN or not (out.flags.c_contiguous or out.flags.f_contiguous):
        for _ in range(steps):
            x = np.nextafter(x, to, out=out)
    else:
        np.copyto(out, x)
        flat = out.reshape(-1, order="A")     # a view, as out is contiguous
        for b in range(0, flat.size, _STEP_BLOCK):
            blk = flat[b:b + _STEP_BLOCK]
            bits = blk.view(np.int64)
            # a NaN, an inf, or a bound the steps would carry past inf
            if (bits & 0x7FFFFFFFFFFFFFFF).max() > 0x7FF0000000000000 - steps:
                for _ in range(steps):
                    np.nextafter(blk, to, out=blk)
                continue
            if to < 0:
                np.negative(blk, out=blk)
            for _ in range(steps):    # one ulp at a time: one +-2 add breaks at -0.0
                blk += 0.0
                bits += (bits >> 63) | 1
            if to < 0:
                np.negative(blk, out=blk)
    if keep_zero:
        out[zero] = 0.0
    return out


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
        if not isinstance(other, Interval):
            if not isinstance(other, (int, float)):
                return NotImplemented   # an IArray runs its reflected operator
            other = Interval(float(other))
        self._require_bounded()
        other._require_bounded()
        return Interval(_sum_lo(self.lo, other.lo), _sum_hi(self.hi, other.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        if not isinstance(other, (Interval, int, float)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Interval":
        return _as_interval(other) + (-self)

    def __mul__(self, other) -> "Interval":
        if not isinstance(other, Interval):
            if not isinstance(other, (int, float)):
                return NotImplemented   # an IArray runs its reflected operator
            other = Interval(float(other))
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
        if not isinstance(other, Interval):
            if not isinstance(other, (int, float)):
                return NotImplemented   # an IArray runs its reflected operator
            other = Interval(float(other))
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

    def upper(self) -> "Interval":
        """The point interval [hi, hi]."""
        return Interval(self.hi)

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


# -- interval arrays ------------------------------------------------------

_MAX = math.nextafter(_INF, 0.0)
# the errors an IArray records per element; IArray.err holds 1 + the
# position of the class here, and 0 for an element without error
_LAZY = (DivisionByZeroInterval, UnboundedOperand, DomainError)
_DIV0, _UNBOUNDED, _DOMAIN = 1, 2, 3
_MESSAGES = ("division by an interval containing zero",
             "arithmetic on an unbounded interval",
             "argument outside the domain")


class IArray:
    """Intervals [lo[i], hi[i]] held in two float64 arrays.

    Every operation gives, element by element, the bits the Interval
    operation gives: the same two-sum, exact-product, square and square-root
    rules, the same outward steps and the same signed zeros (a minimum or
    maximum keeps the first of equal candidates, as Python's min and max
    do).  Where the scalar operation would raise, the element records the
    exception class in `err` and continues as a finite placeholder.  An
    element keeps the first error met in evaluation order: an operation
    keeps its left operand's, then its right operand's, then records its
    own.  Python evaluates an expression left to right, so a function whose
    result is one expression records, per element, the exception its scalar
    evaluation raises.

    Interval's operators return NotImplemented for an IArray operand, so a
    function written for Interval arguments, such as the Swift-Hohenberg
    symbol, runs on an IArray unchanged.  A function that branches on
    endpoint values runs on one through `elementwise`.  Arrays of any shape
    broadcast as numpy arrays do, and an operator's result has the class of
    its IArray operand (the left one when both are).
    """

    __slots__ = ("lo", "hi", "err")
    __array_ufunc__ = None      # numpy defers mixed operators to IArray's

    def __init__(self, lo, hi=None):
        lo = np.array(lo, dtype=float, ndmin=1)
        hi = lo if hi is None else np.array(hi, dtype=float, ndmin=1)
        if (lo.shape != hi.shape or np.isnan(lo).any() or np.isnan(hi).any()
                or (lo > hi).any()):
            raise DomainError("invalid interval array endpoints")
        self.lo, self.hi, self.err = lo, hi, None

    @classmethod
    def _of(cls, lo, hi, err) -> "IArray":
        out = object.__new__(cls)
        out.lo, out.hi, out.err = lo, hi, err
        return out

    @property
    def shape(self):
        return self.lo.shape

    def errors(self) -> list:
        """Per element, in row-major order, None or the exception its scalar
        evaluation raises."""
        if self.err is None:
            return [None] * self.lo.size
        return [_LAZY[c - 1](f"interval array element {i}: {_MESSAGES[c - 1]}")
                if c else None for i, c in enumerate(self.err.ravel().tolist())]

    def elements(self) -> list:
        """Each element, in row-major order, as an Interval or as the
        exception its scalar evaluation raises."""
        return [e or Interval(lo, hi) for e, lo, hi
                in zip(self.errors(), self.lo.ravel().tolist(), self.hi.ravel().tolist())]

    def checked(self) -> "IArray":
        """self, or the error of its first element that has one raised."""
        if self.err is not None and self.err.any():
            raise next(e for e in self.errors() if e)
        return self

    def sum(self) -> Interval:
        """Interval(0.0) + x[0] + x[1] + ... in order, bit for bit: a float
        loop, as each rounding depends on the partial sum before it."""
        lo = functools.reduce(_sum_lo, self.checked().lo.tolist(), 0.0)
        hi = functools.reduce(_sum_hi, self.hi.tolist(), 0.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise UnboundedOperand("unbounded interval array sum")
        return Interval(lo, hi)

    def __getitem__(self, key) -> "IArray":
        """The elements a slice, mask or index array picks."""
        return IArray._of(self.lo[key], self.hi[key],
                          None if self.err is None else self.err[key])

    def upper(self) -> "IArray":
        """The point intervals [hi, hi]."""
        return IArray._of(self.hi, self.hi, self.err)

    def mid(self) -> np.ndarray:
        return self.lo + 0.5 * (self.hi - self.lo)

    def mag(self) -> np.ndarray:
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def mig(self) -> np.ndarray:
        return np.where((self.lo <= 0.0) & (0.0 <= self.hi), 0.0,
                        np.minimum(np.abs(self.lo), np.abs(self.hi)))

    def __neg__(self) -> "IArray":
        return type(self)._of(-self.hi, -self.lo, self.err)

    def abs(self) -> "IArray":
        return IArray._of(self.mig(), self.mag(), self.err)

    def sq(self) -> "IArray":
        (lo, hi), err = _bounded(self.err, self.lo, self.hi)
        x = IArray._of(lo, hi, err)
        g, m = x.mig(), x.mag()
        lo, hi = g * g, m * m
        lo = np.where((g == 0.0) | (g == 1.0), lo, ulp_step(lo, -_INF, out=np.empty_like(lo)))
        hi = np.where((m == 0.0) | (m == 1.0), hi, ulp_step(hi, _INF, out=np.empty_like(hi)))
        return IArray._of(np.where(0.0 > lo, 0.0, lo), hi, err)

    # The scalar operators put their own operand first, except that a
    # number on the left of + or * becomes the right operand; the reflected
    # operators keep that order.

    def __add__(self, other):
        return _add(self, other) if _is_operand(other) else NotImplemented

    def __radd__(self, other):
        if not _is_operand(other):
            return NotImplemented
        return _add(other, self) if isinstance(other, Interval) else _add(self, other)

    def __sub__(self, other):
        return _add(self, -other) if _is_operand(other) else NotImplemented

    def __rsub__(self, other):
        return _add(other, -self) if _is_operand(other) else NotImplemented

    def __mul__(self, other):
        return _mul(self, other) if _is_operand(other) else NotImplemented

    def __rmul__(self, other):
        if not _is_operand(other):
            return NotImplemented
        return _mul(other, self) if isinstance(other, Interval) else _mul(self, other)

    def __truediv__(self, other):
        return _div(self, other) if _is_operand(other) else NotImplemented

    def __rtruediv__(self, other):
        return _div(other, self) if _is_operand(other) else NotImplemented


def _is_operand(x) -> bool:
    return isinstance(x, (IArray, Interval, int, float))


def _array(x, like: IArray) -> IArray:
    """x as an IArray of like's shape."""
    if isinstance(x, IArray):
        return x
    x = _as_interval(x)
    return IArray._of(np.full(like.lo.shape, x.lo), np.full(like.lo.shape, x.hi), None)


def _record(err, mask, code: int):
    """err with code recorded where mask holds and no earlier error is."""
    if err is None:
        return np.where(mask, np.int8(code), np.int8(0))
    return np.where((err == 0) & mask, np.int8(code), err)


def _bounded(err, *ends):
    """UnboundedOperand recorded where an endpoint is infinite; those
    elements continue as [0, 0]."""
    bad = np.isinf(ends[0])
    for e in ends[1:]:
        bad |= np.isinf(e)
    if not bad.any():
        return ends, err
    return (tuple(np.where(bad, 0.0, e) for e in ends),
            _record(err, bad, _UNBOUNDED))


def _binary(x, y):
    """The class of the result, the bounded endpoints of x and y and the
    errors they carry."""
    like = x if isinstance(x, IArray) else y
    x, y = _array(x, like), _array(y, like)
    if x.err is None or y.err is None:
        err = y.err if x.err is None else x.err
    else:
        err = np.where(x.err != 0, x.err, y.err)
    ends = (x.lo, x.hi, y.lo, y.hi)
    if x.lo.shape != y.lo.shape:     # ends and errors take the result's shape
        ends = np.broadcast_arrays(*ends)
        err = None if err is None else np.broadcast_to(err, ends[0].shape)
    (al, ah, bl, bh), err = _bounded(err, *ends)
    return type(like), al, ah, bl, bh, err


@np.errstate(over="ignore", invalid="ignore")     # an overflow rounds to +-inf, handled below
def _sum_lo_array(a, b):
    """_sum_lo elementwise."""
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    lo = np.where(err < 0.0, ulp_step(s, -_INF, out=np.empty_like(s)), s)
    over = np.isinf(s)
    if over.any():
        lo = np.where(over, np.where(s < 0.0, -_INF, _MAX), lo)
    return lo


@np.errstate(over="ignore", invalid="ignore")
def _sum_hi_array(a, b):
    """_sum_hi elementwise."""
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    hi = np.where(err > 0.0, ulp_step(s, _INF, out=np.empty_like(s)), s)
    over = np.isinf(s)
    if over.any():
        hi = np.where(over, np.where(s > 0.0, _INF, -_MAX), hi)
    return hi


def _first_min(cands):
    """min(cands) elementwise: the first candidate no later one is below."""
    out = cands[0]
    for c in cands[1:]:
        out = np.where(c < out, c, out)
    return out


def _first_max(cands):
    out = cands[0]
    for c in cands[1:]:
        out = np.where(c > out, c, out)
    return out


def _add(x, y) -> IArray:
    cls, al, ah, bl, bh, err = _binary(x, y)
    return cls._of(_sum_lo_array(al, bl), _sum_hi_array(ah, bh), err)


def _unit(v):
    """The endpoint test of _prod_exact: v is 0 or +-1."""
    a = np.abs(v)
    return (a == 0.0) | (a == 1.0)


def _mul(x, y) -> IArray:
    cls, al, ah, bl, bh, err = _binary(x, y)
    cands = (al * bl, al * bh, ah * bl, ah * bh)
    lo, hi = _first_min(cands), _first_max(cands)
    # every product exact iff both endpoints of one factor are 0 or +-1
    exact = (_unit(al) & _unit(ah)) | (_unit(bl) & _unit(bh))
    return cls._of(np.where(exact, lo, ulp_step(lo, -_INF, out=np.empty_like(lo))),
                   np.where(exact, hi, ulp_step(hi, _INF, out=np.empty_like(hi))), err)


def _div(x, y) -> IArray:
    cls, al, ah, bl, bh, err = _binary(x, y)
    zero = (bl <= 0.0) & (0.0 <= bh)
    if zero.any():
        err = _record(err, zero, _DIV0)
        bl, bh = np.where(zero, 1.0, bl), np.where(zero, 1.0, bh)
    cands = (al / bl, al / bh, ah / bl, ah / bh)
    return cls._of(ulp_step(_first_min(cands), -_INF),
                   ulp_step(_first_max(cands), _INF), err)


_SPLIT = 134217729.0                      # 2**27 + 1, Veltkamp's split
_SPLIT_LO, _SPLIT_HI = 2.0 ** -480, 2.0 ** 500   # |r| where _sq_err is exact


def _sq_err(r):
    """r*r - fl(r*r) by Dekker's TwoProduct on a Veltkamp split (a float or
    an array): exact where r = 0 or _SPLIT_LO <= |r| <= _SPLIT_HI."""
    p = r * r
    c = _SPLIT * r
    h = c - (c - r)
    t = r - h
    return ((h * h - p) + 2.0 * h * t) + t * t


def _sqrt_out(x: float, up: bool) -> float:
    """sqrt(x) for x >= 0, rounded up or down.  Rounding to nearest is
    monotone, so r*r lies on p's side of x where p = fl(r*r) != x; a tie
    takes the exact error of r*r, and r steps where the split cannot."""
    r = math.sqrt(x)
    p = r * r
    if p != x:
        wrong = p < x if up else p > x
    elif r == 0.0 or _SPLIT_LO <= r <= _SPLIT_HI:
        e = _sq_err(r)
        wrong = e < 0.0 if up else e > 0.0
    else:
        wrong = True
    return (_up if up else _down)(r) if wrong else r


def _sqrt_out_array(x, up: bool):
    """_sqrt_out elementwise; the exact error is computed on ties only."""
    r = np.sqrt(x)
    p = r * r
    wrong = p < x if up else p > x
    tie = np.nonzero(p == x)
    if tie[0].size:
        t = r[tie]
        e = _sq_err(t)
        split = (t == 0.0) | ((_SPLIT_LO <= t) & (t <= _SPLIT_HI))
        wrong[tie] = ~split | (e < 0.0 if up else e > 0.0)
    return np.where(wrong, ulp_step(r, _INF if up else -_INF, out=p), r)


def _sqrt_array(x: IArray) -> IArray:
    (lo, hi), err = _bounded(x.err, x.lo, x.hi)
    neg = hi < 0.0
    if neg.any():
        err = _record(err, neg, _DOMAIN)
        lo, hi = np.where(neg, 0.0, lo), np.where(neg, 0.0, hi)
    lo = np.where(0.0 > lo, 0.0, lo)
    with np.errstate(over="ignore", under="ignore"):
        rl, rh = _sqrt_out_array(lo, False), _sqrt_out_array(hi, True)
    return IArray._of(np.where(0.0 > rl, 0.0, rl), rh, err)


def elementwise(fn):
    """fn, written for one Interval, lifted to an IArray first argument.

    fn runs once per element, so this is slow; it serves functions that
    branch on endpoint values or evaluate mpmath.  An element whose call
    raises DivisionByZeroInterval, UnboundedOperand or DomainError records
    it; other exceptions propagate at once.
    """

    @functools.wraps(fn)
    def lifted(x, *args):
        if not isinstance(x, IArray):
            return fn(x, *args)
        lo, hi, codes = [], [], []
        for e in x.elements():
            if not isinstance(e, Exception):
                try:
                    e = fn(e, *args)
                except _LAZY as exc:
                    e = exc
            if isinstance(e, Exception):
                code = next(k for k, cls in enumerate(_LAZY, 1)
                            if isinstance(e, cls))
                lo.append(0.0)
                hi.append(0.0)
            else:
                code = 0
                lo.append(e.lo)
                hi.append(e.hi)
            codes.append(code)
        err = np.array(codes, np.int8) if any(codes) else None
        return IArray._of(np.array(lo), np.array(hi), err)

    return lifted


def iv_sqrt(x: Interval) -> Interval:
    """Enclosure of sqrt over x intersected with [0, inf); elementwise for
    an IArray."""
    if isinstance(x, IArray):
        return _sqrt_array(x)
    x._require_bounded()
    if x.hi < 0.0:
        raise DomainError(f"sqrt of negative interval {x}")
    rl = _sqrt_out(max(x.lo, 0.0), False)
    return Interval(max(rl, 0.0), _sqrt_out(x.hi, True))


# -- transcendental endpoints via high-precision evaluation ---------------
# (mpmath is imported on use: the finite stage needs none of its 3.5 MB)

_MP_DPS = 40
_GUARD = 1e-32                # relative guard; a double, exact as an mpf


def _mp_out(fn, x: float, s: int) -> float:
    """Float bound on fn(x), below for s = -1 and above for s = 1; guards
    against the tiny mpmath error."""
    import mpmath
    with mpmath.workdps(_MP_DPS):
        y = fn(mpmath.mpf(x))
        y = y + s * abs(y) * _GUARD + s * mpmath.mpf("1e-305")
        f = float(y)
        while s * (mpmath.mpf(f) - y) < 0:
            f = math.nextafter(f, s * _INF)
    return f


def _monotone_inc(fn, x: Interval) -> Interval:
    x._require_bounded()
    return Interval(_mp_out(fn, x.lo, -1), _mp_out(fn, x.hi, 1))


def iv_exp(x: Interval) -> Interval:
    import mpmath
    return _monotone_inc(mpmath.exp, x)


def iv_tanh(x: Interval) -> Interval:
    import mpmath
    return _monotone_inc(mpmath.tanh, x)


def iv_log(x: Interval) -> Interval:
    if x.lo <= 0.0:
        raise DomainError(f"log of non-positive interval {x}")
    import mpmath
    return _monotone_inc(mpmath.log, x)


def iv_pow_int(x: Interval, k: int) -> Interval:
    """x**k for integer k >= 0 with the even-power minimum handled."""
    if k < 0:
        raise DomainError("negative integer power; divide explicitly")
    if k == 0:
        return ONE
    if k == 1:
        return x
    if k % 2 == 0:
        half = iv_pow_int(x, k // 2)
        return half.sq()
    return x * iv_pow_int(x, k - 1)


PI = Interval(3.141592653589793, 3.1415926535897936)    # the doubles around pi


class ComplexBox:
    """A real disk center as a box of the complex plane: the interval re
    (an IArray for a batch), with imaginary part `im` exactly [0, 0]."""

    __slots__ = ("re",)
    im = ZERO

    def __init__(self, re):
        self.re = re if isinstance(re, IArray) else _as_interval(re)

    def __sub__(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(self.re - other.re)

    def mig(self) -> float:
        """The exact lower bound on |z| over the box (an array for a batch)."""
        return self.re.mig()

    def __repr__(self) -> str:
        return f"ComplexBox({self.re!r})"
