import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import speccert
from speccert.errors import DivisionByZeroInterval, DomainError
from speccert.interval import (
    PI,
    ComplexBox,
    IArray,
    Interval,
    iv_exp,
    iv_log,
    iv_pow_int,
    iv_sqrt,
    iv_tanh,
)

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)


def make_interval(a, b):
    return Interval(min(a, b), max(a, b))


def pick(iv, t):
    # a point certainly inside the interval
    if iv.lo == iv.hi:
        return iv.lo
    x = iv.lo + t * (iv.hi - iv.lo)
    return min(max(x, iv.lo), iv.hi)


@given(finite, finite, finite, finite, st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=400)
def test_add_sub_mul_containment(a, b, c, d, t, u):
    x = make_interval(a, b)
    y = make_interval(c, d)
    px, py = pick(x, t), pick(y, u)
    assert (x + y).contains(px + py)
    assert (x - y).contains(px - py)
    assert (x * y).contains(px * py)


@given(finite, finite, finite, finite, st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=300)
def test_div_containment(a, b, c, d, t, u):
    x = make_interval(a, b)
    y = make_interval(c, d)
    if y.contains_zero():
        with pytest.raises(DivisionByZeroInterval):
            x / y
        return
    px, py = pick(x, t), pick(y, u)
    assert (x / y).contains(px / py)


@given(finite, finite, st.floats(0, 1))
@settings(max_examples=300)
def test_unary_containment(a, b, t):
    x = make_interval(a, b)
    p = pick(x, t)
    sq = x.sq()
    assert sq.contains(p * p)
    assert Fraction(sq.lo) <= Fraction(p) ** 2 <= Fraction(sq.hi)
    assert x.abs().contains(abs(p))
    assert (-x).contains(-p)
    if x.lo >= 0:
        root = iv_sqrt(x)
        assert root.contains(math.sqrt(p))
        # sqrt(p) lies in [lo, hi] iff lo^2 <= p <= hi^2, both ends >= 0
        assert Fraction(root.lo) ** 2 <= Fraction(p) <= Fraction(root.hi) ** 2


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 1))
@settings(max_examples=200)
def test_transcendental_containment(a, b, t):
    # libm results can be a ulp off the true value, so the oracle is
    # high-precision mpmath rounded both ways
    x = make_interval(a, b)
    p = pick(x, t)
    with mpmath.workdps(40):
        for fn, iv_fn in ((mpmath.exp, iv_exp), (mpmath.tanh, iv_tanh)):
            true = fn(mpmath.mpf(p))
            enc = iv_fn(x)
            assert mpmath.mpf(enc.lo) <= true <= mpmath.mpf(enc.hi)
        if x.lo > 0:
            true = mpmath.log(mpmath.mpf(p))
            enc = iv_log(x)
            assert mpmath.mpf(enc.lo) <= true <= mpmath.mpf(enc.hi)


def test_finite_stage_does_not_import_mpmath():
    # mpmath is imported only where a transcendental endpoint is evaluated
    src = str(Path(speccert.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import speccert.cli, speccert.pipeline; "
            "sys.exit('mpmath' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


@given(st.floats(-20, 20), st.floats(-20, 20), st.integers(0, 6),
       st.floats(0, 1))
@settings(max_examples=200)
def test_pow_int_containment(a, b, k, t):
    x = make_interval(a, b)
    p = pick(x, t)
    assert iv_pow_int(x, k).contains(p ** k)


def test_small_integer_arithmetic_tight():
    # sums of small exact floats stay exact; products round outward by
    # at most one ulp per endpoint
    assert (Interval(1.0) + Interval(2.0)) == Interval(3.0)
    prod = Interval(3.0) * Interval(4.0)
    assert prod.contains(12.0) and prod.width() <= 2 * math.ulp(12.0)
    sq = Interval(1.5).sq()
    assert sq.contains(2.25) and sq.width() <= 2 * math.ulp(2.25)


def test_pi_enclosure():
    # the two doubles on either side of pi
    with mpmath.workdps(60):
        assert mpmath.mpf(PI.lo) < mpmath.pi < mpmath.mpf(PI.hi)
    assert math.nextafter(PI.lo, math.inf) == PI.hi


def test_sqrt_negative_rejected():
    with pytest.raises(DomainError):
        iv_sqrt(Interval(-2.0, -1.0))


# exact squares, a value whose rounded square hides a low upper end,
# subnormals, the smallest normal and values near overflow
SQRT_CASES = [0.0, 1.0, 2.0, 4.0, 0.25, 2.2590971886958096e-10, 5e-324,
              3 * 5e-324, 2.0 ** -1060, 2.0 ** -1022,
              math.nextafter(2.0 ** -1022, 0.0), 2.0 ** -960, 2.0 ** 1000,
              math.nextafter(math.inf, 0.0), 1e308, 1.3407807929942596e154]


def test_sqrt_ends_bound_the_exact_root():
    # the oracle is the exact rational square of each end: lo^2 <= x <= hi^2,
    # with the ends at most two ulps apart; the scalar and array ends agree
    rng = np.random.default_rng(17)
    xs = SQRT_CASES + list(10.0 ** rng.uniform(-12.0, 13.0, 2000))
    arr = iv_sqrt(IArray(xs))
    for x, alo, ahi in zip(xs, arr.lo.tolist(), arr.hi.tolist()):
        enc = iv_sqrt(Interval(x))
        assert (enc.lo.hex(), enc.hi.hex()) == (alo.hex(), ahi.hex()), x
        assert Fraction(enc.lo) ** 2 <= Fraction(x) <= Fraction(enc.hi) ** 2, x
        assert enc.hi <= math.nextafter(math.nextafter(enc.lo, math.inf),
                                        math.inf), x


def test_log_nonpositive_rejected():
    with pytest.raises(DomainError):
        iv_log(Interval(0.0, 1.0))


real = st.floats(-1e6, 1e6)


def exact_mig(lo, hi):
    """The distance of the rational interval [lo, hi] from 0."""
    return max(Fraction(0), lo, -hi)


@given(real, real, real, real, st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=250)
def test_complex_box_containment(a, b, c, d, t1, t3):
    x = ComplexBox(make_interval(a, b))
    y = ComplexBox(make_interval(c, d))
    # the oracle is the exact rational difference of picked points, not
    # Python's rounded float arithmetic
    dr = Fraction(pick(x.re, t1)) - Fraction(pick(y.re, t3))
    z = x - y
    assert Fraction(z.re.lo) <= dr <= Fraction(z.re.hi)
    assert z.im.lo == z.im.hi == 0.0
    # the gap is the exact mignitude of the enclosure, so at most |dr|
    lo, hi = Fraction(z.re.lo), Fraction(z.re.hi)
    assert Fraction(z.mig()) == exact_mig(lo, hi) <= abs(dr)
    exact = exact_mig(Fraction(x.re.lo) - Fraction(y.re.hi),
                      Fraction(x.re.hi) - Fraction(y.re.lo))
    assert Fraction(z.mig()) <= exact


def test_complex_mag_mig():
    z = ComplexBox(Interval(3.0, 3.0))
    assert z.mig() == 3.0 and z.im == Interval(0.0)
    assert (z - ComplexBox(3.0)).mig() == 0.0
    zero = ComplexBox(Interval(-1.0, 1.0))
    assert zero.mig() == 0.0
    assert ComplexBox(Interval(-5.0, -4.0)).mig() == 4.0
    # the gap from [4, 5] to the interval around the origin is exactly 3
    gap = (ComplexBox(Interval(4.0, 5.0)) - zero).mig()
    assert Fraction(gap) == 3
    assert (zero - ComplexBox(Interval(4.0, 5.0))).mig() == 3.0
