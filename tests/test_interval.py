import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import speccert
from speccert.errors import DivisionByZeroInterval, DomainError
from speccert.interval import (
    PI,
    ComplexBox,
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
    assert x.sq().contains(p * p)
    assert x.abs().contains(abs(p))
    assert (-x).contains(-p)
    if x.lo >= 0:
        assert iv_sqrt(x).contains(math.sqrt(p))


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


def test_log_nonpositive_rejected():
    with pytest.raises(DomainError):
        iv_log(Interval(0.0, 1.0))


cplx = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))


def box_contains_exact(box, re, im):
    """Containment of the point re + i im, with rational re and im."""
    return (float(box.re.lo) <= re <= float(box.re.hi)
            and float(box.im.lo) <= im <= float(box.im.hi))


@given(cplx, cplx, cplx, cplx, st.floats(0, 1), st.floats(0, 1),
       st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=250)
def test_complex_box_containment(a, b, c, d, t1, t2, t3, t4):
    x = ComplexBox(make_interval(a[0], b[0]), make_interval(a[1], b[1]))
    y = ComplexBox(make_interval(c[0], d[0]), make_interval(c[1], d[1]))
    px = complex(pick(x.re, t1), pick(x.im, t2))
    py = complex(pick(y.re, t3), pick(y.im, t4))
    # the oracle is the exact rational result for the picked points, not
    # Python's rounded complex arithmetic
    xr, xi = Fraction(px.real), Fraction(px.imag)
    yr, yi = Fraction(py.real), Fraction(py.imag)
    assert box_contains_exact(x + y, xr + yr, xi + yi)
    assert box_contains_exact(x - y, xr - yr, xi - yi)
    assert box_contains_exact(x * y, xr * yr - xi * yi, xr * yi + xi * yr)
    assert x.abs().contains(abs(px))
    assert x.conj().contains(px.conjugate())
    if not (y.re.contains_zero() and y.im.contains_zero()):
        try:
            q = x / y
        except DivisionByZeroInterval:
            return
        if py != 0:
            den = yr * yr + yi * yi
            assert box_contains_exact(q, (xr * yr + xi * yi) / den,
                                      (xi * yr - xr * yi) / den)


def test_complex_mag_mig():
    z = ComplexBox(Interval(3.0, 3.0), Interval(4.0, 4.0))
    assert z.mag() >= 5.0
    assert z.mig() <= 5.0
    assert abs(z.mag() - 5.0) < 1e-12
    zero = ComplexBox(Interval(-1.0, 1.0), Interval(-1.0, 1.0))
    assert zero.mig() == 0.0
