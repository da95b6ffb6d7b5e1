import math

import pytest
from hypothesis import given, settings, strategies as st

from speccert.errors import (
    CertifyError,
    DivisionByZeroInterval,
    DomainError,
    TailNotIntegrable,
)
from speccert.interval import Interval, elementwise, iv_exp
from speccert.radial import (
    GrowthMinorant,
    bb_inf,
    bb_sup,
    integrate_radial,
    iv_pow_real,
    radial_inf,
    tail_integral_monomial,
)
from scalar_paths import bb_inf_reference, bb_sup_reference, integrate_reference


def test_bb_inf_quadratic():
    # min of (s - 3)^2 + 1 on [0, 10] is 1 at s = 3
    f = lambda s: (s - Interval(3.0)).sq() + Interval(1.0)
    enc = bb_inf(f, 0.0, 10.0, tol=1e-9)
    assert enc.contains(1.0)
    assert enc.width() <= 1e-8


def test_bb_sup_sine_like():
    # max of s(4 - s) on [0, 4] is 4 at s = 2
    f = lambda s: s * (Interval(4.0) - s)
    enc = bb_sup(f, 0.0, 4.0, tol=1e-9)
    assert enc.contains(4.0)
    assert enc.width() <= 1e-8


def test_bb_inf_boundary_minimum():
    f = lambda s: s + Interval(2.0)
    enc = bb_inf(f, 1.0, 5.0)
    assert enc.contains(3.0)


def test_bb_inf_empty_window_rejected():
    with pytest.raises(DomainError):
        bb_inf(lambda s: s, 2.0, 1.0)


def test_radial_inf_with_growing_tail():
    # f(s) = (s - 5)^2 + 2 with tail lower bound (R - 5)^2 + 2 for R >= 5
    f = lambda s: (s - Interval(5.0)).sq() + Interval(2.0)

    def tail_lo(r):
        return (r - 5.0) ** 2 + 2.0 if r >= 5.0 else 2.0

    enc = radial_inf(f, 0.0, tail_lo, tol=1e-9)
    assert enc.contains(2.0)
    assert enc.width() <= 1e-8


def test_radial_inf_never_dominating_tail_rejected():
    with pytest.raises(DomainError):
        radial_inf(lambda s: s.sq() + Interval(1.0), 0.0, lambda r: 0.0)


def test_integrate_radial_polynomial():
    # integral of s^2 over [0, 3] is 9
    enc = integrate_radial(lambda s: s.sq(), 0.0, 3.0, rel_tol=1e-3)
    assert enc.contains(9.0)
    assert enc.width() <= 2e-2


def test_integrate_radial_exponential():
    # integral of e^{-s} over [0, 2] is 1 - e^{-2}
    enc = integrate_radial(elementwise(lambda s: iv_exp(-s)), 0.0, 2.0, rel_tol=1e-3)
    assert enc.contains(1.0 - math.exp(-2.0))


def test_iv_pow_real_matches_closed_form():
    assert iv_pow_real(Interval(2.0), 3.0).contains(8.0)
    enc = iv_pow_real(Interval(4.0), 0.5)
    assert enc.contains(2.0) and enc.width() < 1e-12
    enc = iv_pow_real(Interval(0.0, 1.0), 1.5)
    assert enc.lo == 0.0 and enc.contains(1.0)
    with pytest.raises(DomainError):
        iv_pow_real(Interval(-1.0, 1.0), 0.5)


def test_growth_minorant_value():
    g = GrowthMinorant(c=2.0, k=2.0, s0=1.0)
    assert g.value_lo(3.0) <= 18.0
    assert g.value_lo(3.0) >= 18.0 * (1 - 1e-12)
    with pytest.raises(DomainError):
        g.value_lo(0.5)
    with pytest.raises(DomainError):
        GrowthMinorant(c=-1.0, k=2.0, s0=0.0)


def test_tail_integral_monomial_closed_form():
    # |f| >= 2 s^2 for s >= 1; m = 1 tail over [4, inf) of 1/(4 s^4)
    # is (1/4) * 4^{-3} / 3 = 1/768
    g = GrowthMinorant(c=2.0, k=2.0, s0=1.0)
    enc = tail_integral_monomial(g, 1, 4.0)
    exact = 1.0 / 768.0
    assert enc.lo <= exact <= enc.hi
    assert enc.hi <= exact * (1 + 1e-10)

    # m = 2: tail of s/(4 s^4) over [2, inf) is (1/4) * 2^{-2} / 2 = 1/32
    enc2 = tail_integral_monomial(g, 2, 2.0)
    exact2 = 1.0 / 32.0
    assert enc2.lo <= exact2 <= enc2.hi


def test_tail_integral_divergent_rejected():
    g = GrowthMinorant(c=1.0, k=0.5, s0=0.0)
    with pytest.raises(TailNotIntegrable):
        tail_integral_monomial(g, 1, 1.0)
    g2 = GrowthMinorant(c=1.0, k=2.0, s0=2.0)
    with pytest.raises(DomainError):
        tail_integral_monomial(g2, 1, 1.0)  # cut below threshold


# -- sample memo and segment cache against the plain implementations ------
# The references (tests/scalar_paths.py) re-evaluate every sample and every
# segment; the memoized versions must return bit-identical intervals from no
# more evaluations.


class _Counted:
    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, s):
        self.calls += 1
        return self.f(s)


@st.composite
def radial_functions(draw, positive=False):
    """A polynomial in s, or a polynomial over s^2 - 2as + a^2 + b (b > 0),
    written with s * s so that wide boxes straddle zero and divide by it.
    With positive=True the numerator is squared and shifted up by 0.1."""
    # integer coefficients keep minima from being flat enough that bisection
    # runs to millions of boxes before it meets the tolerance
    cs = draw(st.lists(st.integers(-4, 4).map(float), min_size=1, max_size=4))

    def num(s):
        acc = Interval(cs[-1])
        for c in reversed(cs[:-1]):
            acc = acc * s + Interval(c)
        return acc.sq() + Interval(0.1) if positive else acc

    if draw(st.booleans()):
        return num
    a = draw(st.floats(0.0, 6.0))
    b = draw(st.floats(0.25, 2.0))

    def rational(s):
        return num(s) / (s * s - Interval(2.0 * a) * s + Interval(a * a + b))

    return rational


def _run(fn, f, *args):
    """(lo, hi) as exact hex strings, or the error class, plus f's calls."""
    counted = _Counted(f)
    try:
        out = fn(counted, *args)
    except CertifyError as exc:
        return type(exc), counted.calls
    return (out.lo.hex(), out.hi.hex()), counted.calls


@given(radial_functions(), st.floats(0.0, 5.0), st.floats(0.1, 10.0),
       st.sampled_from([1e-5, 1e-3]))
@settings(max_examples=60, deadline=None)
def test_bb_inf_sup_match_reference(f, lo, width, tol):
    hi = lo + width
    for fn, ref in ((bb_inf, bb_inf_reference), (bb_sup, bb_sup_reference)):
        out, calls = _run(fn, f, lo, hi, tol)
        ref_out, ref_calls = _run(ref, f, lo, hi, tol)
        assert out == ref_out
        assert calls <= ref_calls


@st.composite
def wells(draw):
    """k (s^2 - 2cs + c^2 + b) + g s written with s * s, whose enclosure
    on a wide box lies far below its minimum there, so that the search
    climbs through many levels."""
    k, c, b, g = (draw(st.floats(*r)) for r in ((0.5, 4.0), (0.0, 8.0),
                                                (-3.0, 3.0), (-1.0, 1.0)))

    def well(s):
        return (s * s - Interval(2.0 * c) * s + Interval(c * c + b)) * Interval(k) \
            + Interval(g) * s

    return well


@given(st.one_of(radial_functions(), wells()), st.floats(0.0, 5.0),
       st.floats(0.1, 10.0), st.sampled_from([1e-3, 1e-2]), st.floats(-0.25, 1.25))
@settings(max_examples=80, deadline=None)
def test_bb_inf_stop_bound_against_reference(f, lo, width, tol, frac):
    # the stop bound sits at frac of the way from f's lower end on the whole
    # window up to the reference's lower end: below 1 the search stops early
    hi = lo + width
    ref, ref_calls = _run(bb_inf_reference, f, lo, hi, tol)
    assert _run(bb_inf, f, lo, hi, tol, None)[0] == ref     # no bound: the bits
    if not isinstance(ref, tuple):
        out, calls = _run(bb_inf, f, lo, hi, tol, 0.0)
        # the error is raised where the reference raises it, or not reached
        assert calls <= ref_calls and (out == ref or isinstance(out, tuple))
        return
    ref_lo, ref_hi = (float.fromhex(x) for x in ref)
    try:
        start = f(Interval(lo, hi)).lo
    except DivisionByZeroInterval:
        start = ref_lo - 1.0
    stop = start + frac * (ref_lo - start)
    out, calls = _run(bb_inf, f, lo, hi, tol, stop)
    assert calls <= ref_calls
    neg = bb_sup(lambda s: -f(s), lo, hi, tol, -stop)      # the mirror
    assert (neg.lo, neg.hi) == tuple(-float.fromhex(x) for x in reversed(out))
    out_lo, out_hi = (float.fromhex(x) for x in out)
    assert out_lo <= ref_hi and ref_lo <= out_hi
    for k in range(201):
        x = min(hi, lo + width * k / 200)
        try:
            assert out_lo <= f(Interval(x)).hi
        except DivisionByZeroInterval:
            pass
    if ref_lo >= stop:
        assert out_lo >= stop


@given(radial_functions(positive=True), st.floats(0.0, 5.0),
       st.floats(0.1, 6.0), st.sampled_from([1e-2, 3e-3]))
@settings(max_examples=30, deadline=None)
def test_integrate_radial_matches_reference(f, lo, width, rel_tol):
    out, calls = _run(integrate_radial, f, lo, lo + width, rel_tol)
    ref_out, ref_calls = _run(integrate_reference, f, lo, lo + width, rel_tol)
    assert out == ref_out
    assert calls <= ref_calls


def test_bb_inf_error_in_a_box_the_reference_never_evaluates():
    # f divides by zero on boxes of width at most 1 right of 2.5 (it is not
    # inclusion-monotone).  The reference never splits [2, 4]; the batched
    # loop evaluates [3, 4] with the level below [2, 4] and must not raise.
    raised = []

    def scalar_f(s):
        if s.lo >= 2.5 and 0.0 < s.hi - s.lo <= 1.0:
            raised.append((s.lo, s.hi))
            raise DivisionByZeroInterval("narrow box right of 2.5")
        return (s - Interval(1.0)).sq()

    ref, _ = _run(bb_inf_reference, scalar_f, 0.0, 4.0, 1e-6)
    assert raised == []
    out, _ = _run(bb_inf, elementwise(scalar_f), 0.0, 4.0, 1e-6)
    assert raised == [(3.0, 4.0)]
    assert out == ref
