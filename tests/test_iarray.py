"""IArray against the scalar Interval operations, element by element.

Every result is compared bit for bit (float.hex, which tells -0.0 from 0.0)
or, where the scalar operation raises, by exception class.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from speccert.errors import CertifyError, DivisionByZeroInterval, DomainError
from speccert.interval import (
    ComplexBox,
    IArray,
    Interval,
    elementwise,
    iv_exp,
    iv_log,
    iv_pow_int,
    iv_sqrt,
)

_MAX = 1.7976931348623157e308
# 0, -0.0, +-1, subnormals, values near overflow and near its square root
SPECIAL = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           -1e-310, _MAX, -_MAX, 1e308, 1.3407807929942596e154, -1e154,
           0.5, 2.0, -3.0, math.inf, -math.inf]

endpoint = st.one_of(st.sampled_from(SPECIAL),
                     st.floats(allow_nan=False),
                     st.floats(-8.0, 8.0))


@st.composite
def interval(draw):
    a, b = draw(endpoint), draw(endpoint)
    return Interval(min(a, b), max(a, b))


# divisors through zero, and intervals touching it from either side
straddling = st.tuples(st.floats(-8.0, 0.0), st.floats(0.0, 8.0)).map(
    lambda p: Interval(*p))
operand = st.one_of(interval(), straddling)
batch = st.lists(st.tuples(operand, operand), min_size=1, max_size=8)


def scalar(fn, *args):
    try:
        out = fn(*args)
    except CertifyError as exc:
        return type(exc)
    return (out.lo.hex(), out.hi.hex())


def batched(out):
    return [type(e) if isinstance(e, Exception) else (e.lo.hex(), e.hi.hex())
            for e in out.elements()]


def iarray(ivs):
    return IArray([x.lo for x in ivs], [x.hi for x in ivs])


BINARY = [
    lambda x, y: x + y,
    lambda x, y: x - y,
    lambda x, y: x * y,
    lambda x, y: x / y,
]

UNARY = [
    lambda x: -x,
    lambda x: x.abs(),
    lambda x: x.sq(),
    lambda x: x.upper(),
    iv_sqrt,
    lambda x: iv_pow_int(x, 2),
    lambda x: iv_pow_int(x, 3),
    lambda x: iv_pow_int(x, 5),
    # a chain, to check which error an element keeps: the first one met
    lambda x: (Interval(1.0) - x.sq()).sq() / (x + 2.0) - iv_sqrt(x),
    lambda x: iv_sqrt(x - 1.0) * (3.0 / x) + (x * x).upper(),
]


@given(batch, st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-310]))
# sums past the largest double, on either side
@example([(Interval(1e308, _MAX), Interval(_MAX)),
          (Interval(-_MAX), Interval(-_MAX, -1e308))], 1.0)
# products of zeros with both signs, where the first of equal zeros counts
# (an Interval times an IArray keeps the Interval as the left factor:
# [-2, -0] * [-1, 0] is [-0, 2] and [-1, 0] * [-2, -0] is [0, 2])
@example([(Interval(-2.0, -0.0), Interval(-1.0, 0.0)),
          (Interval(0.0), Interval(-1.0, 1.0)),
          (Interval(-1.0, 1.0), Interval(-0.0, 0.0))], -0.0)
@settings(max_examples=300, deadline=None)
def test_iarray_matches_interval(pairs, c):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    xa, ya = iarray(xs), iarray(ys)
    # overflow to an infinite endpoint is what the scalar code does too
    with np.errstate(all="ignore"):
        for op in BINARY:
            expect = [scalar(op, x, y) for x, y in pairs]
            assert batched(op(xa, ya)) == expect
            # an Interval or a number on either side
            assert batched(op(xa, ys[0])) == [scalar(op, x, ys[0]) for x in xs]
            assert batched(op(xs[0], ya)) == [scalar(op, xs[0], y) for y in ys]
            assert batched(op(xa, c)) == [scalar(op, x, c) for x in xs]
            assert batched(op(c, xa)) == [scalar(op, c, x) for x in xs]
        for op in UNARY:
            assert batched(op(xa)) == [scalar(op, x) for x in xs]
        for x, g, m in zip(xs, xa.mig(), xa.mag()):
            assert (g.hex(), m.hex()) == (x.mig().hex(), x.mag().hex())


# finite boxes whose differences cannot overflow: dyadic endpoints (exact
# sums and squares), signed zeros, subnormals and general floats
box_end = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -1e-310]),
                    st.integers(-64, 64).map(lambda k: k / 8.0),
                    st.floats(-1e6, 1e6))
box_part = st.one_of(
    st.tuples(box_end, box_end).map(lambda p: Interval(min(p), max(p))),
    box_end.map(Interval),                                       # point
    st.tuples(st.floats(-8.0, 0.0), st.floats(0.0, 8.0)).map(   # contains 0
        lambda p: Interval(*p)))
box = st.builds(ComplexBox, box_part, box_part)


def box_array(boxes):
    return ComplexBox(iarray([z.re for z in boxes]), iarray([z.im for z in boxes]))


@given(st.lists(st.tuples(box, box), min_size=1, max_size=8))
@example([(ComplexBox(Interval(-1.0, 1.0), Interval(0.0)),
           ComplexBox(Interval(0.5), Interval(-0.0, 0.0))),
          (ComplexBox(Interval(1.0), Interval(-2.0)),
           ComplexBox(Interval(-2.0), Interval(2.0)))])
@settings(max_examples=300, deadline=None)
def test_complexbox_of_iarrays_mig_matches_scalar(pairs):
    zs = box_array([z for z, _ in pairs])
    ws = box_array([w for _, w in pairs])
    got = [g.hex() for g in (zs - ws).mig()]
    assert got == [(z - w).mig().hex() for z, w in pairs]


@given(st.lists(interval(), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_elementwise_matches_scalar(xs):
    def branchy(x):
        if x.lo > 1.0:
            return iv_log(x)
        return iv_exp(x - 2.0)

    xa = iarray(xs)
    assert batched(elementwise(branchy)(xa)) == [scalar(branchy, x) for x in xs]
    assert batched(iv_log(xa)) == [scalar(iv_log, x) for x in xs]


def test_elements_raise_the_scalar_errors():
    x = IArray([-1.0, 1.0, -3.0], [1.0, 2.0, -2.0])
    q, r = (1.0 / x).elements(), iv_sqrt(x).elements()
    assert isinstance(q[0], DivisionByZeroInterval)
    assert q[1] == Interval(1.0) / Interval(1.0, 2.0)
    assert isinstance(r[2], DomainError)
    # an element keeps its first error through later operations
    assert isinstance((iv_sqrt(x) / x).elements()[2], DomainError)


def test_iarray_rejects_invalid_endpoints():
    with pytest.raises(DomainError):
        IArray([1.0], [0.0])
    with pytest.raises(DomainError):
        IArray([math.nan])
