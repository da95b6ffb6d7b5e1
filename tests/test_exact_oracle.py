"""Interval primitives against exact rational arithmetic.

Each operation of a table runs on every pair of a fixed operand set, once
as a scalar Interval and once on IArrays of all pairs.  A result must hold
the exact hull of the operation (fractions.Fraction; an infinite end holds
everything) and lie within 2 ulps of it at each finite end, and the array
bits must be the scalar bits (float.hex, which tells -0.0 from 0.0).  A
scalar error, such as division by an interval through zero, must be the
element's recorded error.

abs, mig and mag are exact, and so is the clustering gap test built on
them: two disks whose exact distance is at most the sum of their radii
always share a cluster.
"""

import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings

from speccert.errors import CertifyError
from speccert.finite import cluster_disks
from speccert.interval import IArray, Interval
from test_finite import _disk_sets, _synthetic_disks

_MIN_NORMAL = 2.2250738585072014e-308
_MAX = 1.7976931348623157e308
# 0, +-1, subnormals, +-min normal, +-max double, exact squares, and a value
# whose rounded square root once squared back to it
SPECIAL = [0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, -3e-320, _MIN_NORMAL,
           -_MIN_NORMAL, _MAX, -_MAX, 4.0, 2.25, -0.0625, 1.5, 9.0,
           2.2590971886958096e-10]


def _operands(seed=20241019, n_random=12, n_pairs=80):
    rng = random.Random(seed)
    values = SPECIAL + [rng.choice((-1.0, 1.0)) * rng.random() * 2.0 ** rng.randint(-1070, 1020)
                        for _ in range(n_random)]
    ivs = [Interval(v) for v in values]
    for _ in range(n_pairs):
        a, b = rng.choice(values), rng.choice(values)
        ivs.append(Interval(min(a, b), max(a, b)))
    return ivs


def _hull(xs):
    return min(xs), max(xs)


def _exact_binary(op, x, y):
    a, b, c, d = (Fraction(v) for v in (x.lo, x.hi, y.lo, y.hi))
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - d, b - c
    if op == "*":
        return _hull([a * c, a * d, b * c, b * d])
    if c <= 0 <= d:
        return None             # the scalar operation raises
    return _hull([a / c, a / d, b / c, b / d])


def _exact_sq(x):
    a, b = Fraction(x.lo), Fraction(x.hi)
    if a <= 0 <= b:
        return Fraction(0), max(a * a, b * b)
    return _hull([a * a, b * b])


def _assert_encloses(got, exact, where):
    lo, hi = exact
    assert got.lo == -math.inf or Fraction(got.lo) <= lo, where
    assert got.hi == math.inf or Fraction(got.hi) >= hi, where
    # at most 2 ulps loose: two steps inward from a finite end cross the exact end
    if math.isfinite(got.lo) and got.lo != lo:
        assert _inward(got.lo, math.inf) > lo, where
    if math.isfinite(got.hi) and got.hi != hi:
        assert _inward(got.hi, -math.inf) < hi, where


def _inward(end, to):
    """end stepped 2 ulps toward `to`, as a Fraction or an infinity."""
    v = math.nextafter(math.nextafter(end, to), to)
    return v if math.isinf(v) else Fraction(v)


def _bits(v):
    return type(v) if isinstance(v, Exception) else (v.lo.hex(), v.hi.hex())


def _scalar(fn, *args):
    try:
        return fn(*args)
    except CertifyError as exc:
        return exc


BINARY = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
          "*": lambda x, y: x * y, "/": lambda x, y: x / y}


@np.errstate(all="ignore")      # the table overflows and underflows on purpose
def test_arithmetic_encloses_the_exact_result_and_arrays_match_scalars():
    ivs = _operands()
    n = len(ivs)
    assert n * n >= 10_000
    col = IArray([x.lo for x in ivs], [x.hi for x in ivs])[:, None]
    row = IArray([x.lo for x in ivs], [x.hi for x in ivs])[None, :]
    for op, fn in BINARY.items():
        batch = fn(col, row).elements()
        for k, (x, y) in enumerate((x, y) for x in ivs for y in ivs):
            got = _scalar(fn, x, y)
            assert _bits(batch[k]) == _bits(got), (op, x, y)
            exact = _exact_binary(op, x, y)
            if exact is None:
                assert isinstance(got, CertifyError), (op, x, y)
            else:
                _assert_encloses(got, exact, (op, x, y))
    batch = col.sq().elements()
    for x, arr in zip(ivs, batch):
        got = x.sq()
        assert _bits(arr) == _bits(got), ("sq", x)
        _assert_encloses(got, _exact_sq(x), ("sq", x))


def test_operand_table_reaches_the_edge_cases():
    # the table must exercise overflow, underflow and exact results
    ivs = _operands()
    sums = [x + y for x in ivs for y in ivs]
    prods = [x * y for x in ivs for y in ivs]
    assert any(v.hi == math.inf or v.lo == -math.inf for v in prods)
    assert any(v.lo == _MAX for v in sums)
    assert any(0.0 < abs(v.hi) < _MIN_NORMAL for v in prods)
    assert any(v.lo == v.hi != 0.0 for v in prods)


def _exact_mig_mag(x):
    a, b = Fraction(x.lo), Fraction(x.hi)
    mag = max(abs(a), abs(b))
    return (Fraction(0) if a <= 0 <= b else min(abs(a), abs(b))), mag


def test_abs_mig_mag_are_exact_and_arrays_match_scalars():
    # the table, plus signed zeros at either end
    ivs = _operands() + [Interval(-0.0), Interval(-0.0, 0.0), Interval(-0.0, 5e-324),
                         Interval(-_MIN_NORMAL, -0.0), Interval(-0.0, _MAX)]
    arr = IArray([x.lo for x in ivs], [x.hi for x in ivs])
    assert any(x.lo < 0.0 < x.hi for x in ivs)
    for x, g, m, a in zip(ivs, arr.mig(), arr.mag(), arr.abs().elements()):
        mig, mag = _exact_mig_mag(x)
        assert (Fraction(x.mig()), Fraction(x.mag())) == (mig, mag), x
        assert (Fraction(x.abs().lo), Fraction(x.abs().hi)) == (mig, mag), x
        assert (g.hex(), m.hex()) == (x.mig().hex(), x.mag().hex()), x
        assert _bits(a) == _bits(x.abs()), x


@given(_disk_sets())
@example(_synthetic_disks([0.0, 1.0, 2.5], [0.5, 0.5, 1.0]))       # tangent
@example(_synthetic_disks([Interval(-0.25, 0.25), 1.0], [0.25, 0.5]))
@settings(max_examples=300, deadline=None)
def test_disks_within_exact_reach_share_a_cluster(ds):
    cluster_of = {i: k for k, c in enumerate(cluster_disks(ds)) for i in c.members}
    lo, hi = ds.center_re.lo.tolist(), ds.center_re.hi.tolist()
    r = [Fraction(x) for x in ds.radii.tolist()]
    for i in range(len(r)):
        for j in range(i + 1, len(r)):
            gap = max(Fraction(0), Fraction(lo[i]) - Fraction(hi[j]),
                      Fraction(lo[j]) - Fraction(hi[i]))
            if gap <= r[i] + r[j]:
                assert cluster_of[i] == cluster_of[j], (i, j)
