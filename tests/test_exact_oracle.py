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

conv_block's entries hold the exact orbit sums times sqrt(m_n / m_k), and
sym_factor bounds that factor; both are checked by squares, with no root.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from speccert.errors import CertifyError, UnboundedOperand
from speccert.finite import cluster_disks, conv_block, sym_factor
from speccert.fourier import Grid, _axis_types
from speccert.imatrix import IMatrix
from speccert.interval import IArray, Interval
from test_exact_zeros import BASES, conv_cases
from test_finite import _disk_sets, _extreme_disk_sets, _synthetic_disks

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
    _assert_exact_reach_shares_a_cluster(ds)


@given(_extreme_disk_sets())
@settings(max_examples=300, deadline=None)
def test_disks_within_exact_reach_share_a_cluster_at_extreme_magnitudes(ds):
    _assert_exact_reach_shares_a_cluster(ds)


def _assert_exact_reach_shares_a_cluster(ds):
    cluster_of = {i: k for k, c in enumerate(cluster_disks(ds)) for i in c.members}
    lo, hi = ds.center_re.lo.tolist(), ds.center_re.hi.tolist()
    r = [Fraction(x) for x in ds.radii.tolist()]
    for i in range(len(r)):
        for j in range(i + 1, len(r)):
            gap = max(Fraction(0), Fraction(lo[i]) - Fraction(hi[j]),
                      Fraction(lo[j]) - Fraction(hi[i]))
            if gap <= r[i] + r[j]:
                assert cluster_of[i] == cluster_of[j], (i, j)


# -- matrix products and norms ---------------------------------------------

# exact zeros, subnormals, +-min normal, inexact products (0.1) and sums
# that cancel (+-1e16 and 1); in a third of the matrices also magnitudes
# whose products pass the top of the range while sums of three do not
MATRIX_VALUES = [0.0, -0.0, 1.0, -1.0, 0.75, -3.0, 0.1, 1e16, -1e16, 5e-324, -5e-324,
                 1e-310, -3e-320, _MIN_NORMAL, -_MIN_NORMAL]
NEAR_OVERFLOW = [2.0 ** 1000, -2.0 ** 1000, 2.0 ** 1022, _MAX / 4]


@st.composite
def _imatrices(draw, rows, cols):
    """An interval matrix of table entries, at times identically zero."""
    if draw(st.integers(0, 5)) == 0:
        return IMatrix.from_point(np.zeros((rows, cols)))
    big = draw(st.integers(0, 2)) == 0
    value = st.sampled_from(MATRIX_VALUES + (NEAR_OVERFLOW if big else []))
    entry = st.one_of(value.map(lambda v: (v, v)),
                      st.tuples(value, value).map(lambda p: (min(p), max(p))))
    ents = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return IMatrix(np.array([e[0] for e in ents]).reshape(rows, cols),
                   np.array([e[1] for e in ents]).reshape(rows, cols))


def _fractions(a):
    return [[(Fraction(lo), Fraction(hi)) for lo, hi in zip(rl, rh)]
            for rl, rh in zip(a.lo.tolist(), a.hi.tolist())]


def _encloses(got_lo, got_hi, lo, hi):
    return ((got_lo == -math.inf or Fraction(got_lo) <= lo)
            and (got_hi == math.inf or Fraction(got_hi) >= hi))


@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_matmul_encloses_the_exact_product(data, m, k, n):
    _assert_product_encloses(data.draw(_imatrices(m, k)), data.draw(_imatrices(k, n)))


def test_matmul_encloses_a_cancelling_exact_product():
    # 1e16 + 1 rounds to 1e16, so the midpoint product is 0 against an exact 1
    _assert_product_encloses(IMatrix.from_point([[1e16, 1.0, -1e16]]),
                             IMatrix.from_point([[1.0], [1.0], [1.0]]))


def _assert_product_encloses(a, b):
    (m, k), n = a.shape, b.shape[1]
    fa, fb = _fractions(a), _fractions(b)
    # entry (i, j) is a sum of k products of independent factors: its exact
    # range is the sum of the exact product ranges
    terms = [[[_exact_binary("*", Interval(*map(float, fa[i][q])), Interval(*map(float, fb[q][j])))
               for q in range(k)] for j in range(n)] for i in range(m)]
    try:
        got = a @ b
    except UnboundedOperand:
        # refused only where a product of two entries nears the top of the range
        assert max(max(abs(lo), abs(hi)) for row in terms for ts in row
                   for lo, hi in ts) >= Fraction(_MAX) / 4
        return
    assert not (np.isnan(got.lo).any() or np.isnan(got.hi).any())
    for i in range(m):
        for j in range(n):
            lo, hi = sum(t[0] for t in terms[i][j]), sum(t[1] for t in terms[i][j])
            assert _encloses(got.lo[i, j], got.hi[i, j], lo, hi), (i, j)
    if not (a.lo.any() or a.hi.any()) or not (b.lo.any() or b.hi.any()):
        # an identically zero operand gives exact zeros
        assert not (got.lo.any() or got.hi.any())


@given(st.data(), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_norms_bound_the_exact_sums_of_magnitudes(data, m, n):
    a = data.draw(_imatrices(m, n))
    mag = [[max(abs(lo), abs(hi)) for lo, hi in row] for row in _fractions(a)]
    rows, cols = [sum(r) for r in mag], [sum(c) for c in zip(*mag)]
    for got, exact in zip(a.row_sums_hi().tolist(), rows):
        assert _encloses(-math.inf, got, 0, exact)
    assert _encloses(-math.inf, a.norminf_hi(), 0, max(rows))
    assert _encloses(-math.inf, a.norm1_hi(), 0, max(cols))


# -- the orbit factors of conv_block and sym_factor --------------------------

def _below_root_times(x, r, y):
    """x <= sqrt(r) y exactly, for Fractions x, y and r > 0, compared by
    squares with the signs handled."""
    if y >= 0:
        return x <= 0 or x * x <= r * y * y
    return x < 0 and x * x >= r * y * y


def _orbit(axes, n):
    return 2 ** sum(kind != "signed" and c != 0 for kind, c in zip(axes, n))


@given(conv_cases())
@settings(max_examples=150, deadline=None)
def test_conv_block_encloses_the_exact_orbit_sum(case):
    # every entry, reached or not, holds sqrt(m_n / m_k) sum_sigma chi W[n - sigma k]
    w, sector, rows, cols = case
    axes, sw = _axis_types(w.grid.m, sector), w.S
    wlo, whi = w.expand_signed()
    got = conv_block(w, sector, rows, cols)
    for i, n in enumerate(rows):
        for j, k in enumerate(cols):
            lo = hi = Fraction(0)
            for sig in itertools.product(*[(1,) if a == "signed" else (1, -1) for a in axes]):
                d = tuple(nc - s * kc for nc, s, kc in zip(n, sig, k))
                if max(map(abs, d)) > sw or any(s == -1 and kc == 0 for s, kc in zip(sig, k)):
                    continue
                at = tuple(x + sw for x in d)
                a, b = Fraction(float(wlo[at])), Fraction(float(whi[at]))
                odd = sum(s == -1 and kind == "s" for s, kind in zip(sig, axes)) % 2
                lo, hi = (lo - b, hi - a) if odd else (lo + a, hi + b)
            r = Fraction(_orbit(axes, n), _orbit(axes, k))
            assert _below_root_times(Fraction(got.lo[i, j]), r, lo), (n, k)
            assert _below_root_times(-Fraction(got.hi[i, j]), r, -hi), (n, k)


@pytest.mark.parametrize("m, sector", BASES)
def test_sym_factor_bounds_every_orbit_ratio(m, sector):
    # sqrt(m_n / m_k) is at most sqrt(2^a), a the number of reflected axes
    a = sum(kind != "signed" for kind in _axis_types(m, sector))
    assert Fraction(sym_factor(Grid(m, 3.0), sector)) ** 2 >= 2 ** a
