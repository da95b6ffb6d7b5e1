import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speccert.errors import DimensionMismatch, SingularityUnverified
from speccert.imatrix import IMatrix, op_norm2_bound, verified_inverse
from speccert.interval import IArray, Interval


def exact_product(a, b):
    """The exact rational product of two float matrices, as nested lists."""
    fa = [[Fraction(x) for x in row] for row in a.tolist()]
    fb = [[Fraction(x) for x in col] for col in b.T.tolist()]
    return [[sum(x * y for x, y in zip(row, col)) for col in fb] for row in fa]


def encloses(prod, exact):
    return all(float(prod.lo[i, j]) <= v <= float(prod.hi[i, j])
               for i, row in enumerate(exact) for j, v in enumerate(row))


@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_matmul_contains_point_product(seed, n, k):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, k))
    b = rng.standard_normal((k, n))
    prod = IMatrix.from_point(a) @ IMatrix.from_point(b)
    assert encloses(prod, exact_product(a, b))


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_matmul_contains_interval_samples(seed, n):
    # widen the inputs, pick contained points, check the exact product
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    eps = 1e-8
    ia = IMatrix.from_point(a).widened(eps)
    ib = IMatrix.from_point(b).widened(eps)
    prod = ia @ ib
    for _ in range(3):
        pa = a + rng.uniform(-eps, eps, (n, n))
        pb = b + rng.uniform(-eps, eps, (n, n))
        assert ia.contains(pa) and ib.contains(pb)
        assert encloses(prod, exact_product(pa, pb))


def test_matmul_exact_small_integers():
    a = IMatrix.from_point(np.array([[1.0, 2.0], [3.0, 4.0]]))
    prod = a @ a
    got = prod.get(0, 0)
    assert got.lo <= 7.0 <= got.hi
    assert got.width() < 1e-13


def test_op_norm2_bound_identity_and_scaling():
    eye = IMatrix.identity(5)
    assert op_norm2_bound(eye).hi >= 1.0
    assert op_norm2_bound(eye).hi < 1.0 + 1e-10
    two = IMatrix.from_point(2.0 * np.eye(5))
    assert op_norm2_bound(two).hi >= 2.0


def test_op_norm2_bound_dominates_svd():
    rng = np.random.default_rng(7)
    for n in (3, 10, 30):
        a = rng.standard_normal((n, n + 3))
        bound = op_norm2_bound(IMatrix.from_point(a)).hi
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert bound >= top
        assert bound <= 4.0 * top  # sanity: not absurdly loose


def test_verified_inverse_diagonal():
    a = IMatrix.from_point(np.diag([2.0, 4.0]))
    inv, defect = verified_inverse(a)
    assert defect.hi < 1e-14
    assert inv.get(0, 0).contains(0.5)
    assert inv.get(1, 1).contains(0.25)


def test_verified_inverse_random_well_conditioned():
    rng = np.random.default_rng(42)
    # orthogonal times modest diagonal keeps the condition number far
    # below 1e3, so the defect stays tiny
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    a_pt = q @ np.diag(rng.uniform(0.5, 5.0, 20)) @ q.T
    assert np.linalg.cond(a_pt) < 1e3
    a = IMatrix.from_point(a_pt)
    inv, defect = verified_inverse(a)
    assert defect.hi < 1e-10
    assert inv.contains(np.linalg.inv(a_pt))


def test_verified_inverse_singular_rejected():
    a = IMatrix.from_point(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularityUnverified):
        verified_inverse(a)


def test_defect_bounds_point_probes():
    rng = np.random.default_rng(11)
    a_pt = rng.standard_normal((12, 12)) + 4.0 * np.eye(12)
    a = IMatrix.from_point(a_pt)
    inv, defect = verified_inverse(a)
    r_mid = inv.mid()
    resid = np.eye(12) - r_mid @ a_pt
    assert np.abs(resid).sum(axis=1).max() <= defect.hi + 1e-12


def test_diag_and_submatrix():
    d = IMatrix.identity(4).scale_rows(IArray([0.0, 1.0, 2.0, 3.0], [0.5, 1.5, 2.5, 3.5]))
    assert d.get(2, 2) == Interval(2.0, 2.5)
    assert d.get(0, 1) == Interval(0.0)
    a = d + IMatrix.from_point(np.triu(np.ones((4, 4)), 1))
    assert a.T.get(3, 0).contains(1.0) and a.T.get(0, 3).contains(0.0)


@pytest.mark.parametrize("lo, hi", [
    ([[math.nan, 0.0]], [[1.0, 0.0]]),
    ([[0.0, 0.0]], [[1.0, math.nan]]),
    ([[math.nan, 0.0]], [[1.0, math.nan]]),
    ([[2.0, 0.0]], [[1.0, 0.0]]),
])
def test_invalid_bounds_rejected(lo, hi):
    # NaN bounds are refused, as Interval and IArray refuse them
    with pytest.raises(DimensionMismatch):
        IMatrix(lo, hi)


# -- row scaling ----------------------------------------------------------

_end = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 5e-324]),
                 st.floats(-1e3, 1e3))
_entry = st.one_of(st.just(Interval(0.0)), _end.map(Interval),
                   st.tuples(_end, _end).map(lambda p: Interval(min(p), max(p))))
_multiplier = st.one_of(
    st.tuples(st.floats(-1e3, -1e-3), st.floats(-1e3, -1e-3)).map(   # negative
        lambda p: Interval(min(p), max(p))),
    st.tuples(st.floats(-1e3, 0.0), st.floats(0.0, 1e3)).map(        # contains 0
        lambda p: Interval(*p)),
    _end.map(Interval))                                             # point


@given(st.integers(0, 5), st.integers(0, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_scale_rows_encloses_exact_products_and_keeps_zeros(m, n, data):
    s = data.draw(st.lists(_multiplier, min_size=m, max_size=m))
    x = data.draw(st.lists(_entry, min_size=m * n, max_size=m * n))
    a = IMatrix(np.array([e.lo for e in x]).reshape(m, n),
                np.array([e.hi for e in x]).reshape(m, n))
    got = a.scale_rows(IArray([v.lo for v in s], [v.hi for v in s]))
    assert got.shape == (m, n)
    # the bits of the IArray product of each row with its multiplier
    ends = [np.array(ends, dtype=float).reshape(m, 1).repeat(n, axis=1)
            for ends in ([v.lo for v in s], [v.hi for v in s])]
    ref = IArray(*ends) * IArray(a.lo, a.hi)
    assert got.lo.tobytes() == ref.lo.tobytes() and got.hi.tobytes() == ref.hi.tobytes()
    for i in range(m):
        for j in range(n):
            lo, hi = got.lo[i, j], got.hi[i, j]
            cands = [Fraction(p) * Fraction(q) for p in (s[i].lo, s[i].hi)
                     for q in (a.lo[i, j], a.hi[i, j])]
            assert Fraction(lo) <= min(cands) and max(cands) <= Fraction(hi)
            if a.lo[i, j] == a.hi[i, j] == 0.0:
                # an exact zero stays 0.0, not a subnormal stepped off it
                assert lo == hi == 0.0


def test_scale_rows_refuses_a_wrong_length():
    with pytest.raises(DimensionMismatch):
        IMatrix.identity(3).scale_rows(IArray([1.0, 1.0]))
