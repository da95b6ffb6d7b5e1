import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speccert.errors import SingularityUnverified
from speccert.imatrix import IMatrix, op_norm2_bound, verified_inverse
from speccert.interval import ComplexBox, Interval


def random_complex(rng, n, m):
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


@given(st.integers(0, 10_000), st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_matmul_contains_point_product(seed, n):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, n, n)
    b = random_complex(rng, n, n)
    prod = IMatrix.from_point(a) @ IMatrix.from_point(b)
    assert prod.contains(a @ b)


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_matmul_contains_interval_samples(seed, n):
    # inflate the inputs, pick contained points, check the product
    rng = np.random.default_rng(seed)
    a = random_complex(rng, n, n)
    b = random_complex(rng, n, n)
    eps = 1e-8
    ia = IMatrix.from_point(a).widened(eps)
    ib = IMatrix.from_point(b).widened(eps)
    prod = ia @ ib
    for _ in range(3):
        pa = a + (rng.uniform(-eps, eps, (n, n))
                  + 1j * rng.uniform(-eps, eps, (n, n)))
        pb = b + (rng.uniform(-eps, eps, (n, n))
                  + 1j * rng.uniform(-eps, eps, (n, n)))
        assert prod.contains(pa @ pb)


def test_matmul_exact_small_integers():
    a = IMatrix.from_point(np.array([[1.0, 2.0], [3.0, 4.0]]))
    prod = a @ a
    got = prod.get(0, 0)
    assert got.re.lo <= 7.0 <= got.re.hi
    assert got.re.width() < 1e-13


def test_op_norm2_bound_identity_and_scaling():
    eye = IMatrix.identity(5)
    assert op_norm2_bound(eye).hi >= 1.0
    assert op_norm2_bound(eye).hi < 1.0 + 1e-10
    two = IMatrix.from_point(2.0 * np.eye(5))
    assert op_norm2_bound(two).hi >= 2.0


def test_op_norm2_bound_dominates_svd():
    rng = np.random.default_rng(7)
    for n in (3, 10, 30):
        a = random_complex(rng, n, n)
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


def test_verified_inverse_contains_true_inverse_complex():
    rng = np.random.default_rng(3)
    a_pt = random_complex(rng, 15, 15) + 6.0 * np.eye(15)
    inv, defect = verified_inverse(IMatrix.from_point(a_pt))
    assert defect.hi < 1.0
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
    boxes = [ComplexBox(Interval(float(k))) for k in range(4)]
    d = IMatrix.diag(boxes)
    assert d.get(2, 2).contains(2.0)
    assert d.get(0, 1).contains(0.0)


def test_hermitian_conjugate_transpose():
    a = IMatrix.from_point(np.array([[1.0 + 2.0j, 3.0 - 1.0j],
                                     [0.5j, 4.0]]))
    h = a.hermitian()
    assert h.get(0, 1).contains(-0.5j)
    assert h.get(1, 0).contains(3.0 + 1.0j)
    assert h.get(0, 0).contains(1.0 - 2.0j)
