import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speccert.errors import DimensionMismatch, GridMismatch, InvalidParameter, UnboundedOperand
from speccert.fourier import (
    FourierSeq,
    Grid,
    conv,
    index_list,
    seq_l1,
)
from speccert.interval import Interval

from oracles import sample_gamma_dagger

GRID1 = Grid(1, 10.0)
GRID2 = Grid(2, 6.0)


def _rand_seq(rng, grid, sector, S):
    axes_signed = sector == "full"
    side = 2 * S + 1 if axes_signed else S + 1
    vals = rng.standard_normal((side,) * grid.m)
    if not axes_signed and "s" in sector:
        # odd axes must vanish at index 0
        for ax, kind in enumerate(sector):
            if kind == "s":
                sl = [slice(None)] * grid.m
                sl[ax] = 0
                vals[tuple(sl)] = 0.0
    return FourierSeq.from_point(grid, sector, vals)


# -- convolution vs pointwise-product oracle ------------------------------

@pytest.mark.parametrize("sa,sb", [("c", "c"), ("c", "s"), ("s", "s"),
                                   ("full", "full"), ("full", "c")])
def test_conv_matches_function_product_1d(sa, sb):
    rng = np.random.default_rng(7)
    u = _rand_seq(rng, GRID1, sa, 4)
    v = _rand_seq(rng, GRID1, sb, 3)
    w = conv(u, v)
    assert w.S == u.S + v.S
    x = np.linspace(-9.5, 9.5, 41)
    lhs = sample_gamma_dagger(w, x)
    rhs = sample_gamma_dagger(u, x) * sample_gamma_dagger(v, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("sa,sb,expect", [
    ("cc", "cc", "cc"), ("cc", "ss", "ss"), ("ss", "ss", "cc"),
    ("cs", "sc", "ss"), ("full", "full", "full")])
def test_conv_matches_function_product_2d(sa, sb, expect):
    rng = np.random.default_rng(11)
    u = _rand_seq(rng, GRID2, sa, 3)
    v = _rand_seq(rng, GRID2, sb, 2)
    w = conv(u, v)
    assert w.sector == expect
    xs = np.linspace(-5.5, 5.5, 9)
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    lhs = sample_gamma_dagger(w, pts)
    rhs = sample_gamma_dagger(u, pts) * sample_gamma_dagger(v, pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_conv_full_with_odd_sector_rejected():
    rng = np.random.default_rng(3)
    u = _rand_seq(rng, GRID1, "full", 2)
    v = _rand_seq(rng, GRID1, "s", 2)
    with pytest.raises(GridMismatch):
        conv(u, v)


def test_delta0_is_convolution_identity():
    rng = np.random.default_rng(5)
    u = _rand_seq(rng, GRID1, "c", 4)
    w = conv(FourierSeq.from_point(GRID1, "c", [1.0]), u)
    assert w.S == u.S
    assert np.max(np.abs(w.mid() - u.mid())) < 1e-14
    assert np.all(w.lo <= u.lo + 1e-14) and np.all(w.hi >= u.hi - 1e-14)


@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
       st.lists(st.floats(-5, 5), min_size=3, max_size=3))
@settings(max_examples=100)
def test_conv_contains_point_convolution(avals, bvals):
    u = FourierSeq.from_point(GRID1, "c", avals)
    v = FourierSeq.from_point(GRID1, "c", bvals)
    w = conv(u, v)
    ae = np.concatenate([avals[:0:-1], avals])
    be = np.concatenate([bvals[:0:-1], bvals])
    full = np.convolve(ae, be)
    S = w.S
    for n in range(S + 1):
        exact = full[len(full) // 2 + n]
        assert w.lo[n] <= exact + 1e-9 * (1 + abs(exact))
        assert w.hi[n] >= exact - 1e-9 * (1 + abs(exact))


# -- norms ----------------------------------------------------------------

def test_seq_norms_explicit_values():
    u = FourierSeq.from_point(GRID1, "c", [1.0, -2.0, 0.5])
    l1 = seq_l1(u)
    assert l1.contains(1.0 + 2 * 2.0 + 2 * 0.5)
    assert l1.width() < 1e-12
    # the l1 norm bounds the sup norm of the represented function
    x = np.linspace(-10, 10, 2001)
    samples = np.abs(sample_gamma_dagger(u, x))
    assert l1.hi >= samples.max() - 1e-12


def test_seq_norms_2d_multiplicity():
    u = FourierSeq.zeros(GRID2, "cc", 2)
    u.lo[1, 2] = u.hi[1, 2] = 3.0
    # orbit of (1, 2) under the per-axis reflections has 4 members
    assert seq_l1(u).contains(12.0)


# -- structure --------------------------------------------------------

def test_index_list_order():
    assert index_list(GRID1, "c", 2) == [(0,), (1,), (2,)]
    assert index_list(GRID1, "full", 1) == [(-1,), (0,), (1,)]
    lst = index_list(GRID2, "cc", 1)
    assert lst == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_scaled_and_add_containment():
    u = FourierSeq.from_point(GRID1, "c", [1.0, 2.0, 3.0])
    s = u.scaled(Interval(-2.0, -2.0))
    assert s.lo[2] <= -6.0 <= s.hi[2]
    v = u + u
    assert v.lo[1] <= 4.0 <= v.hi[1]
    d = u + u.scaled(Interval(-1.0))
    assert d.lo[0] <= 0.0 <= d.hi[0]


@pytest.mark.parametrize("grid,sector", [(GRID1, "c"), (GRID1, "s"), (GRID2, "cs")])
def test_scaled_keeps_exact_zeros(grid, sector):
    # a zero coefficient times any interval is exactly [0, 0]: it must not
    # become a subnormal, which an odd sector's zero row would refuse
    vals = _rand_seq(np.random.default_rng(13), grid, sector, 3).lo
    vals.flat[-1] = 0.0
    u = FourierSeq.from_point(grid, sector, vals)
    zero = vals == 0.0
    for s in (Interval(-3.0, 0.5), Interval(1.5, 2.5)):
        v = u.scaled(s)
        assert v.sector == sector
        assert not v.lo[zero].any() and not v.hi[zero].any()
        for a, lo, hi in zip(vals.ravel(), v.lo.ravel(), v.hi.ravel()):
            ends = (Fraction(a) * Fraction(s.lo), Fraction(a) * Fraction(s.hi))
            assert Fraction(lo) <= min(ends) and max(ends) <= Fraction(hi)


def test_sum_and_scaling_refuse_an_infinite_coefficient():
    # the IArray error of an unbounded coefficient is raised, not left as 0
    u = FourierSeq.from_point(GRID1, "c", [math.inf, 1.0])
    with pytest.raises(UnboundedOperand):
        u.scaled(Interval(2.0))
    with pytest.raises(UnboundedOperand):
        u + u


def test_padded_preserves_values():
    u = FourierSeq.from_point(GRID1, "c", [1.0, 2.0])
    p = u.padded(4)
    assert p.S == 4
    assert p.lo[0] == 1.0 and p.hi[1] == 2.0 and p.lo[3] == 0.0


def test_malformed_sequences_rejected():
    with pytest.raises(DimensionMismatch):
        FourierSeq(GRID1, "c", np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    with pytest.raises(InvalidParameter):
        FourierSeq.from_point(GRID1, "s", [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        FourierSeq.from_point(GRID1, "full", [1.0, 2.0])  # even side
    for sector in ("c", "full"):
        with pytest.raises(DimensionMismatch, match="empty"):
            FourierSeq.from_point(GRID1, sector, [])
    # a NaN bound is refused, as IMatrix refuses it
    for lo, hi in (([math.nan, 0.0], [1.0, 0.0]), ([0.0, 0.0], [1.0, math.nan])):
        with pytest.raises(DimensionMismatch, match="NaN"):
            FourierSeq(GRID1, "c", np.array(lo), np.array(hi))


@pytest.mark.filterwarnings("error")
def test_overflowing_convolution_raises_unbounded():
    # 1e160^2 passes the double range: the enclosure would hold inf - inf,
    # and numpy may not warn about it
    u = FourierSeq.from_point(GRID1, "c", [1e160, 1e160, 1e160])
    with pytest.raises(UnboundedOperand, match="overflows"):
        conv(u, u)


def test_require_even_compares_signed_storage_with_its_point_reflection():
    # real coefficients against e^{i pi n.x/d} are a real function only when
    # u[-n] = u[n]; in 2D that is the point reflection, not one axis flip
    grid2 = Grid(2, 5.0)
    v = np.zeros((5, 5))
    v[3, 4] = v[1, 0] = 0.5           # u[(1, 2)] = u[(-1, -2)]
    u = FourierSeq.from_point(grid2, "full", v)
    assert u.require_even() is u
    v[3, 0] = 0.25                    # u[(1, -2)], with u[(-1, 2)] = 0
    with pytest.raises(InvalidParameter, match=r"u\[\(-1, 2\)\] = \[0\.0, 0\.0\] but "
                                               r"u\[\(1, -2\)\] = \[0\.25, 0\.25\]"):
        FourierSeq.from_point(grid2, "full", v).require_even()
    # the bounds are compared exactly, each end on its own
    lo = np.array([0.5, 1.0, 0.5])
    with pytest.raises(InvalidParameter, match=r"u\[\(-1,\)\]"):
        FourierSeq(GRID1, "full", lo, lo + np.array([0.0, 0.0, 2.0 ** -50])).require_even()
    # sector storage is even by construction, whatever its values
    c = FourierSeq.from_point(grid2, "cc", v)
    assert c.require_even() is c
