"""Exact zeros and point operands in the interval layer.

The products in `imatrix`, the convolutions in `fourier` and the blocks of
`finite.conv_block` keep exact zeros exact instead of rounding them out to
subnormals.  These tests check the fast paths against the plain formulas
they replace, which are kept here as references, and against exact
rational arithmetic.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speccert import finite
from speccert.finite import conv_block
from speccert.fourier import (
    FourierSeq,
    Grid,
    _axis_types,
    _conv_real,
    _convolve_direct,
    index_list,
)
from speccert.imatrix import IMatrix
from scalar_paths import conv_block_reference, shell_indices

_U = 2.0 ** -53
_TINY = 5e-308
_INF = math.inf


# -- reference formulas: every bound stepped outward, zeros included --------

def _ref_bump(x, steps, to):
    for _ in range(steps):
        x = np.nextafter(x, to)
    return x


def _ref_mm_real(al, ah, bl, bh):
    am = al + 0.5 * (ah - al)
    bm = bl + 0.5 * (bh - bl)
    ar = _ref_bump(np.maximum(ah - am, am - al), 2, _INF)
    br = _ref_bump(np.maximum(bh - bm, bm - bl), 2, _INF)
    aa = np.abs(am)
    ba = np.abs(bm)
    gamma = (al.shape[1] + 4) * _U
    cm = am @ bm
    m1 = aa @ ba
    m2 = ar @ (ba + br) + aa @ br
    rad = (m2 + gamma * m1) * (1.0 + 8.0 * gamma) + 5.0 * _TINY
    return _ref_bump(cm - rad, 2, -_INF), _ref_bump(cm + rad, 2, _INF)


def ref_conv_real(al, ah, bl, bh):
    """The convolution enclosure before it shared the matmul fast paths."""
    am = al + 0.5 * (ah - al)
    bm = bl + 0.5 * (bh - bl)
    ar = _ref_bump(np.maximum(ah - am, am - al), 2, _INF)
    br = _ref_bump(np.maximum(bh - bm, bm - bl), 2, _INF)
    aa = np.abs(am)
    ba = np.abs(bm)
    gamma = (min(am.size, bm.size) + 4) * _U
    cm = _convolve_direct(am, bm)
    m1 = _convolve_direct(aa, ba)
    m2 = _convolve_direct(ar, ba + br) + _convolve_direct(aa, br)
    rad = (m2 + gamma * m1) * (1.0 + 8.0 * gamma) + 5.0 * _TINY
    return _ref_bump(cm - rad, 2, -_INF), _ref_bump(cm + rad, 2, _INF)


def orbit_mult(sector_axes, n) -> int:
    return 2 ** sum(kind != "signed" and c != 0 for kind, c in zip(sector_axes, n))


def ref_conv_block(w, sector, rows, cols):
    grid = w.grid
    axes = _axis_types(grid.m, sector)
    wlo, whi = w.expand_signed()
    sw = w.S
    rows_a = np.asarray(rows, dtype=np.int64).reshape(len(rows), grid.m)
    cols_a = np.asarray(cols, dtype=np.int64).reshape(len(cols), grid.m)
    sym_axes = [ax for ax, kind in enumerate(axes) if kind != "signed"]
    acc_lo = np.zeros((len(rows), len(cols)))
    acc_hi = np.zeros((len(rows), len(cols)))
    for flips in itertools.product(*([(1, -1)] * len(sym_axes))):
        sig = np.ones(grid.m, dtype=np.int64)
        chi = 1
        for ax, fl in zip(sym_axes, flips):
            sig[ax] = fl
            if fl == -1 and axes[ax] == "s":
                chi = -chi
        diff = rows_a[:, None, :] - (cols_a * sig)[None, :, :]
        redundant = np.zeros(len(cols), dtype=bool)
        for ax in range(grid.m):
            if sig[ax] == -1:
                redundant |= cols_a[:, ax] == 0
        inside = np.all(np.abs(diff) <= sw, axis=2)
        idx = np.clip(diff + sw, 0, 2 * sw)
        glo = wlo[tuple(idx[:, :, ax] for ax in range(grid.m))]
        ghi = whi[tuple(idx[:, :, ax] for ax in range(grid.m))]
        mask = inside & ~redundant[None, :]
        glo = np.where(mask, glo, 0.0)
        ghi = np.where(mask, ghi, 0.0)
        if chi == -1:
            glo, ghi = -ghi, -glo
        acc_lo = np.nextafter(acc_lo + glo, -_INF)
        acc_hi = np.nextafter(acc_hi + ghi, _INF)
    mr = np.array([orbit_mult(axes, n) for n in rows], dtype=np.float64)
    mc = np.array([orbit_mult(axes, k) for k in cols], dtype=np.float64)
    ratio = np.sqrt(mr[:, None] / mc[None, :])
    f_lo = _ref_bump(ratio, 2, -_INF)
    f_hi = _ref_bump(ratio, 2, _INF)
    cands = np.stack([acc_lo * f_lo, acc_lo * f_hi, acc_hi * f_lo, acc_hi * f_hi])
    return (np.nextafter(cands.min(axis=0), -_INF),
            np.nextafter(cands.max(axis=0), _INF))


def reached(sector, m, S, rows, cols):
    """Entries some kernel coefficient reaches, by direct enumeration."""
    axes = _axis_types(m, sector)
    sym = [ax for ax, kind in enumerate(axes) if kind != "signed"]
    out = np.zeros((len(rows), len(cols)), dtype=bool)
    for i, n in enumerate(rows):
        for j, k in enumerate(cols):
            for flips in itertools.product(*([(1, -1)] * len(sym))):
                sig = [1] * m
                for ax, fl in zip(sym, flips):
                    sig[ax] = fl
                if any(s == -1 and k[ax] == 0 for ax, s in enumerate(sig)):
                    continue
                if all(abs(n[ax] - sig[ax] * k[ax]) <= S for ax in range(m)):
                    out[i, j] = True
    return out


# -- random operands ---------------------------------------------------------

KINDS = ("zero", "point", "interval", "widened")
SCALES = (1.0, 1e-300, 1e-150)


def draw_imatrix(rng, shape, kind, scale):
    """An all-zero, point or interval matrix with an exact-zero block, or a
    widened point matrix, where no radius is 0."""
    if kind == "zero":
        return IMatrix.from_point(np.zeros(shape))
    mid = rng.standard_normal(shape) * scale
    if kind == "widened":
        return IMatrix.from_point(mid).widened(1e-3 * scale)
    if kind == "point":
        rad = np.zeros(shape)
    else:
        # mixed zero and nonzero radii
        rad = rng.uniform(0.0, 1e-3, shape) * scale * (rng.random(shape) < 0.6)
    lo, hi = mid - rad, mid + rad
    # an exact-zero block
    r0, c0 = rng.integers(0, shape[0] + 1), rng.integers(0, shape[1] + 1)
    lo[:r0, :c0] = 0.0
    hi[:r0, :c0] = 0.0
    return IMatrix(lo, hi)


def pick_exact_array(rng, lo, hi):
    """A rational point array of any shape inside [lo, hi]."""
    t = rng.random(lo.shape)
    out = np.empty(lo.shape, dtype=object)
    for i in np.ndindex(lo.shape):
        out[i] = Fraction(lo[i]) + Fraction(t[i]) * (Fraction(hi[i]) - Fraction(lo[i]))
    return out


def exact_conv(x, y):
    out = np.zeros(tuple(np.add(x.shape, y.shape) - 1), dtype=object)
    for i in np.ndindex(x.shape):
        for j in np.ndindex(y.shape):
            out[tuple(np.add(i, j))] += x[i] * y[j]
    return out


def pick_exact(rng, lo, hi):
    """A rational point matrix inside [lo, hi], as nested lists."""
    t = rng.random(lo.shape)
    return [[Fraction(l) + Fraction(s) * (Fraction(h) - Fraction(l))
             for l, h, s in zip(rl, rh, rt)]
            for rl, rh, rt in zip(lo.tolist(), hi.tolist(), t.tolist())]


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 5), st.sampled_from(KINDS), st.sampled_from(KINDS),
       st.sampled_from(SCALES), st.sampled_from(SCALES))
@settings(max_examples=120, deadline=None)
def test_matmul_fast_path_encloses_and_is_no_wider(seed, m, k, n, kind_a, kind_b,
                                                   scale_a, scale_b):
    rng = np.random.default_rng(seed)
    a = draw_imatrix(rng, (m, k), kind_a, scale_a)
    b = draw_imatrix(rng, (k, n), kind_b, scale_b)
    prod = a @ b

    want_lo, want_hi = _ref_mm_real(a.lo, a.hi, b.lo, b.hi)
    if kind_a == kind_b == "widened":
        # no radius is 0 and no operand is zero: the plain formula, bit for bit
        assert prod.lo.tobytes() == want_lo.tobytes()
        assert prod.hi.tobytes() == want_hi.tobytes()
    assert np.all(prod.lo >= want_lo) and np.all(prod.hi <= want_hi)

    for _ in range(2):
        pa, pb = pick_exact(rng, a.lo, a.hi), pick_exact(rng, b.lo, b.hi)
        for i in range(m):
            for j in range(n):
                exact = sum(pa[i][q] * pb[q][j] for q in range(k))
                assert float(prod.lo[i, j]) <= exact <= float(prod.hi[i, j])

    # the same enclosure over a convolution: 2D of the matrices, and 1D of
    # a row of a against a column of b
    for al, ah, bl, bh in ((a.lo, a.hi, b.lo, b.hi),
                           (a.lo[0], a.hi[0], b.lo[:, 0], b.hi[:, 0])):
        lo, hi = _conv_real(al, ah, bl, bh)
        want_lo, want_hi = ref_conv_real(al, ah, bl, bh)
        assert np.all(lo >= want_lo) and np.all(hi <= want_hi)
        exact = exact_conv(pick_exact_array(rng, al, ah),
                           pick_exact_array(rng, bl, bh))
        for i in np.ndindex(exact.shape):
            assert float(lo[i]) <= exact[i] <= float(hi[i])


def draw_kernel(rng, grid, w_sector, S, scale):
    """A kernel with mixed zero and nonzero radii and some exact-zero entries."""
    side = 2 * S + 1 if w_sector == "full" else S + 1
    mid = rng.standard_normal((side,) * grid.m) * scale
    rad = rng.uniform(0.0, 1e-6, mid.shape) * scale * (rng.random(mid.shape) < 0.5)
    mid[rng.random(mid.shape) < 0.3] = 0.0
    return FourierSeq(grid, w_sector, mid - rad, mid + rad)


CONV_CASES = [(1, "c", "c"), (1, "c", "s"), (1, "full", "full"), (1, "c", "full"),
              (2, "cc", "cc"), (2, "cc", "cs"), (2, "cc", "ss"), (2, "cc", "full")]


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(CONV_CASES),
       st.integers(0, 3), st.integers(0, 3), st.sampled_from(SCALES))
@settings(max_examples=60, deadline=None)
def test_conv_block_matches_reference(seed, case, S, inner, scale):
    m, w_sector, sector = case
    rng = np.random.default_rng(seed)
    grid = Grid(m, 7.0)
    w = draw_kernel(rng, grid, w_sector, S, scale)
    rows = index_list(grid, sector, inner)
    cols = rows + shell_indices(grid, sector, inner, inner + 2 * S + 2)

    got = conv_block(w, sector, rows, cols)
    want_lo, want_hi = ref_conv_block(w, sector, rows, cols)
    hit = reached(sector, m, S, rows, cols)
    assert not np.all(hit)
    assert np.array_equal(got.lo[hit], want_lo[hit])
    assert np.array_equal(got.hi[hit], want_hi[hit])
    assert np.all(got.lo[~hit] == 0.0) and np.all(got.hi[~hit] == 0.0)


def _assert_matches_reference(w, sector, rows, cols):
    got = conv_block(w, sector, rows, cols)
    assert got.lo.shape == got.hi.shape == (len(rows), len(cols))
    want_lo, want_hi = ref_conv_block(w, sector, rows, cols)
    hit = reached(sector, w.grid.m, w.S, rows, cols)
    assert np.array_equal(got.lo[hit], want_lo[hit])
    assert np.array_equal(got.hi[hit], want_hi[hit])
    assert np.all(got.lo[~hit] == 0.0) and np.all(got.hi[~hit] == 0.0)


LAYOUTS = ("gershgorin", "disjoint", "no rows", "no columns")


@pytest.mark.parametrize("case", CONV_CASES)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3), st.integers(0, 2),
       st.sampled_from(LAYOUTS), st.booleans())
@settings(max_examples=25, deadline=None)
def test_conv_block_layouts_match_reference(case, seed, S, inner, layout, shuffle):
    # layouts a column position table can get wrong: shell rows against a
    # wider shell of columns, rows that are not columns, empty lists, and
    # shuffled, thinned column lists whose box has holes
    m, w_sector, sector = case
    rng = np.random.default_rng(seed)
    grid = Grid(m, 7.0)
    w = draw_kernel(rng, grid, w_sector, S, 1.0)
    rows = shell_indices(grid, sector, inner, inner + S + 1)
    cols = shell_indices(grid, sector, inner, inner + 2 * S + 2)
    if layout == "disjoint":
        rows = index_list(grid, sector, inner)
    elif layout == "no rows":
        rows = []
    elif layout == "no columns":
        cols = []
    if shuffle:
        rows = [rows[i] for i in rng.permutation(len(rows))]
        keep = rng.permutation(len(cols))[:max(1, int(0.7 * len(cols)))]
        cols = [cols[i] for i in keep]
    _assert_matches_reference(w, sector, rows, cols)


@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([c for c in CONV_CASES if c[2] in ("c", "full", "cc")]),
       st.integers(0, 3), st.integers(0, 4), st.sampled_from(SCALES),
       st.data())
@settings(max_examples=60, deadline=None)
def test_conv_block_row_slices_are_bit_identical(seed, case, S, outer, scale, data):
    # gershgorin_disks streams the mid rows in blocks on this invariant: a
    # block of rows is bit for bit the same rows of the whole block
    m, w_sector, sector = case
    rng = np.random.default_rng(seed)
    grid = Grid(m, 7.0)
    w = draw_kernel(rng, grid, w_sector, S, scale)
    rows = index_list(grid, sector, outer)
    cols = index_list(grid, sector, outer + S + 1)
    a = data.draw(st.integers(0, len(rows) - 1))
    b = data.draw(st.integers(a + 1, len(rows)))
    whole = conv_block(w, sector, rows, cols)
    part = conv_block(w, sector, rows[a:b], cols)
    for got, want in ((part.lo, whole.lo), (part.hi, whole.hi)):
        assert got.tobytes() == want[a:b].tobytes()


# -- the one-pass conv_block against the per-flip reference ------------------

BASES = [(1, "c"), (1, "s"), (1, "full"),
         (2, "cc"), (2, "cs"), (2, "sc"), (2, "ss"), (2, "full")]
# exact zeros of both signs next to normal, tiny and huge coefficients
KERNEL_VALUES = (0.0, -0.0, 1.0, -0.75, 0.1, 3e-300, -2.5e250)


@st.composite
def conv_cases(draw):
    """(w, sector, rows, cols): a kernel with -0.0 and exact-zero ends, and
    shuffled, thinned or empty row and column lists drawn from a cube that
    holds index 0 on every axis, odd ones included."""
    m, sector = draw(st.sampled_from(BASES))
    grid, S = Grid(m, 7.0), draw(st.integers(0, 3))
    w_sector = draw(st.sampled_from(["full", "c" * m])) if sector == "full" else "c" * m
    side = 2 * S + 1 if w_sector == "full" else S + 1
    coeffs = st.lists(st.sampled_from(KERNEL_VALUES), min_size=side ** m, max_size=side ** m)
    lo = np.array(draw(coeffs)).reshape((side,) * m)
    rad = np.array(draw(st.lists(st.sampled_from((0.0, 0.0, 1e-9, 2.0)),
                                 min_size=lo.size, max_size=lo.size))).reshape(lo.shape)
    w = FourierSeq(grid, w_sector, lo, np.where(rad == 0.0, lo, lo + rad))
    cube = index_list(grid, sector, draw(st.integers(0, S + 2)))
    rows, cols = (draw(st.permutations(cube)) for _ in range(2))
    rows = rows[:draw(st.integers(0, len(rows)))]
    cols = cols[:draw(st.integers(0, len(cols)))]
    return w, sector, rows, cols


@given(conv_cases())
@settings(max_examples=300, deadline=None)
def test_conv_block_matches_the_per_flip_reference(case):
    got = conv_block(*case)
    want = conv_block_reference(*case)
    assert got.lo.tobytes() == want.lo.tobytes()
    assert got.hi.tobytes() == want.hi.tobytes()


@given(conv_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_conv_block_column_slices_are_bit_identical(case, data):
    # an entry depends on its row and column alone: a slice of the columns
    # is bit for bit the same columns of the whole block
    w, sector, rows, cols = case
    a = data.draw(st.integers(0, len(cols)))
    b = data.draw(st.integers(a, len(cols)))
    whole = conv_block(w, sector, rows, cols)
    part = conv_block(w, sector, rows, cols[a:b])
    for got, want in ((part.lo, whole.lo), (part.hi, whole.hi)):
        assert got.tobytes() == want[:, a:b].tobytes()


@given(conv_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_one_prepared_reach_serves_any_row_blocks(case, data):
    # gershgorin_disks builds one _StateTable for all its mid-row blocks:
    # blocks in order, repeated and interleaved are each the reference's
    # rows, so no gather leaves state behind for the next
    w, sector, rows, cols = case
    want = conv_block_reference(w, sector, rows, cols)
    m = w.grid.m
    rows_a, cols_a = (np.asarray(x, dtype=np.int64).reshape(len(x), m) for x in (rows, cols))
    top = max(np.abs(rows_a).max(initial=0), np.abs(cols_a).max(initial=0))
    table = finite._StateTable(w, sector, int(top))
    edges = [0, *sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3))), len(rows)]
    spans = list(zip(edges, edges[1:]))
    for a, b in spans + data.draw(st.lists(st.sampled_from(spans), max_size=5)):
        got_lo, got_hi = table.gather(rows_a[a:b], cols_a)
        assert got_lo.tobytes() == want.lo[a:b].tobytes()
        assert got_hi.tobytes() == want.hi[a:b].tobytes()


@pytest.mark.parametrize("m, sector, w_sector", [(1, "c", "c"), (1, "full", "full"),
                                                 (2, "cc", "cc"), (2, "sc", "cc")])
def test_unreached_huge_coefficient_raises_no_warning(m, sector, w_sector):
    # the table of untouched entries covers every kernel position: stepping
    # and scaling [-MAX, MAX] overflows there, though no row reaches it
    grid, S, big = Grid(m, 7.0), 3, 1.7976931348623157e308
    lo = np.full((2 * S + 1 if w_sector == "full" else S + 1,) * m, 0.25)
    hi = lo.copy()
    lo[(-1,) * m], hi[(-1,) * m] = -big, big
    w = FourierSeq(grid, w_sector, lo, hi)
    rows = cols = index_list(grid, sector, 1)    # |n - sigma k|_inf <= 2 < S
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = conv_block(w, sector, rows, cols)
    want = conv_block_reference(w, sector, rows, cols)
    assert got.lo.tobytes() == want.lo.tobytes() and got.hi.tobytes() == want.hi.tobytes()


# -- no subnormal bounds on the 1D pulse -------------------------------------

def _subnormal_count(x):
    return int(np.count_nonzero((x != 0.0) & (np.abs(x) < np.finfo(float).tiny)))


def _assert_no_subnormal(name, mat):
    for part in (mat.lo, mat.hi):
        assert _subnormal_count(part) == 0, name


def test_no_subnormal_bounds_on_sh_toy(sh_toy):
    grid, w, N = sh_toy["grid"], sh_toy["w"], sh_toy["N"]
    pseudo = sh_toy["pseudo"]
    inner = index_list(grid, "c", N)
    ext = shell_indices(grid, "c", N, N + 2 * w.S)
    block = conv_block(w, "c", inner, ext)
    # far columns are out of the kernel's reach: exact zeros
    assert not block.lo[:, -1].any() and not block.hi[:, -1].any()
    r0m = IMatrix.from_point(np.linalg.inv(pseudo.P.mid()))
    for name, mat in (("conv_block", block), ("P", pseudo.P),
                      ("Pinv", pseudo.Pinv), ("off", pseudo.off),
                      ("D", (pseudo.Pinv @ sh_toy["jac"]) @ pseudo.P),
                      ("r0m @ p", r0m @ pseudo.P)):
        _assert_no_subnormal(name, mat)


def test_real_point_product_has_exact_zero_imaginary_part():
    # the matrix layer is real, so a product has no imaginary part to round
    # out; what is left to check is that its bounds stay normal numbers
    rng = np.random.default_rng(5)
    a = IMatrix.from_point(rng.standard_normal((9, 7)))
    b = IMatrix.from_point(rng.standard_normal((7, 4)))
    prod = a @ b
    p = a.mid() @ b.mid()
    assert np.all((prod.lo <= p) & (p <= prod.hi))
    _assert_no_subnormal("product", prod)
