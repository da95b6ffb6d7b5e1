"""The inner-to-shell coupling that gershgorin_disks derives by symmetry.

gershgorin_disks builds no block G = DG(inner <- mid).  For an even state
the operator is self-adjoint in the orthonormal sector basis, so G is the
exact transpose of H = DG(mid <- inner), and the homotopy stage reads
Pinv G as (H P)^T widened by delta_i s_j in entry (i, j)
(homotopy.shell_coupling).
On random even kernels in the c, cc and even full sectors:

(a) conv_block(rows, cols) and conv_block(cols, rows)^T both enclose the
    exact entries, Fractions compared by squares with no root;
(b) the derived coupling encloses the exact P^-1 G, with P^-1 from
    Fraction Gauss-Jordan and G in Q(sqrt 2), and meets the reference
    product Pinv conv_block(inner, mid) of scalar_paths in every entry;
(c) the inner radii stay within 1e-12 of the block's largest radius of
    the reference path's, and within 1e-12 relative of their own plus
    twice the row's pad delta_i sum_j s_j, which a tiny radius needs.

A call count guards the single reach, and the absence of any interval
product, of one gershgorin_disks call.
"""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import event, given, settings, strategies as st

from speccert import finite
from speccert.finite import (
    assemble_jacobian,
    build_pseudo_diag,
    conv_block,
    gershgorin_disks,
)
from speccert.fourier import FourierSeq, Grid, _axis_types, index_list
from speccert.homotopy import shell_coupling
from speccert.imatrix import IMatrix
from speccert.models import sh_model
from scalar_paths import inner_coupling_reference, inner_radii_reference, shell_indices
from test_exact_oracle import _below_root_times
from test_finite import _even_kernel_2d, _finite_stage_2d

EVEN_BASES = [(1, "c"), (2, "cc"), (1, "full"), (2, "full")]
# exact zeros of both signs next to normal and tiny coefficients
KERNEL_VALUES = (0.0, -0.0, 1.0, -0.75, 0.1, 0.3125, -2.5e-3, 3e-300)
# sqrt(r), r = m_n / m_k a power of two in [1/4, 4], as a + b sqrt(2)
SQRT_RATIO = {Fraction(1, 4): (Fraction(1, 2), 0), Fraction(1, 2): (0, Fraction(1, 2)),
              Fraction(1): (Fraction(1), 0), Fraction(2): (0, Fraction(1)),
              Fraction(4): (Fraction(2), 0)}


def _mirrored(a):
    """a made equal to its point reflection: a C-order tensor reversed on
    every axis is its flat array reversed."""
    flat = a.ravel().copy()
    flat[(flat.size + 1) // 2:] = flat[:flat.size // 2][::-1]
    return flat.reshape(a.shape)


@st.composite
def even_kernels(draw, m, sector, values, point):
    """An even kernel: cosine storage, or for a full basis also a mirrored
    signed tensor; with interval radii unless `point`."""
    grid, S = Grid(m, 7.0), draw(st.integers(1, 3))
    signed = sector == "full" and draw(st.booleans())
    side = 2 * S + 1 if signed else S + 1
    coeffs = st.lists(st.sampled_from(values), min_size=side ** m, max_size=side ** m)
    lo = np.array(draw(coeffs)).reshape((side,) * m)
    rad = np.zeros(lo.shape) if point else np.array(draw(st.lists(
        st.sampled_from((0.0, 0.0, 1e-9, 0.25)), min_size=lo.size, max_size=lo.size))
    ).reshape(lo.shape)
    if signed:
        lo, rad = _mirrored(lo), _mirrored(rad)
    return FourierSeq(grid, "full" if signed else "c" * m, lo, np.where(rad == 0.0, lo, lo + rad))


@st.composite
def block_cases(draw):
    """(w, sector, rows, cols): an even kernel and row and column lists
    drawn, shuffled and thinned, from one cube of the sector."""
    m, sector = draw(st.sampled_from(EVEN_BASES))
    w = draw(even_kernels(m, sector, KERNEL_VALUES, point=False))
    cube = index_list(w.grid, sector, draw(st.integers(0, w.S + 2)))
    rows, cols = (draw(st.permutations(cube)) for _ in range(2))
    return w, sector, rows[:draw(st.integers(0, len(rows)))], cols[:draw(st.integers(0, len(cols)))]


def _orbit(axes, n):
    return 2 ** sum(kind != "signed" and c != 0 for kind, c in zip(axes, n))


def _exact_entry(wlo, whi, axes, sw, n, k):
    """(lo, hi, r): entry (n, k) is sqrt(r) times a value in [lo, hi], the
    orbit sum of the kernel coefficients over the flips that reach k."""
    lo = hi = Fraction(0)
    for sig in itertools.product(*[(1,) if a == "signed" else (1, -1) for a in axes]):
        d = tuple(nc - s * kc for nc, s, kc in zip(n, sig, k))
        if max(map(abs, d)) > sw or any(s == -1 and kc == 0 for s, kc in zip(sig, k)):
            continue
        at = tuple(x + sw for x in d)
        lo, hi = lo + Fraction(float(wlo[at])), hi + Fraction(float(whi[at]))
    return lo, hi, Fraction(_orbit(axes, n), _orbit(axes, k))


@given(block_cases())
@settings(max_examples=150, deadline=None)
def test_both_block_orientations_enclose_the_exact_entries(case):
    # (a): G = H^T rests on conv_block(rows, cols) and conv_block(cols, rows)^T
    # enclosing the same exact numbers
    w, sector, rows, cols = case
    axes = _axis_types(w.grid.m, sector)
    wlo, whi = w.expand_signed()
    blocks = (conv_block(w, sector, rows, cols), conv_block(w, sector, cols, rows).T)
    for (i, n), (j, k) in itertools.product(enumerate(rows), enumerate(cols)):
        lo, hi, r = _exact_entry(wlo, whi, axes, w.S, n, k)
        for got in blocks:
            assert _below_root_times(Fraction(got.lo[i, j]), r, lo), (n, k)
            assert _below_root_times(-Fraction(got.hi[i, j]), r, -hi), (n, k)


@st.composite
def finite_stages(draw, max_inner):
    """(w, sector, N, pseudo, disks) for an even kernel and at most
    max_inner inner rows."""
    m, sector = draw(st.sampled_from(EVEN_BASES))
    side = 2 if sector == "full" else 1
    N = draw(st.integers(0, max(n for n in range(16) if (side * n + 1) ** m <= max_inner)))
    values = st.sampled_from((0.0, 0.0)) | st.floats(-0.5, 0.5, allow_subnormal=False)
    w = draw(even_kernels(m, sector, tuple(draw(st.lists(values, min_size=4, max_size=4))),
                          point=draw(st.booleans())))
    model = sh_model(draw(st.floats(0.2, 2.0)), draw(st.floats(-3.0, -0.5)), 1.0, m=m)
    a = assemble_jacobian(model, w, sector, N)
    pseudo = build_pseudo_diag(a, index_list(w.grid, sector, N), True)
    return w, sector, N, pseudo, gershgorin_disks(model, w, sector, N, pseudo, a)


def _exact_inverse(p):
    """P^-1 of a float matrix by Gauss-Jordan on Fractions."""
    n = len(p)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(p.tolist())]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _exact_coupling(w, sector, inner, mid, p):
    """P^-1 G for a point kernel, as (A, B) with P^-1 G = A + sqrt(2) B."""
    axes = _axis_types(w.grid.m, sector)
    wlo, whi = w.expand_signed()
    ga, gb = [], []
    for n in inner:
        ra, rb = [], []
        for k in mid:
            lo, hi, r = _exact_entry(wlo, whi, axes, w.S, n, k)
            assert lo == hi
            fa, fb = SQRT_RATIO[r]
            ra.append(fa * lo)
            rb.append(fb * lo)
        ga.append(ra)
        gb.append(rb)
    inv = _exact_inverse(p)

    def times(g):
        return [[sum(x * g[q][j] for q, x in enumerate(row)) for j in range(len(mid))]
                for row in inv]
    return times(ga), times(gb)


@given(finite_stages(max_inner=8))
@settings(max_examples=60, deadline=None)
def test_derived_coupling_encloses_the_exact_product(stage):
    # (b) for n <= 8 inner rows: Pinv G read off (H P)^T holds P^-1 G exactly,
    # and it meets the product of the path it replaced
    w, sector, N, pseudo, disks = stage
    inner = index_list(w.grid, sector, N)
    mid = shell_indices(w.grid, sector, N, disks.n_mid)
    got = shell_coupling(disks, pseudo)[1]
    ref = inner_coupling_reference(w, sector, inner, mid, pseudo)
    assert got.shape == ref.shape == (len(inner), len(mid))
    assert (got.lo <= ref.hi).all() and (ref.lo <= got.hi).all()
    if not (w.lo == w.hi).all():
        return
    event(f"exact P^-1 G in {sector!r}, {len(inner)} x {len(mid)}")
    xa, xb = _exact_coupling(w, sector, inner, mid, pseudo.P.lo)
    for i, j in itertools.product(range(len(inner)), range(len(mid))):
        a, b = xa[i][j], xb[i][j]
        assert _below_root_times(Fraction(got.lo[i, j]) - a, 2, b), (i, j)
        assert _below_root_times(a - Fraction(got.hi[i, j]), 2, -b), (i, j)


@given(finite_stages(max_inner=64))
@settings(max_examples=60, deadline=None)
def test_inner_radii_stay_near_the_reference_path(stage):
    # (c): row i of the paths differs by its pad delta_i sum_j s_j, by
    # (Pinv - P^T) G, which the pad also bounds, and by rounding.  A row the
    # shell hardly reaches (radius 5e-12, say) moves by up to 3e-5 of its
    # own radius, yet by less than a quarter of its pad
    w, sector, N, pseudo, disks = stage
    inner = index_list(w.grid, sector, N)
    mid = shell_indices(w.grid, sector, N, disks.n_mid)
    want = inner_radii_reference(pseudo, inner_coupling_reference(w, sector, inner, mid, pseudo))
    got = disks.radii[:len(inner)]
    pad = 0.0 if disks.dg is None else disks.dg_delta * disks.dg_s.sum()
    assert (np.abs(got - want) <= 1e-12 * want + 2.0 * pad).all()
    assert (np.abs(got - want) <= 1e-12 * want.max()).all()


def test_one_gershgorin_disks_call_makes_no_product_and_one_reach(monkeypatch):
    # the coupling comes from the streamed block and the radii from sums of
    # |H P|: a second convolution block or any interval product shows here
    w = _even_kernel_2d(43, 8)
    model, pseudo, a = _finite_stage_2d(w, 4)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(IMatrix, "__matmul__", counted("matmul", IMatrix.__matmul__))
    monkeypatch.setattr(finite, "_reach", counted("_reach", finite._reach))
    monkeypatch.setattr(finite, "conv_block", counted("conv_block", finite.conv_block))
    disks = gershgorin_disks(model, w, "cc", 4, pseudo, a)
    assert calls == {"_reach": 1}
    dg_p, pinv_dg = shell_coupling(disks, pseudo)
    assert dg_p.shape == pinv_dg.T.shape == (144, 25)
