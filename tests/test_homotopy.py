import ast
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import simpson
from hypothesis import example, given, settings, strategies as st

from speccert import homotopy, pipeline
from speccert.errors import ConditionViolated
from speccert.finite import DiskSet, conv_block, shell_indices, spectral_edge
from speccert.fourier import FourierSeq, Grid, index_list, seq_l1
from speccert.homotopy import (
    _disk_gap,
    compute_bounds,
    dist_to_window,
    inflate_disks,
    kappa2_formula,
    kernel_weight_integrals,
    sup_to_window,
    window_bounds,
    zu_base_bounds,
)
from speccert.imatrix import IMatrix
from speccert.interval import ComplexBox, IArray, Interval
from speccert.models import DecayBound, sh_model
from speccert.pipeline import default_window, select_shift
import scalar_paths


# -- weighted kernel integrals against quadrature -------------------------

def _cos_values(w, x):
    coeffs = w.mid()
    vals = np.full_like(x, coeffs[(0,) * w.grid.m] if w.grid.m == 1 else 0.0)
    if w.grid.m == 1:
        vals = np.full_like(x, coeffs[0])
        for j in range(1, w.S + 1):
            vals = vals + 2.0 * coeffs[j] * np.cos(math.pi * j * x / w.grid.d)
    return vals


def test_kernel_weight_integrals_1d_oracle():
    grid = Grid(1, 10.0)
    rng = np.random.default_rng(5)
    w = FourierSeq.from_point(grid, "c", rng.standard_normal(4) * 0.3)
    a = Interval(0.3)
    ints = kernel_weight_integrals(w, a)
    x = np.linspace(-10.0, 10.0, 400001)
    wx = _cos_values(w, x)
    weight = np.exp(2 * 0.3 * x) + np.exp(-2 * 0.3 * x)
    oracle = np.trapezoid(wx * wx * weight, x)
    enc = ints["cosh"][0]
    assert enc.lo - 1e-6 <= oracle <= enc.hi + 1e-6
    assert ints["coshcosh"] is None


def test_kernel_weight_integrals_2d_oracle():
    grid = Grid(2, 4.0)
    rng = np.random.default_rng(9)
    w = FourierSeq.from_point(grid, "cc", rng.standard_normal((3, 3)) * 0.2)
    a = Interval(0.25)
    ints = kernel_weight_integrals(w, a)
    n = 2001
    x = np.linspace(-4.0, 4.0, n)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    coeffs = w.mid()
    wxy = np.zeros_like(xx)
    for j1 in range(w.S + 1):
        for j2 in range(w.S + 1):
            mult = (2.0 if j1 else 1.0) * (2.0 if j2 else 1.0)
            wxy = wxy + mult * coeffs[j1, j2] * \
                np.cos(math.pi * j1 * xx / 4.0) * np.cos(math.pi * j2 * yy / 4.0)
    ch = np.exp(2 * 0.25 * xx) + np.exp(-2 * 0.25 * xx)
    ch2 = np.exp(2 * 0.25 * yy) + np.exp(-2 * 0.25 * yy)
    w2 = wxy * wxy
    o_cosh0 = simpson(simpson(w2 * ch, x=x, axis=1), x=x)
    o_coshcosh = simpson(simpson(w2 * ch * ch2, x=x, axis=1), x=x)
    assert ints["cosh"][0].lo - 1e-4 <= o_cosh0 <= ints["cosh"][0].hi + 1e-4
    cc = ints["coshcosh"]
    assert cc.lo - 1e-4 <= o_coshcosh <= cc.hi + 1e-4


# -- periodization defect bounds ------------------------------------------

def _toy_kernel(d, amp=0.01):
    from conftest import cosine_seed
    from speccert.finite import kernel_from_state

    grid = Grid(1, d)
    model = sh_model(0.28, -1.6, 1.0, m=1)
    # resolution follows the box so the pulse stays equally well resolved
    n_modes = int(round(0.8 * d))
    u0 = FourierSeq.from_point(grid, "c", cosine_seed(grid, n_modes, amp, 0.8))
    return model, kernel_from_state(model, u0)


def test_zu_zero_state():
    model, w = _toy_kernel(20.0, amp=0.0)
    dec = model.decay_provider(Interval(-0.01, 0.05))
    zu1, zu2 = zu_base_bounds(w, dec)
    # only outward-rounding residue of an exactly zero kernel survives
    assert zu1.hi < 1e-100 and zu2.hi < 1e-100


def test_zu_decreasing_in_domain_size():
    # same localized pulse on growing boxes: the periodization defect of the
    # window's resolvent kernels must shrink as the box grows
    prev1 = prev2 = math.inf
    for d in (20.0, 30.0, 40.0):
        model, w = _toy_kernel(d, amp=0.5)
        dec = model.decay_provider(Interval(-0.01, 0.05))
        zu1, zu2 = zu_base_bounds(w, dec)
        assert 0.0 < zu1.hi < prev1
        assert 0.0 < zu2.hi < prev2
        assert math.isfinite(zu1.hi) and math.isfinite(zu2.hi)
        prev1, prev2 = zu1.hi, zu2.hi


# -- contraction formula --------------------------------------------------

def test_kappa2_formula_substitution():
    out = kappa2_formula(Interval(0.1), Interval(0.2), Interval(0.0),
                         Interval(0.0), Interval(2.0))
    assert out.contains(0.125)
    assert out.width() < 1e-12


def test_kappa2_formula_rejects_noncontraction():
    with pytest.raises(ConditionViolated) as exc:
        kappa2_formula(Interval(0.1), Interval(0.7), Interval(0.3),
                       Interval(0.1), Interval(2.0))
    assert "contraction" in str(exc.value)


# -- window distance helpers ----------------------------------------------

_coord = st.one_of(st.floats(-10, 10), st.integers(-8, 8).map(float))
_width = st.one_of(st.floats(0, 3), st.integers(0, 3).map(float))


def _bits(x):
    """The exact ends of an Interval, an IArray or a list of floats."""
    if isinstance(x, list):
        return [v.hex() for v in x]
    return [(lo.hex(), hi.hex()) for lo, hi
            in zip(np.atleast_1d(x.lo).tolist(), np.atleast_1d(x.hi).tolist())]


@given(st.lists(st.tuples(_coord, _width), min_size=1, max_size=4), _coord, _width)
@settings(max_examples=300, deadline=None)
def test_window_distance_brackets_samples(vs, w_lo, w_width):
    window = Interval(w_lo, w_lo + w_width)
    wl, wh = Fraction(window.lo), Fraction(window.hi)
    ivs = [Interval(v0, v0 + vw) for v0, vw in vs]
    batch = IArray([v.lo for v in ivs], [v.hi for v in ivs])
    dists = dist_to_window(batch, window).elements()
    for v, d in zip(ivs, dists):
        vl, vh = Fraction(v.lo), Fraction(v.hi)
        # exact range over p in v of the distance from p to the window
        near = max(wl - vh, vl - wh, Fraction(0))
        far = max(wl - vl, vh - wh, Fraction(0))
        assert Fraction(d.lo) <= near and far <= Fraction(d.hi)
        assert near - Fraction(d.lo) <= Fraction(math.ulp(d.lo))
        # exact sup over p in v and mu in the window of |p - mu|
        top = max(abs(vl - wl), abs(vl - wh), abs(vh - wl), abs(vh - wh))
        s = sup_to_window(v, window)
        assert s.lo == s.hi and top <= Fraction(s.lo)
        assert Fraction(s.hi) - top <= Fraction(math.ulp(s.hi))
    # a batch gives the scalar bits
    assert _bits(sup_to_window(batch, window)) == [
        b for v in ivs for b in _bits(sup_to_window(v, window))]


_side = st.sampled_from(["below", "inside", "above", "straddles"])


@given(st.lists(st.tuples(_side, st.floats(0, 20), _width), min_size=1, max_size=6),
       _coord, _width)
@settings(max_examples=300, deadline=None)
def test_window_distance_batch_equals_scalar_reference(points, w_lo, w_width):
    # each element below, inside, above or across the window
    window = Interval(w_lo, w_lo + w_width)
    ivs = []
    for side, off, vw in points:
        if side == "below":
            lo = window.lo - off - vw - 1e-9
        elif side == "above":
            lo = window.hi + off + 1e-9
        elif side == "inside":
            lo, vw = window.lo + window.width() * min(off, 20.0) / 40.0, 0.0
        else:
            lo = window.lo - off
            vw = max(vw, off + window.width())
        ivs.append(Interval(lo, lo + vw))
    batch = IArray([v.lo for v in ivs], [v.hi for v in ivs])
    got = dist_to_window(batch, window)
    assert _bits(got) == [b for v in ivs for b in _bits(scalar_paths.dist_to_window(v, window))]
    assert got.err is None


def _gap_disks(centers, radii, tail_radius):
    return DiskSet(grid=Grid(1, 10.0), sector="c", n_inner=len(centers),
                   n_mid=len(centers),
                   center_re=IArray([c.lo for c in centers], [c.hi for c in centers]),
                   radii=np.array(radii, dtype=float), w0=Interval(0.0),
                   tail_radius=tail_radius)


_gap_end = st.one_of(st.floats(-4, 4), st.integers(-4, 4).map(float))
_gap_radius = st.one_of(st.floats(0, 2), st.sampled_from([0.0, 1e-17, 1.0]))


@given(st.lists(st.tuples(_gap_end, _gap_end, _gap_radius), max_size=5),
       _gap_end, st.floats(0, 8), _gap_radius)
@example([(1.0, 1.0, 1e-17)], 0.0, 10.0, 0.0)      # a disk term below 1
@example([], 0.0, 1.0, 1e-17)                      # the tail term below 1
@settings(max_examples=300, deadline=None)
def test_disk_gap_is_below_the_exact_gap(disks, t, tail_lo, tail_radius):
    centers = [Interval(min(a, b), max(a, b)) for a, b, _ in disks]
    radii = [r for _, _, r in disks]
    gap = _disk_gap(_gap_disks(centers, radii, tail_radius), t,
                    Interval(tail_lo, tail_lo + 1.0))
    # exact gaps: mig of the shifted center minus the radius, and the
    # tail minimum minus the tail radius
    exact = [Fraction(tail_lo) - Fraction(tail_radius)]
    for c, r in zip(centers, radii):
        lo, hi = Fraction(c.lo) + Fraction(t), Fraction(c.hi) + Fraction(t)
        mig = Fraction(0) if lo <= 0 <= hi else min(abs(lo), abs(hi))
        exact.append(mig - Fraction(r))
    assert Fraction(gap.lo) <= min(exact)
    ref = scalar_paths.disk_gap(_gap_disks(centers, radii, tail_radius), t,
                                Interval(tail_lo, tail_lo + 1.0))
    assert _bits(gap) == _bits(ref)


@given(st.lists(st.tuples(_gap_end, _gap_end, _gap_radius), min_size=1, max_size=6),
       _gap_end, st.floats(0, 2), st.floats(0, 2), st.floats(0, 1))
@settings(max_examples=300, deadline=None)
def test_inflate_disks_equals_scalar_reference(disks, t, f_lo, f_w, sa_w):
    centers = [Interval(min(a, b), max(a, b)) for a, b, _ in disks]
    ds = _gap_disks(centers, [r for _, _, r in disks], 0.0)
    bounds = SimpleNamespace(t=t, eps_factor=Interval(f_lo, f_lo + f_w),
                             sa_factor=Interval(0.0, sa_w))
    got = inflate_disks(ds, bounds)
    ref = scalar_paths.inflate_disks(ds, bounds)
    assert [(sa, _bits(r)) for sa, r in got] == [(sa, _bits(r)) for sa, r in ref]


@st.composite
def _kernels(draw):
    m = draw(st.sampled_from([1, 2]))
    s = draw(st.integers(0, 4))
    shape = (s + 1,) * m
    mid = draw(st.lists(st.floats(-1.0, 1.0), min_size=(s + 1) ** m,
                        max_size=(s + 1) ** m))
    rad = draw(st.sampled_from([0.0, 1e-12, 1e-3]))
    lo = np.array(mid).reshape(shape)
    grid = Grid(m, draw(st.floats(2.0, 30.0)))
    return FourierSeq(grid, "c" * m, lo - rad, lo + rad)


@given(_kernels(), st.floats(0.01, 1.5))
@settings(max_examples=60, deadline=None)
def test_kernel_weight_integrals_equal_scalar_reference(w, a):
    got = kernel_weight_integrals(w, Interval(a))
    ref = scalar_paths.kernel_weight_integrals(w, Interval(a))
    assert [_bits(x) for x in got["cosh"]] == [_bits(x) for x in ref["cosh"]]
    if w.grid.m == 1:
        assert got["coshcosh"] is ref["coshcosh"] is None
    else:
        assert _bits(got["coshcosh"]) == _bits(ref["coshcosh"])


def test_homotopy_stage_stays_on_the_real_line():
    # the window, the shift and the kernel diagonal are Intervals, and a
    # diagonal weight multiplies as a row scaling, not a dense product
    for mod in (homotopy, pipeline):
        tree = ast.parse(Path(mod.__file__).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
        assert "ComplexBox" not in names, mod.__name__
    assert not hasattr(IMatrix, "diag")


# -- assembled bounds on the localized toy --------------------------------

@pytest.fixture(scope="module")
def toy_bounds(sh_toy):
    model = sh_toy["model"]
    disks = sh_toy["disks"]
    edge = spectral_edge(disks)
    t = select_shift(edge, 1.0)
    window = default_window(3.56, 0.01)
    u0_l1 = seq_l1(sh_toy["u0"])
    wb = window_bounds(model, sh_toy["w"], u0_l1, 1e-8, sh_toy["pseudo"],
                       disks, window)
    bounds = compute_bounds(wb, t)
    return {"bounds": bounds, "t": t, "window": window, "wb": wb}


@pytest.mark.parametrize("underflow", [False, True])
def test_fmat_operand_bounds_the_exact_products(toy_bounds, monkeypatch,
                                                underflow):
    # the matrix factor behind Zu3 and C2 r0 is the norm of |G| diag(colw);
    # each operand entry must be at least its exact product, also where the
    # product underflows (column weights of 2^-1074)
    wb = toy_bounds["wb"]
    if underflow:
        wb = replace(wb, colw=np.full_like(wb.colw, 2.0 ** -1074))
    operands = []

    def spy(a, _real=homotopy.op_norm2_bound):
        operands.append(a)
        return _real(a)

    monkeypatch.setattr(homotopy, "op_norm2_bound", spy)
    t = toy_bounds["t"]
    compute_bounds(wb, t)
    sinv = homotopy._diag_shift_inv(wb.pseudo, t)
    gmag = wb.pseudo.Pinv.scale_rows(sinv).mag()
    # the one point operand of the shift's norms
    [fmat] = [a for a in operands if a.shape == gmag.shape and (a.lo == a.hi).all()]
    for i, j in np.ndindex(gmag.shape):
        exact = Fraction(gmag[i, j]) * Fraction(wb.colw[j])
        assert Fraction(fmat.hi[i, j]) >= exact, (i, j)


def test_shift_inside_an_eigenvalue_enclosure_is_rejected(toy_bounds):
    wb = toy_bounds["wb"]
    t = -wb.pseudo.lams.elements()[3].mid()
    with pytest.raises(ConditionViolated, match="puts -t inside the eigenvalue") as exc:
        compute_bounds(wb, t)
    assert f"shift t = {t!r}" in str(exc.value)


def test_bounds_dominate_dense_block_norms(sh_toy, toy_bounds):
    bounds = toy_bounds["bounds"]
    t = toy_bounds["t"]
    pseudo = sh_toy["pseudo"]
    disks = sh_toy["disks"]
    w = sh_toy["w"]

    lam = np.array([l.mid() for l in pseudo.lams.elements()])
    sinv = np.diag(1.0 / (lam + t))
    od = ((pseudo.Pinv @ sh_toy["jac"]) @ pseudo.P).mid()
    np.fill_diagonal(od, 0.0)
    assert np.linalg.norm(sinv @ od, 2) <= bounds.z13.hi * (1 + 1e-9)

    inner = index_list(sh_toy["grid"], "c", disks.n_inner)
    mid = shell_indices(sh_toy["grid"], "c", disks.n_inner, disks.n_mid)
    dg_nm = conv_block(w, "c", inner, mid).mid()
    z14_sample = np.linalg.norm(sinv @ pseudo.Pinv.mid() @ dg_nm, 2)
    assert z14_sample <= bounds.z14.hi * (1 + 1e-9)

    dg_mn = conv_block(w, "c", mid, inner).mid()
    window = toy_bounds["window"]
    from speccert.finite import freq_norm_iv

    dists = []
    lams = sh_toy["model"].symbol_at(freq_norm_iv(sh_toy["grid"], mid))
    for lam in lams.elements():
        l = lam.mid()
        dists.append(max(window.lo - l, l - window.hi, 0.0))
    dinv = np.diag(1.0 / np.array(dists))
    z11_sample = np.linalg.norm(dinv @ np.abs(dg_mn @ pseudo.P.mid()), 2)
    assert z11_sample <= bounds.window_bounds.z11.hi * (1 + 1e-9)


def test_bounds_finite_and_contracting(toy_bounds):
    b = toy_bounds["bounds"]
    wb = b.window_bounds
    for src, name in ((wb, "z11"), (wb, "z12"), (b, "z13"), (b, "z14"),
                      (wb, "zu1"), (wb, "zu2"), (b, "zu3"), (wb, "kappa1"),
                      (wb, "kappa2"), (b, "eps_factor"), (b, "sa_factor")):
        v = getattr(src, name)
        assert math.isfinite(v.hi) and v.hi >= 0.0, name
    assert b.eps_factor.hi < 1.0
    assert wb.kappa1.hi < 0.1


def test_inflated_radii_exceed_gershgorin(sh_toy, toy_bounds):
    disks = sh_toy["disks"]
    b = toy_bounds["bounds"]
    (_, gen), (_, sa) = inflate_disks(disks, b)
    for r_gen, r_sa, r0 in zip(gen, sa, disks.radii):
        assert r_gen >= r0 and r_sa >= r0
        # at the default shift the two paths are comparable
        assert r_sa <= r_gen * 1.05


def test_selfadjoint_path_dominates_at_generous_shift(sh_toy, toy_bounds):
    # with a shift well clear of the spectrum the symmetric resolvent
    # estimate beats the Neumann-series route on every disk
    disks = sh_toy["disks"]
    edge = spectral_edge(disks)
    t = select_shift(edge, 4.0)
    b = compute_bounds(toy_bounds["wb"], t)
    (_, gen), (_, sa) = inflate_disks(disks, b)
    for r_gen, r_sa in zip(gen, sa):
        assert r_sa <= r_gen


def test_huge_r0_rejected(sh_toy, toy_bounds):
    with pytest.raises(ConditionViolated) as exc:
        window_bounds(sh_toy["model"], sh_toy["w"], seq_l1(sh_toy["u0"]),
                      1e3, sh_toy["pseudo"], sh_toy["disks"],
                      toy_bounds["window"])
    assert "r0" in str(exc.value)
