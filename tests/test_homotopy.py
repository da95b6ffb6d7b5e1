import math

import numpy as np
import pytest
from scipy.integrate import simpson
from hypothesis import given, settings, strategies as st

from speccert.errors import ConditionViolated
from speccert.finite import cluster_disks, conv_block
from speccert.fourier import FourierSeq, Grid, seq_l1
from speccert.homotopy import (
    compute_bounds,
    dist_to_window,
    inflate_disks,
    kappa2_formula,
    kernel_weight_integrals,
    sup_to_window,
    window_bounds,
    zu_base_bounds,
)
from speccert.interval import ComplexBox, Interval
from speccert.models import DecayBound, sh_model
from speccert.pipeline import (
    CertifyOptions,
    default_window,
    select_shift,
    _spectral_edge,
)


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

@given(st.floats(-10, 10), st.floats(0, 3), st.floats(-10, 10),
       st.floats(0, 3), st.floats(-2, 2), st.floats(0, 1), st.floats(0, 1),
       st.floats(0, 1))
@settings(max_examples=200)
def test_window_distance_brackets_samples(v0, vw, w0, ww, wi, t1, t2, t3):
    v = Interval(v0, v0 + vw)
    window = ComplexBox(Interval(w0, w0 + ww), Interval(min(wi, 0.0), max(wi, 0.0)))
    lo = dist_to_window(v, window)
    hi = sup_to_window(v, window)
    p = v.lo + t1 * (v.hi - v.lo)
    mu = complex(window.re.lo + t2 * window.re.width(),
                 window.im.lo + t3 * window.im.width())
    d = abs(p - mu)
    assert lo.lo <= d * (1 + 1e-12) + 1e-12
    assert hi.hi >= d * (1 - 1e-12) - 1e-12


# -- assembled bounds on the localized toy --------------------------------

@pytest.fixture(scope="module")
def toy_bounds(sh_toy):
    model = sh_toy["model"]
    disks = sh_toy["disks"]
    clusters = cluster_disks(disks)
    edge = _spectral_edge(model, clusters)
    t = select_shift(model, edge, 1.0)
    window = default_window(model, 3.56, 0.01)
    u0_l1 = seq_l1(sh_toy["u0"])
    wb = window_bounds(model, sh_toy["w"], u0_l1, 1e-8, sh_toy["pseudo"],
                       disks, window, CertifyOptions().q_mult)
    bounds = compute_bounds(wb, t)
    return {"bounds": bounds, "t": t, "window": window, "wb": wb}


def test_bounds_dominate_dense_block_norms(sh_toy, toy_bounds):
    bounds = toy_bounds["bounds"]
    t = toy_bounds["t"]
    pseudo = sh_toy["pseudo"]
    disks = sh_toy["disks"]
    w = sh_toy["w"]

    lam = np.array([l.mid() for l in pseudo.lams])
    sinv = np.diag(1.0 / (lam + t))
    od = pseudo.D.mid().copy()
    np.fill_diagonal(od, 0.0)
    assert np.linalg.norm(sinv @ od, 2) <= bounds.z13.hi * (1 + 1e-9)

    dg_nm = conv_block(w, "c", disks.inner_indices, disks.mid_indices).mid()
    z14_sample = np.linalg.norm(sinv @ pseudo.Pinv.mid() @ dg_nm, 2)
    assert z14_sample <= bounds.z14.hi * (1 + 1e-9)

    dg_mn = conv_block(w, "c", disks.mid_indices, disks.inner_indices).mid()
    window = toy_bounds["window"]
    from speccert.finite import freq_norm_iv

    dists = []
    for n in disks.mid_indices:
        l = sh_toy["model"].symbol_at(freq_norm_iv(sh_toy["grid"], n)).mid()
        dists.append(max(window.re.lo - l, l - window.re.hi, 0.0))
    dinv = np.diag(1.0 / np.array(dists))
    z11_sample = np.linalg.norm(dinv @ np.abs(dg_mn @ pseudo.P.mid()), 2)
    assert z11_sample <= bounds.window_bounds.z11.hi * (1 + 1e-9)


def test_bounds_finite_and_contracting(toy_bounds):
    b = toy_bounds["bounds"]
    wb = b.window_bounds
    for src, name in ((wb, "z11"), (wb, "z12"), (b, "z13"), (b, "z14"),
                      (wb, "zu1"), (wb, "zu2"), (b, "zu3"), (wb, "kappa1"),
                      (wb, "kappa2"), (b, "eps_factor")):
        v = getattr(src, name)
        assert math.isfinite(v.hi) and v.hi >= 0.0, name
    assert b.eps_factor.hi < 1.0
    assert wb.kappa1.hi < 0.1
    assert b.sa_factor is not None


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
    model = sh_toy["model"]
    disks = sh_toy["disks"]
    clusters = cluster_disks(disks)
    edge = _spectral_edge(model, clusters)
    t = select_shift(model, edge, 4.0)
    b = compute_bounds(toy_bounds["wb"], t)
    (_, gen), (_, sa) = inflate_disks(disks, b)
    for r_gen, r_sa in zip(gen, sa):
        assert r_sa <= r_gen


def test_huge_r0_rejected(sh_toy, toy_bounds):
    with pytest.raises(ConditionViolated) as exc:
        window_bounds(sh_toy["model"], sh_toy["w"], seq_l1(sh_toy["u0"]),
                      1e3, sh_toy["pseudo"], sh_toy["disks"],
                      toy_bounds["window"], CertifyOptions().q_mult)
    assert "r0" in str(exc.value)
