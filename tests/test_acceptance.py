"""Acceptance checks: end-to-end properties with stated budgets.

Each test states its runtime budget; the suite asserts correctness only,
the budgets are enforced by the surrounding CI timeout.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import j0

from conftest import solve_sh_toy
from speccert import serialize
from speccert.finite import (
    assemble_jacobian,
    build_pseudo_diag,
    cluster_disks,
    gershgorin_disks,
    kernel_from_state,
    newton_solve,
    spectral_edge,
)
from speccert.fourier import FourierSeq, Grid, index_list, seq_l1
from speccert.homotopy import compute_bounds, inflate_disks, window_bounds
from speccert.imatrix import IMatrix, op_norm2_bound
from speccert.interval import (
    ComplexBox,
    Interval,
    iv_exp,
    iv_pow_int,
    iv_sqrt,
)
from speccert.models import (
    essential_spectrum,
    gray_scott_model,
    sh_model,
    whitham_model,
)
from speccert.pipeline import (
    certify,
    default_window,
    select_shift,
)


# -- criterion 1: interval soundness, 1e6 trials, < 2 min -----------------

def test_interval_soundness_million_trials():
    rng = np.random.default_rng(271828)
    trials = 0

    n = 140000
    a_lo = rng.uniform(-50, 50, n)
    a_w = rng.uniform(0, 5, n)
    b_lo = rng.uniform(0.1, 50, n)
    b_w = rng.uniform(0, 5, n)
    ta = rng.uniform(0, 1, n)
    tb = rng.uniform(0, 1, n)
    for i in range(n):
        x = Interval(a_lo[i], a_lo[i] + a_w[i])
        y = Interval(b_lo[i], b_lo[i] + b_w[i])
        p = a_lo[i] + ta[i] * a_w[i]
        q = b_lo[i] + tb[i] * b_w[i]
        assert (x + y).contains(p + q); trials += 1
        assert (x - y).contains(p - q); trials += 1
        assert (x * y).contains(p * q); trials += 1
        assert (x / y).contains(p / q); trials += 1
        assert x.sq().contains(p * p); trials += 1
        assert iv_sqrt(y).contains(math.sqrt(q)); trials += 1
        assert x.abs().contains(abs(p)); trials += 1

    # disk centers: the difference and the gap of the pair test, against
    # the exact rational values at points of the centers; columns 0 and 2
    # lie apart, columns 1 and 3 overlap
    n = 16000
    re = rng.uniform(-20, 20, (n, 4))
    w = rng.uniform(0, 2, (n, 4))
    t = rng.uniform(0, 1, (n, 4))
    re[:, 2] += 41
    for i in range(n):
        p = [Fraction(re[i, k] + t[i, k] * w[i, k]) for k in range(4)]
        for a, b in ((0, 2), (1, 3)):
            d = (ComplexBox(Interval(re[i, a], re[i, a] + w[i, a]))
                 - ComplexBox(Interval(re[i, b], re[i, b] + w[i, b])))
            dr = p[a] - p[b]
            assert Fraction(d.re.lo) <= dr <= Fraction(d.re.hi); trials += 1
            assert Fraction(d.mig()) <= abs(dr); trials += 1

    for k in range(40):
        m = int(rng.integers(5, 12))
        am = rng.standard_normal((m, m))
        bm = rng.standard_normal((m, m))
        prod = (IMatrix.from_point(am) @ IMatrix.from_point(bm))
        exact = am @ bm
        for i in range(m):
            for j in range(m):
                assert prod.lo[i, j] <= exact[i, j] <= prod.hi[i, j]; trials += 1
        nb = op_norm2_bound(IMatrix.from_point(am))
        assert nb.hi >= np.linalg.norm(am, 2) * (1 - 1e-12); trials += 1

    assert trials >= 1_000_000


# -- criterion 2: Gershgorin oracle equivalence, 200 operators, < 5 min ---

def test_gershgorin_oracle_equivalence_200_operators():
    grid = Grid(1, 10.0)
    rng = np.random.default_rng(31415)
    for trial in range(200):
        mu = float(rng.uniform(0.3, 2.5))
        nu1 = float(rng.uniform(-3.0, -0.5))
        model = sh_model(mu, nu1, 1.0, m=1)
        S = int(rng.integers(2, 7))
        w = FourierSeq.from_point(
            grid, "c", rng.standard_normal(S + 1) * rng.uniform(0.05, 0.4))
        # truncation sizes from 20 to 200 rows
        n_inner = int(rng.integers(19 - S, 200 - S))
        a = assemble_jacobian(model, w, "c", n_inner)
        idx = index_list(grid, "c", n_inner)
        pseudo = build_pseudo_diag(a, idx, True)
        disks = gershgorin_disks(model, w, "c", n_inner, pseudo, a)
        big = assemble_jacobian(model, w, "c", disks.n_mid).mid()
        eig = np.linalg.eigvalsh(0.5 * (big + big.T))
        for ev in eig:
            assert any(c.re.lo - r <= ev <= c.re.hi + r
                       for c, r in zip(disks.centers, disks.radii)), \
                (trial, ev)
        for cl in cluster_disks(disks):
            inside = int(np.sum((eig >= cl.lo) & (eig <= cl.hi)))
            assert inside == cl.count, (trial, cl.lo, cl.hi, inside, cl.count)


# -- criterion 3: essential spectrum published edges, seconds -------------

def test_essential_spectrum_published_edges():
    wh = essential_spectrum(whitham_model(0.5, 0.8))
    assert len(wh) == 1 and wh[0].hi is None
    edge = wh[0].lo
    assert edge.width() <= 1e-12
    assert edge.contains(0.2) or abs(edge.mid() - 0.2) <= 1e-12

    sh = essential_spectrum(sh_model(0.28, -1.6, 1.0, m=2))
    assert sh[0].lo is None
    assert sh[0].hi.contains(-0.28)

    gs = essential_spectrum(gray_scott_model(Interval(1.0) / Interval(9.0),
                                             10.0))
    assert gs[-1].lo is None
    assert gs[-1].hi.contains(-1.0)


# -- criterion 4: decay-bound spot check, 100^2 grid, < 1 min -------------

@pytest.mark.parametrize("lam", [-0.01, 0.05])
def test_sh_decay_bound_spot_check(lam):
    # non-rigorous oracle: Hankel reconstruction of the resolvent kernel
    # of the radial symbol at shift lam, 2D, against C e^{-a |x|_1}
    mu = 0.28
    model = sh_model(mu, -1.6, 1.0, m=2)
    dec = model.decay_provider(Interval(lam, lam))
    x = np.linspace(-40.0, 40.0, 100)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    r_all = np.sqrt(xx ** 2 + yy ** 2)
    r_u, inv = np.unique(np.round(r_all, 9), return_inverse=True)
    s = np.linspace(0.0, 60.0, 24001)
    den = -(1.0 - s ** 2) ** 2 - mu - lam
    g = s / den
    f_u = np.empty_like(r_u)
    for i0 in range(0, len(r_u), 256):
        ru = r_u[i0:i0 + 256]
        f_u[i0:i0 + 256] = np.trapezoid(j0(np.outer(ru, s)) * g, s,
                                        axis=1) / (2.0 * math.pi)
    f = np.abs(f_u[inv].reshape(r_all.shape))
    bound = 1.05 * dec.C * np.exp(-dec.a * (np.abs(xx) + np.abs(yy)))
    assert np.all(f <= bound)


# -- criterion 5: full pipeline on the 1D toy, < 10 min -------------------

def test_pipeline_toy_with_truncation_oracle(sh_toy):
    model = sh_toy["model"]
    u0 = sh_toy["u0"]

    cert = certify(model, u0, "c", 1e-8, sh_toy["N"])
    # (a) all gates certified
    assert cert.bounds.eps_factor.hi < 1.0
    assert cert.stable == "stable"
    window = cert.bounds.window_bounds.window
    assert cert.tail_edge < window.lo

    # (b) oracle: eigenvalues of the 4x truncation against the window and
    # the reported clusters (counts must match pairwise per cluster)
    w = kernel_from_state(model, u0)
    big = assemble_jacobian(model, w, "c", 4 * sh_toy["N"]).mid()
    eig = np.linalg.eigvalsh(0.5 * (big + big.T))
    jlo, jhi = window.lo, window.hi
    inside = eig[(eig > jlo) & (eig < jhi)]
    for c in cert.clusters:
        n_oracle = int(np.sum((inside >= c.lo) & (inside <= c.hi)))
        assert n_oracle == c.count
    for ev in inside:
        assert any(c.lo <= ev <= c.hi for c in cert.clusters), ev
    # this toy's window sits above the whole point spectrum: the oracle
    # must agree that the window is empty
    assert inside.size == 0 and cert.clusters == []

    # (c) determinism
    again = certify(model, u0, "c", 1e-8, sh_toy["N"])
    assert serialize.dumps(serialize.certificate_to_doc(cert)) == \
        serialize.dumps(serialize.certificate_to_doc(again))


# -- criterion 6: Whitham target ------------------------------------------

def test_whitham_published_cluster_values():
    pytest.skip("published companion inputs (state enclosure, r0 = 8.7e-9, "
                "weighted-norm decay constants) are not shipped; the "
                "advisory fallback below covers the geometry")


def test_whitham_fallback_advisory():
    # advisory, non-rigorous: Newton from the long-wave approximation, then
    # disk centers against a dense-truncation oracle
    grid = Grid(1, 40.0)
    N = 80
    x = np.linspace(-40.0, 40.0, 8001)
    prof = -0.3 / np.cosh(0.775 * x) ** 2
    coeffs = [np.trapezoid(prof * np.cos(np.pi * n * x / 40.0), x) / 80.0
              * (1.0 if n == 0 else 2.0) for n in range(N + 1)]
    model = whitham_model(0.5, 0.8)
    # the root has two humps and an even eigenvalue of -4.2e-4, their nearly
    # free relative shift: exact Newton steps reach it in 371 iterations
    u0 = newton_solve(model, grid, "c", np.array(coeffs), N, max_iter=400)
    w = kernel_from_state(model, u0)
    a = assemble_jacobian(model, w, "c", N)
    idx = index_list(grid, "c", N)
    pseudo = build_pseudo_diag(a, idx, True)
    ds = gershgorin_disks(model, w, "c", N, pseudo, a)
    mid = a.mid()
    eig = np.linalg.eigvalsh(0.5 * (mid + mid.T))
    sel = eig[(eig >= 0.25) & (eig <= 0.29)]
    assert sel.size > 0
    centers = np.array([c.re.mid() for c in ds.centers])
    for ev in sel:
        assert np.min(np.abs(centers - ev)) < 0.01


# -- criterion 7: self-adjoint path dominance, 20 runs, < 5 min -----------

def test_selfadjoint_dominance_20_runs():
    # strongly localized pulses with a generous shift: the symmetric
    # resolvent path must win on every disk of every run
    for mu in np.linspace(1.30, 1.56, 20):
        model, grid, u0 = solve_sh_toy(mu=float(mu))
        w = kernel_from_state(model, u0)
        a = assemble_jacobian(model, w, "c", 32)
        idx = index_list(grid, "c", 32)
        pseudo = build_pseudo_diag(a, idx, True)
        disks = gershgorin_disks(model, w, "c", 32, pseudo, a)
        edge = spectral_edge(disks)
        lam_max = model.lambda_max(seq_l1(u0), seq_l1(w), Interval(1e-8)).hi
        window = default_window(lam_max, 0.01)
        t = select_shift(edge, 4.0)
        b = compute_bounds(window_bounds(model, w, seq_l1(u0), 1e-8, pseudo,
                                         disks, window), t)
        assert math.isfinite(b.sa_factor.hi)
        (_, gen), (_, sa) = inflate_disks(disks, b)
        for r_sa, r_gen in zip(sa, gen):
            assert r_sa <= r_gen, (mu, r_sa, r_gen)
