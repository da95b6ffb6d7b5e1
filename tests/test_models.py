import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from speccert.errors import (
    DecayDomainMismatch,
    InvalidParameter,
    TailNotIntegrable,
)
from speccert.interval import Interval
from speccert.models import (
    DecayBound,
    essential_spectrum,
    gray_scott_model,
    rigorous_L2_of_reciprocal,
    sh_model,
    whitham_model,
)


# -- essential spectrum edges against published values --------------------

def test_sh_essential_edge():
    model = sh_model(0.28, -1.6, 1.0, m=2)
    rays = essential_spectrum(model)
    assert len(rays) == 1
    assert rays[0].lo is None
    assert rays[0].hi.contains(-0.28)
    assert rays[0].hi.width() <= 1e-10

    rays32 = essential_spectrum(sh_model(0.32, -1.6, 1.0, m=2))
    assert rays32[0].hi.contains(-0.32)


def test_whitham_essential_edge():
    model = whitham_model(0.5, 0.8)
    rays = essential_spectrum(model)
    assert len(rays) == 1
    assert rays[0].hi is None
    edge = rays[0].lo
    # the true edge is 1 - float(0.8), one ulp shy of decimal 0.2
    assert edge.width() <= 1e-12
    assert abs(edge.mid() - 0.2) <= 1e-12


def test_gray_scott_essential_edge():
    model = gray_scott_model(Interval(1.0) / Interval(9.0), 10.0)
    rays = essential_spectrum(model)
    assert rays[-1].hi.contains(-1.0)
    assert rays[-1].lo is None


def test_symbol_point_values():
    sh = sh_model(0.28, -1.6, 1.0, m=2)
    assert sh.symbol_at(Interval(0.0)).contains(-1.28)
    assert sh.symbol_at(Interval(1.0)).contains(-0.28)

    gs = gray_scott_model(Interval(1.0) / Interval(9.0), 10.0)
    (a, b), (c, d) = gs.symbol_matrix(Interval(0.0))
    assert a.contains(-1.0) and b.contains(0.0)
    assert c.contains(10.0 / 9.0 - 1.0) and d.contains(-10.0)

    wh = whitham_model(0.5, 0.8)
    with mpmath.workdps(40):
        true = mpmath.sqrt(mpmath.tanh(1) * (1 + 0.5) / 1) - mpmath.mpf(0.8)
        enc = wh.symbol_at(Interval(1.0))
        assert mpmath.mpf(enc.lo) <= true <= mpmath.mpf(enc.hi)


def test_whitham_symbol_continuous_through_zero():
    # the removable singularity of tanh(s)/s must not widen the enclosure
    wh = whitham_model(0.5, 0.8)
    near = wh.symbol_at(Interval(0.0, 1e-8))
    assert near.contains(wh.symbol_at(Interval(0.0)).mid())
    assert near.width() < 1e-6


def test_essential_spectrum_contains_samples():
    models = [sh_model(0.28, -1.6, 1.0, m=2), whitham_model(0.5, 0.8)]
    for model in models:
        rays = essential_spectrum(model)
        for s in np.linspace(0.0, 12.0, 500):
            val = model.symbol_at(Interval(float(s))).mid()
            ok = False
            for ray in rays:
                lo_ok = ray.lo is None or ray.lo.lo <= val + 1e-9
                hi_ok = ray.hi is None or val <= ray.hi.hi + 1e-9
                ok = ok or (lo_ok and hi_ok)
            assert ok, (model.name, s, val)


def test_gray_scott_essential_is_union_of_diagonal_ranges():
    gs = gray_scott_model(Interval(1.0) / Interval(9.0), 10.0)
    rays = essential_spectrum(gs)
    for s in np.linspace(0.0, 20.0, 400):
        (a, _), (_, d) = gs.symbol_matrix(Interval(float(s)))
        for val in (a.mid(), d.mid()):
            assert any((ray.lo is None or ray.lo.lo <= val + 1e-9)
                       and (ray.hi is None or val <= ray.hi.hi + 1e-9)
                       for ray in rays)


# -- kappa ----------------------------------------------------------------

def test_sh_kappa_against_quadrature_oracle():
    model = sh_model(0.28, -1.6, 1.0, m=2)
    kap = model.kappa()

    def integrand(s):
        return s / ((1.0 - s * s) ** 2 + 0.28) ** 2

    val, err = integrate.quad(integrand, 0.0, np.inf, limit=400)
    oracle = math.sqrt(val / (2 * math.pi)) / 0.28
    assert kap.lo <= oracle * (1 + 1e-6) and kap.hi >= oracle * (1 - 1e-6)
    assert kap.width() <= 0.02 * oracle
    assert 3.2 < oracle < 3.3


def test_gray_scott_kappa_dominates_samples():
    gs = gray_scott_model(Interval(1.0) / Interval(9.0), 10.0)
    kap = gs.kappa()
    best = 0.0
    for s in np.linspace(0.0, 30.0, 3000):
        l = np.array([[-s * s / 9.0 - 1.0, 0.0],
                      [10.0 / 9.0 - 1.0, -s * s - 10.0]])
        best = max(best, np.linalg.norm(np.linalg.inv(l), 2))
    assert kap.hi >= best * (1 - 1e-9)
    assert kap.hi <= 1.2  # Frobenius overshoot stays modest here


def test_reciprocal_l2_tail_rejected_for_slow_growth():
    wh = whitham_model(0.5, 0.8)
    with pytest.raises(TailNotIntegrable):
        rigorous_L2_of_reciprocal(wh)


# -- Swift-Hohenberg eigenvalue upper bound -------------------------------

def test_sh_lambda_max_trivial():
    model = sh_model(0.28, -1.6, 1.0, m=2)
    lm = model.lambda_max(Interval(0.0), Interval(0.0), Interval(0.0))
    assert lm.contains(-0.28)


def test_sh_lambda_max_hand_arithmetic():
    # U0 = 0.1 * delta0: |V0|_1 = |2(-1.6)(0.1) + 3(0.1)^2| handled as
    # the l1 bound 2|nu1| 0.1 + 3 |nu2| 0.01 treated through the formula
    # with l1_u0 = 0.1 and l1_v0 = |2 nu1 u0 + 3 nu2 u0*u0|_1 = 0.29
    model = sh_model(0.28, -1.6, 1.0, m=2)
    lm = model.lambda_max(Interval(0.1), Interval(0.29), Interval(0.0))
    assert abs(lm.hi - 0.01) < 1e-12


def test_sh_lambda_max_monotone_in_r0():
    model = sh_model(0.28, -1.6, 1.0, m=2)
    u0 = Interval(0.1)
    v0 = Interval(0.29)
    prev = -math.inf
    for r0 in (0.0, 1e-6, 1e-3, 1e-1):
        lm = model.lambda_max(u0, v0, Interval(r0))
        assert lm.hi >= prev
        prev = lm.hi


# -- decay bounds ---------------------------------------------------------

def test_sh_decay_closed_form():
    model = sh_model(0.28, -1.6, 1.0, m=2)
    window = Interval(-0.01, 0.05)
    dec = model.decay_provider(window)
    lam = window.lo
    a_expected = math.sqrt(math.sqrt(1.0 + 0.28 + lam) - 1.0) / 2.0
    c_expected = 1.335 / math.sqrt(0.28 + lam)
    assert abs(dec.a - a_expected) < 1e-10
    assert abs(dec.C - c_expected) < 1e-10
    with pytest.raises(DecayDomainMismatch):
        model.decay_provider(Interval(-0.5, 0.0))


def test_whitham_decay_table_lookup():
    table = (DecayBound(0.1, 0.5, C=2.0, a=0.3),)
    model = whitham_model(0.5, 0.8, decay_table=table)
    dec = model.decay_for(Interval(0.2, 0.4))
    assert dec.C == 2.0 and dec.a == 0.3
    with pytest.raises(DecayDomainMismatch):
        model.decay_for(Interval(0.0, 0.4))


# -- parameter validation -------------------------------------------------

def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParameter):
        sh_model(-0.1, 1.0, 1.0)
    with pytest.raises(InvalidParameter):
        gray_scott_model(-1.0, 10.0)
