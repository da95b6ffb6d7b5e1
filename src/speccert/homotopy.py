"""Homotopy inflation: from disks of the truncated problem to the PDE.

The finite stage certifies disks for the linearization at the periodic
approximation; this stage charges three families of defects against them:

  * Z1 terms: truncation coupling inside the computed blocks;
  * Zu terms: the mismatch between the problem on the line (or plane) and
    its periodization, bounded through Hilbert-Schmidt norms of resolvent
    kernels, using the decay bound |kernel| <= C exp(-a |x|_1);
  * C terms: the Lipschitz drift from the approximate to the true state.

Every disk is inflated by eps = |center + t| * factor with a factor shared
by all disks, and a self-adjoint shortcut yields the alternative inflation
(r + |center + t|) * factor_sa when the model is self-adjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditionViolated, ReductionUnavailable
from .finite import DiskSet, PseudoDiag, conv_block, min_tail_freq, symbol_diag
from .fourier import FourierSeq, conv, seq_l1
from .imatrix import IMatrix, op_norm2_bound
from .interval import PI, ComplexBox, Interval, iv_exp, iv_sqrt
from .models import DecayBound, Model
from .radial import bb_sup, radial_inf


# ---------------------------------------------------------------------------
# distances between symbol values and the spectral window


def dist_to_window(v: Interval, window: ComplexBox) -> Interval:
    """Enclosure of inf over mu in the window of |v - mu| for real v."""
    re = window.re
    if v.hi < re.lo:
        dx = Interval(re.lo) - v
    elif v.lo > re.hi:
        dx = v - Interval(re.hi)
    else:
        gap_lo = max(re.lo - v.hi, v.lo - re.hi)
        dx = Interval(max(gap_lo, 0.0), max(v.hi - re.lo, re.hi - v.lo, 0.0))
    dx = Interval(max(dx.lo, 0.0), max(dx.hi, 0.0))
    return iv_sqrt(dx.sq() + Interval(window.im.mig()).sq())


def sup_to_window(v: Interval, window: ComplexBox) -> Interval:
    """Enclosure of sup over mu in the window of |v - mu| for real v."""
    dx = (v - window.re).abs()
    dy = window.im.abs()
    return iv_sqrt(Interval(dx.hi).sq() + Interval(dy.hi).sq())


def window_dist_inf(model: Model, window: ComplexBox, s_min: float) -> Interval:
    """Certified inf over s >= s_min of dist(l(s), window)."""
    wmag = window.abs().hi

    def f(s: Interval) -> Interval:
        return dist_to_window(model.symbol_at(s), window)

    def tail_lo(r: float) -> float:
        if r < model.minorant.s0:
            return 0.0
        v = Interval(model.minorant.value_lo(r)) - Interval(wmag)
        return max(v.lo, 0.0)

    return radial_inf(f, s_min, tail_lo, tol=1e-9)


# ---------------------------------------------------------------------------
# weighted kernel integrals


def _mode1(j: int, a: Interval, d: float, e2ad: Interval) -> Interval:
    """Integral of e^{i pi j y / d} (e^{2ay} + e^{-2ay}) over (-d, d)."""
    theta2 = (PI * Interval(float(j)) / Interval(d)).sq()
    four_a = Interval(4.0) * a
    val = (e2ad - Interval(1.0) / e2ad) * four_a / (four_a * a + theta2)
    return val if j % 2 == 0 else -val


def kernel_weight_integrals(w: FourierSeq, a: Interval) -> dict:
    """Integrals of w(y)^2 against exponential weights over Omega_d.

    Returns enclosures of
      cosh[i] = integral of w^2 (e^{2 a y_i} + e^{-2 a y_i}) dy,
      coshcosh = integral of w^2 prod_i (e^{2 a y_i} + e^{-2 a y_i}) dy
    (the latter only for m = 2).  All are nonnegative by inspection.
    """
    grid = w.grid
    d = grid.d
    t = conv(w, w)
    tlo, thi = t.expand_signed()
    st = t.S
    e2ad = iv_exp(Interval(2.0) * a * Interval(d))
    modes = {}

    def mode1(j: int) -> Interval:
        if j not in modes:
            modes[j] = _mode1(j, a, d, e2ad)
        return modes[j]

    two_d = Interval(2.0 * d)
    out = {"cosh": [], "coshcosh": None}
    if grid.m == 1:
        total = Interval(0.0)
        for j in range(-st, st + 1):
            c = Interval(float(tlo[j + st]), float(thi[j + st]))
            total = total + c * mode1(j)
        out["cosh"].append(_clamp_nonneg(total))
    else:
        for axis in (0, 1):
            total = Interval(0.0)
            for j in range(-st, st + 1):
                if axis == 0:
                    c = Interval(float(tlo[j + st, st]), float(thi[j + st, st]))
                else:
                    c = Interval(float(tlo[st, j + st]), float(thi[st, j + st]))
                total = total + c * mode1(j) * two_d
            out["cosh"].append(_clamp_nonneg(total))
        total = Interval(0.0)
        for j1 in range(-st, st + 1):
            m1 = mode1(j1)
            for j2 in range(-st, st + 1):
                c = Interval(float(tlo[j1 + st, j2 + st]),
                             float(thi[j1 + st, j2 + st]))
                total = total + c * m1 * mode1(j2)
        out["coshcosh"] = _clamp_nonneg(total)
    return out


def _clamp_nonneg(v: Interval) -> Interval:
    return Interval(max(v.lo, 0.0), max(v.hi, 0.0))


def zu_base_bounds(w: FourierSeq, decay: DecayBound) -> tuple:
    """(Zu1, Zu2): Hilbert-Schmidt bounds for the outside leakage and the
    periodization defect of resolvent-times-multiplication operators."""
    grid = w.grid
    d = grid.d
    a = Interval(decay.a)
    c = Interval(decay.C)
    ints = kernel_weight_integrals(w, a)
    em2ad = Interval(1.0) / iv_exp(Interval(2.0) * a * Interval(d))
    qg = Interval(1.0) / (Interval(1.0) - em2ad)
    if qg.lo <= 0:
        raise ConditionViolated("periodization sum does not contract")
    c2 = c.sq()
    if grid.m == 1:
        wc = ints["cosh"][0]
        zu1 = iv_sqrt(c2 * em2ad / (Interval(2.0) * a) * wc)
        zu2 = iv_sqrt(c2 * qg.sq() / a * em2ad * wc)
    else:
        wc_sum = ints["cosh"][0] + ints["cosh"][1]
        a2 = a.sq()
        zu1 = iv_sqrt(c2 * em2ad / (Interval(2.0) * a2) * wc_sum)
        t_each = qg.sq() / a2 * em2ad * wc_sum
        t_cross = iv_sqrt(qg.sq().sq()) * em2ad.sq() * ints["coshcosh"]
        hs2 = Interval(3.0) * c2 * (t_each + t_cross)
        zu2 = iv_sqrt(hs2)
    return Interval(0.0, zu1.hi), Interval(0.0, zu2.hi)


# ---------------------------------------------------------------------------
# bound assembly


@dataclass
class HomotopyBounds:
    window: ComplexBox
    t: float
    q_mult: float
    z11: Interval
    z12: Interval
    z13: Interval
    z14: Interval
    zu1: Interval
    zu2: Interval
    zu3: Interval
    zu2q: Interval                # q-refined variants
    zu3q: Interval
    c1r0: Interval
    c2r0: Interval
    kappa1: Interval
    kappa2: Interval
    kappa2q: Interval
    p_norm: Interval
    eps_factor: Interval          # shared multiplier of |center + t|
    eps_factor_inf: Interval
    eps_factor_q: Interval
    sa_factor: Interval | None    # multiplier of (r + |center + t|)
    gap: Interval | None          # dist(-t, certified disks), self-adjoint
    conditions: dict = None       # name -> (value hi, threshold), all checked


def kappa2_formula(z11: Interval, z12: Interval, zu2_eff: Interval,
                   drift: Interval, p_norm: Interval) -> Interval:
    """kappa2 = (Z11 + (Zu2_eff + drift) |P|) / (1 - Z12 - Zu2_eff - drift).

    drift is sqrt(1 + kappa1^2) C1 r0 on the general path and 0 on the
    q-refined path.  Raises when the denominator cannot be certified
    positive.
    """
    denom = Interval(1.0) - z12 - zu2_eff - drift
    if denom.lo <= 0:
        raise ConditionViolated(
            f"1 - Z12 - Zu2 - drift = {denom.lo} <= 0: the homotopy "
            "contraction cannot be certified")
    return (z11 + (zu2_eff + drift) * p_norm) / denom


def _diag_shift_inv(pseudo: PseudoDiag, t: float):
    """diag((lam_n + t)^{-1}) as an interval matrix; fails through zero."""
    boxes = []
    for lam in pseudo.lams:
        boxes.append(ComplexBox(Interval(1.0)) / (lam + ComplexBox(Interval(t))))
    return IMatrix.diag(boxes)


def compute_bounds(model: Model, w: FourierSeq, u0_l1: Interval, r0: float,
                   pseudo: PseudoDiag, disks: DiskSet, window: ComplexBox,
                   t: float, q_mult: float = 2.0,
                   want_selfadjoint: bool = True) -> HomotopyBounds:
    grid = w.grid
    sector = disks.sector
    n_in = disks.n_inner
    inner = disks.inner_indices
    mid = disks.mid_indices
    c_m = disks.sym_factor
    l1w = seq_l1(w)
    w0_abs = disks.w0.abs()

    sinv = _diag_shift_inv(pseudo, t)

    # Z13: off-diagonal of the diagonalized block, weighted by (S + t)^{-1}
    dmat = pseudo.D
    off = dmat.mag()
    np.fill_diagonal(off, 0.0)
    z13 = op_norm2_bound(sinv @ IMatrix.from_point(off))

    # Z14: coupling into the shell through Pinv DG
    if mid:
        dg_in_mid = conv_block(w, sector, inner, mid)
        z14 = op_norm2_bound(sinv @ (pseudo.Pinv @ dg_in_mid))
    else:
        z14 = Interval(0.0)

    # Z11: shell rows against the window-weighted resolvent
    lam_mid = symbol_diag(model, grid, mid) if mid else []
    dg_mid_in = None
    if mid:
        wts = []
        for lam in lam_mid:
            dist = dist_to_window(lam, window)
            if dist.lo <= 0:
                raise ConditionViolated(
                    "window touches a symbol value in the shell")
            wts.append(Interval(1.0) / dist)
        wdiag = IMatrix.diag([ComplexBox(Interval(0.0, x.hi)) for x in wts])
        dg_mid_in = conv_block(w, sector, mid, inner)
        z11 = op_norm2_bound(wdiag @ (dg_mid_in @ pseudo.P))
    else:
        z11 = Interval(0.0)

    # Z12: Schur bound on the outer-outer block
    s_min_n = min_tail_freq(grid, n_in)
    dist_outer = window_dist_inf(model, window, s_min_n)
    if dist_outer.lo <= 0:
        raise ConditionViolated("window touches the outer symbol range")
    z12 = Interval(c_m) * (l1w - w0_abs) / Interval(dist_outer.lo)
    z12 = Interval(0.0, z12.hi)

    # finite matrix factor shared by Zu3 and C2
    colw = []
    for lam in symbol_diag(model, grid, inner):
        colw.append(sup_to_window(lam, window))
    g = sinv @ pseudo.Pinv
    gmag = g.mag() * np.array([x.hi for x in colw])[None, :]
    fmat = op_norm2_bound(IMatrix.from_point(gmag))

    # decay-based periodization defects
    decay = model.decay_provider(window.re)
    zu1, zu2 = zu_base_bounds(w, decay)
    zu3 = Interval(0.0, (zu2 * fmat).hi)

    # Lipschitz drift
    r0_iv = Interval(r0)
    kappa = model.kappa()
    lip_total = model.lip_dg(u0_l1, r0_iv, kappa)
    dist_all = window_dist_inf(model, window, 0.0)
    if dist_all.lo <= 0:
        raise ConditionViolated("window touches the essential spectrum")
    c1r0 = Interval(0.0, (lip_total / Interval(dist_all.lo)).hi)
    c2r0 = Interval(0.0, (c1r0 * fmat).hi)

    if c1r0.hi >= 1.0:
        raise ConditionViolated(
            f"C1 r0 = {c1r0.hi} >= 1; shrink r0 or move the window away "
            "from the essential spectrum")
    kappa1 = (zu1 + c1r0) / (Interval(1.0) - c1r0)
    sq = iv_sqrt(Interval(1.0) + kappa1.sq())

    p_norm = pseudo.p_norm
    kappa2 = kappa2_formula(z11, z12, zu2, sq * c1r0, p_norm)
    factor_inf = z13 + z14 * kappa2 + (zu3 + c2r0 * sq) * (p_norm + kappa2)

    zu2q = Interval(q_mult) * zu2
    zu3q = Interval(q_mult) * zu3
    kappa2q = kappa2_formula(z11, z12, zu2q, Interval(0.0), p_norm)
    factor_q = z13 + z14 * kappa2q + zu3q * (p_norm + kappa2q)

    eps_factor = Interval(0.0, max(factor_inf.hi, factor_q.hi))
    conditions = {
        "C1 r0 < 1": (c1r0.hi, 1.0),
        "1 - Z12 - Zu2 - sqrt(1+kappa1^2) C1 r0 > 0":
            ((Interval(1.0) - z12 - zu2 - sq * c1r0).lo, 0.0),
        "1 - Z12 - Zu2_q > 0": ((Interval(1.0) - z12 - zu2q).lo, 0.0),
    }

    sa_factor = None
    gap = None
    if want_selfadjoint and model.self_adjoint:
        gap = _disk_gap(model, disks, t)
        if gap.lo <= 0:
            raise ConditionViolated("shift -t is not separated from the disks")
        sup_tmu = sup_to_window(Interval(-t), window)
        dgn = Interval(c_m) * l1w
        fsa = Interval(1.0) + (dgn + Interval(sup_tmu.hi)) / Interval(gap.lo)
        fne = _selfadjoint_factor_neumann(
            model, w, disks, pseudo, window, t, z13, z14, fmat,
            dg_mid_in if mid else None)
        if fne is not None and fne.hi < fsa.hi:
            fsa = fne
        zu3_sa = zu2 * fsa
        c2r0_sa = c1r0 * fsa
        fac_gen = zu3_sa + c2r0_sa * sq
        fac_q = Interval(q_mult) * zu3_sa
        sa_factor = Interval(0.0, max(fac_gen.hi, fac_q.hi))

    return HomotopyBounds(
        window=window,
        t=t,
        q_mult=q_mult,
        z11=z11, z12=z12, z13=Interval(0.0, z13.hi), z14=Interval(0.0, z14.hi),
        zu1=zu1, zu2=zu2, zu3=zu3,
        zu2q=Interval(0.0, zu2q.hi),
        zu3q=Interval(0.0, zu3q.hi),
        c1r0=c1r0, c2r0=c2r0,
        kappa1=Interval(0.0, kappa1.hi),
        kappa2=Interval(0.0, kappa2.hi),
        kappa2q=Interval(0.0, kappa2q.hi),
        p_norm=p_norm,
        eps_factor=eps_factor,
        eps_factor_inf=Interval(0.0, factor_inf.hi),
        eps_factor_q=Interval(0.0, factor_q.hi),
        sa_factor=sa_factor,
        gap=gap,
        conditions=conditions,
    )


def _selfadjoint_factor_neumann(model: Model, w: FourierSeq, disks: DiskSet,
                                pseudo: PseudoDiag, window: ComplexBox,
                                t: float, z13: Interval, z14: Interval,
                                fmat: Interval, dg_mid_in) -> Interval | None:
    """Pseudo-diagonal route to sup_mu |(DF + t)^{-1} (L - mu)|_2.

    Conjugating by the extended basis P (+) I gives S + t plus a defect E
    weighted by (S + t)^{-1}; when the total block-norm bound e of E stays
    below 1 the factor is |P| / (1 - e) times the weighted comparison of
    the symbol against the diagonal.  Returns None when e >= 1.
    """
    grid = w.grid
    c_m = disks.sym_factor
    l1w = seq_l1(w)
    w0 = disks.w0.re
    t_iv = Interval(t)
    n_fin = len(pseudo.lams)
    shell = disks.centers[n_fin:]
    shell_w = []
    for center in shell:
        d = (center + ComplexBox(t_iv)).abs()
        if d.lo <= 0:
            return None
        shell_w.append(Interval(1.0) / d)

    # certified min of |l + w0 + t| over the continuum tail
    def fden(s: Interval) -> Interval:
        return (model.symbol_at(s) + w0 + t_iv).abs()

    mag = (w0.abs() + Interval(abs(t))).hi

    def tail_lo(r: float) -> float:
        if r < model.minorant.s0:
            return 0.0
        v = Interval(model.minorant.value_lo(r)) - Interval(mag)
        return max(v.lo, 0.0)

    den_tail = radial_inf(fden, disks.min_tail_s, tail_lo, tol=1e-9)
    if den_tail.lo <= 0:
        return None
    den_min = den_tail.lo
    for wi in shell_w:
        den_min = min(den_min, 1.0 / wi.hi if wi.hi > 0 else math.inf)

    # block-norm bound on the weighted defect E
    e = z13 + z14
    if shell:
        wdiag = IMatrix.diag([ComplexBox(Interval(0.0, x.hi)) for x in shell_w])
        e = e + op_norm2_bound(wdiag @ (dg_mid_in @ pseudo.P))
    e = e + Interval(c_m) * (l1w - disks.w0.abs()) / Interval(den_min)
    if e.hi >= 1.0:
        return None

    # weighted symbol comparison: finite block via fmat, outer rows by ratio
    ratio = fmat
    lam_shell = symbol_diag(model, grid, disks.mid_indices)
    for lam, wi in zip(lam_shell, shell_w):
        r = sup_to_window(lam, window) * wi
        if r.hi > ratio.hi:
            ratio = Interval(0.0, r.hi)

    wmag = window.abs().hi

    def fratio(s: Interval) -> Interval:
        return sup_to_window(model.symbol_at(s), window) / fden(s)

    r_cut = max(4.0 * model.minorant.s0, 2.0 * disks.min_tail_s, 16.0)
    for _ in range(40):
        if tail_lo(r_cut) > 0:
            break
        r_cut *= 2.0
    far_den = tail_lo(r_cut)
    if far_den <= 0:
        return None
    head = bb_sup(fratio, disks.min_tail_s, r_cut, tol=1e-2)
    far = Interval(1.0) + Interval(mag + wmag) / Interval(far_den)
    ratio_out = max(head.hi, far.hi, ratio.hi)

    return (pseudo.p_norm * Interval(0.0, ratio_out)
            / (Interval(1.0) - e))


def _disk_gap(model: Model, disks: DiskSet, t: float) -> Interval:
    """Lower bound on dist(-t, union of certified disks)."""
    best = math.inf
    for center, radius in zip(disks.centers, disks.radii):
        v = (center + ComplexBox(Interval(t))).mig() - radius
        best = min(best, v)
    w0 = disks.w0.re

    def f(s: Interval) -> Interval:
        return (model.symbol_at(s) + w0 + Interval(t)).abs()

    mag = (w0.abs() + Interval(abs(t))).hi

    def tail_lo(r: float) -> float:
        if r < model.minorant.s0:
            return 0.0
        v = Interval(model.minorant.value_lo(r)) - Interval(mag)
        return max(v.lo, 0.0)

    tail_inf = radial_inf(f, disks.min_tail_s, tail_lo, tol=1e-9)
    best = min(best, tail_inf.lo - disks.tail_radius)
    return Interval(best)


def inflate_disks(disks: DiskSet, bounds: HomotopyBounds,
                  selfadjoint_path: bool = False) -> list:
    """Final radii per explicit disk: Gershgorin radius plus inflation."""
    out = []
    fac = bounds.sa_factor if selfadjoint_path else bounds.eps_factor
    if selfadjoint_path and bounds.sa_factor is None:
        raise ReductionUnavailable("self-adjoint path was not assembled")
    for center, radius in zip(disks.centers, disks.radii):
        shifted = (center + ComplexBox(Interval(bounds.t))).abs().hi
        if selfadjoint_path:
            eps = (fac * (Interval(radius) + Interval(shifted))).hi
        else:
            eps = (fac * Interval(shifted)).hi
        out.append((Interval(radius) + Interval(eps)).hi)
    return out
