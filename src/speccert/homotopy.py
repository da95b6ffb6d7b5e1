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
(r + |center + t|) * factor_sa.

Most bounds depend on the spectral window but not on the shift t, so
`window_bounds` computes them once per certificate: kappa and the Lipschitz
drift, Z11, Z12, Zu1, Zu2, C1 r0, kappa1, kappa2 and kappa2_q, and the
window distances of the symbol values.  The symbol values and the block
H = DG(shell <- inner) come built on the DiskSet; `shell_coupling` forms
H P, once, and derives Pinv DG(inner <- shell) from it.
`compute_bounds` adds what each shift of the ladder needs: (S + t)^{-1},
Z13, Z14, the matrix factor behind Zu3 and C2 r0, the inflation factors, and
the self-adjoint factor with its disk gap.
The q-refined path charges Zu2 and Zu3 with the fixed multiplier Q_MULT.
Each quantity is held once: a certificate's `bounds` is the HomotopyBounds
of its shift, and `bounds.window_bounds` the WindowBounds it shares with
every other shift.

The stage runs on the real line.  Every model that reaches it is scalar and
self-adjoint, so the window, the shift t and the kernel diagonal w0 are
Intervals, a disk center is read through its real part (its imaginary part
is exactly [0, 0]), and a diagonal weight such as (S + t)^{-1} multiplies a
block as a row scaling, O(n^2) instead of a dense O(n^3) product.  Each
spectral norm (Z11, Z13, Z14, the factor behind Zu3 and C2 r0, the Neumann
defect) is imatrix.op_norm2_bound, whose Gershgorin bound on the Gram costs
one float product, so a per-shift norm costs one n^3 product.
Per-index loops (kernel modes, window distances, weights, disk gaps,
inflated radii) run on IArrays with the scalar bits, summing in index
order; the Neumann head search stops once it cannot change its maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditionViolated, DivisionByZeroInterval
# conv_block and symbol_diag go unused here; bench/tracing.py wraps them by these names
from .finite import DiskSet, PseudoDiag, conv_block, min_tail_freq, symbol_diag  # noqa: F401
from .fourier import FourierSeq, conv
from .imatrix import IMatrix, op_norm2_bound
from .interval import PI, IArray, Interval, iv_exp, iv_sqrt
from .models import DecayBound, Model
from .radial import bb_sup, radial_inf

Q_MULT = 2.0                  # multiplier of Zu2 and Zu3 on the q-refined path


# ---------------------------------------------------------------------------
# distances between symbol values and the spectral window


def dist_to_window(v: IArray, window: Interval) -> IArray:
    """Enclosures of inf over mu in the window of |v - mu| for the real
    elements of v, rounded outward: window.lo - v below the window,
    v - window.hi above it, and [0, max of both upper ends] where v meets it."""
    lo_v, v_lo = Interval(window.lo) - v, v - Interval(window.lo)
    hi_v, v_hi = Interval(window.hi) - v, v - Interval(window.hi)
    below, above = v.hi < window.lo, v.lo > window.hi
    meet = np.where(hi_v.hi > v_lo.hi, hi_v.hi, v_lo.hi)
    return IArray._of(np.where(below, lo_v.lo, np.where(above, v_hi.lo, 0.0)),
                      np.where(below, lo_v.hi, np.where(above, v_hi.hi, meet)),
                      lo_v.err)


def sup_to_window(v: Interval, window: Interval) -> Interval:
    """Upper bound, as a point interval, on sup over mu in the window of
    |v - mu| for real v (or, elementwise, an IArray)."""
    return (v - window).abs().upper()


def _minorant_tail_lo(model: Model, mag: float):
    """tail_lo(r) for radial_inf: a lower bound on |l(s)| - mag over s >= r
    from the growth minorant, and 0 below its threshold.  It bounds every
    |l(s) - z| with |z| <= mag."""

    def tail_lo(r: float) -> float:
        if r < model.minorant.s0:
            return 0.0
        v = Interval(model.minorant.value_lo(r)) - Interval(mag)
        return max(v.lo, 0.0)

    return tail_lo


def window_dist_inf(model: Model, window: Interval, s_min: float) -> Interval:
    """Certified inf over s >= s_min of dist(l(s), window)."""

    def f(s: Interval) -> Interval:
        return dist_to_window(model.symbol_at(s), window)

    return radial_inf(f, s_min, _minorant_tail_lo(model, window.mag()), tol=1e-9)


# ---------------------------------------------------------------------------
# weighted kernel integrals


def _modes(st: int, a: Interval, d: float, e2ad: Interval) -> IArray:
    """Integrals of e^{i pi j y / d} (e^{2ay} + e^{-2ay}) over (-d, d) for
    j = -st, ..., st."""
    j = np.arange(-st, st + 1)
    theta2 = (PI * IArray(j.astype(np.float64)) / Interval(d)).sq()
    four_a = Interval(4.0) * a
    val = ((e2ad - Interval(1.0) / e2ad) * four_a / (four_a * a + theta2)).checked()
    return IArray(np.where(j % 2, -val.hi, val.lo), np.where(j % 2, -val.lo, val.hi))


def kernel_weight_integrals(w: FourierSeq, a: Interval) -> dict:
    """Integrals of w(y)^2 against exponential weights over Omega_d.

    Returns enclosures of
      cosh[i] = integral of w^2 (e^{2 a y_i} + e^{-2 a y_i}) dy,
      coshcosh = integral of w^2 prod_i (e^{2 a y_i} + e^{-2 a y_i}) dy
    (the latter only for m = 2).  All are nonnegative by inspection.  Each
    is an IArray of terms summed in mode order, row-major for coshcosh.
    """
    grid = w.grid
    d = grid.d
    t = conv(w, w)
    tlo, thi = t.expand_signed()
    st = t.S
    modes = _modes(st, a, d, iv_exp(Interval(2.0) * a * Interval(d)))
    out = {"cosh": [], "coshcosh": None}
    if grid.m == 1:
        out["cosh"].append(_clamp_nonneg((IArray(tlo, thi) * modes).sum()))
    else:
        two_d = Interval(2.0 * d)
        for c in (IArray(tlo[:, st], thi[:, st]), IArray(tlo[st], thi[st])):
            out["cosh"].append(_clamp_nonneg((c * modes * two_d).sum()))
        j = np.arange(2 * st + 1)
        c = IArray(tlo.ravel(), thi.ravel())
        out["coshcosh"] = _clamp_nonneg((c * modes[np.repeat(j, len(j))]
                                         * modes[np.tile(j, len(j))]).sum())
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


def _diag_shift_inv(pseudo: PseudoDiag, t: float) -> IArray:
    """The diagonal (lam_n + t)^{-1} of (S + t)^{-1}; a shift whose -t lies
    in the enclosure of some lam_n is rejected."""
    sinv = Interval(1.0) / (pseudo.lams + Interval(t))
    if sinv.err is not None and sinv.err.any():
        for lam, e in zip(pseudo.lams.elements(), sinv.errors()):
            if isinstance(e, DivisionByZeroInterval):
                raise ConditionViolated(f"shift t = {t!r} puts -t inside the eigenvalue "
                                        f"enclosure {lam} of the finite block")
    return sinv.checked()


@dataclass
class WindowBounds:
    """The bounds of one certificate that do not depend on the shift t.

    Built once by `window_bounds` and shared by every `compute_bounds` call
    of the shift ladder.  The l1 norm of the kernel is `disks.l1w`.
    """

    model: Model
    pseudo: PseudoDiag
    disks: DiskSet
    window: Interval
    sup_mid: IArray               # sup distance of each shell l(n~) to the window
    colw: np.ndarray              # sup distance of each inner l(n~) to the window
    z11: Interval
    z12: Interval
    zu1: Interval
    zu2: Interval
    c1r0: Interval
    kappa1: Interval
    sq: Interval                  # sqrt(1 + kappa1^2)
    dg_p: IMatrix | None          # DG(shell <- inner) P; None without a shell
    pinv_dg: IMatrix | None       # Pinv DG(inner <- shell); None without a shell
    kappa2: Interval
    kappa2q: Interval
    conditions: dict


def shell_coupling(disks: DiskSet, pseudo: PseudoDiag):
    """(H P, Pinv G), G = H^T, or (None, None): see gershgorin_disks."""
    if disks.dg is None:
        return None, None
    dg_p = disks.dg @ pseudo.P
    pad = (IArray(disks.dg_delta[:, None]) * IArray(disks.dg_s)).hi
    return dg_p, dg_p.T + IArray(-pad, pad)


def window_bounds(model: Model, w: FourierSeq, u0_l1: Interval, r0: float,
                  pseudo: PseudoDiag, disks: DiskSet,
                  window: Interval) -> WindowBounds:
    """Z11, Z12, Zu1, Zu2, C1 r0, kappa1, kappa2 and kappa2_q for a window.
    Raises ConditionViolated when an inequality fails for every shift."""
    p = len(pseudo.lams.lo)

    # Z11: shell rows against the window-weighted resolvent
    lam_mid = disks.lam[p:]
    dg_p, pinv_dg = shell_coupling(disks, pseudo)
    if dg_p is not None:
        dist = dist_to_window(lam_mid, window)
        if (dist.lo <= 0).any():
            raise ConditionViolated("window touches a symbol value in the shell")
        z11 = op_norm2_bound(dg_p.scale_rows(Interval(1.0) / dist))
    else:
        z11 = Interval(0.0)

    # Z12: Schur bound on the outer-outer block
    dist_outer = window_dist_inf(model, window, min_tail_freq(w.grid, disks.n_inner))
    if dist_outer.lo <= 0:
        raise ConditionViolated("window touches the outer symbol range")
    z12 = Interval(0.0, (Interval(disks.tail_radius) / Interval(dist_outer.lo)).hi)

    # decay-based periodization defects
    decay = model.decay_provider(window)
    zu1, zu2 = zu_base_bounds(w, decay)

    # Lipschitz drift
    kappa = model.kappa()
    lip_total = model.lip_dg(u0_l1, Interval(r0), kappa)
    dist_all = window_dist_inf(model, window, 0.0)
    if dist_all.lo <= 0:
        raise ConditionViolated("window touches the essential spectrum")
    c1r0 = Interval(0.0, (lip_total / Interval(dist_all.lo)).hi)
    if c1r0.hi >= 1.0:
        raise ConditionViolated(
            f"C1 r0 = {c1r0.hi} >= 1; shrink r0 or move the window away "
            "from the essential spectrum")
    kappa1 = (zu1 + c1r0) / (Interval(1.0) - c1r0)
    sq = iv_sqrt(Interval(1.0) + kappa1.sq())

    p_norm = pseudo.p_norm
    kappa2 = kappa2_formula(z11, z12, zu2, sq * c1r0, p_norm)
    zu2q = Interval(Q_MULT) * zu2
    kappa2q = kappa2_formula(z11, z12, zu2q, Interval(0.0), p_norm)
    conditions = {
        "C1 r0 < 1": (c1r0.hi, 1.0),
        "1 - Z12 - Zu2 - sqrt(1+kappa1^2) C1 r0 > 0":
            ((Interval(1.0) - z12 - zu2 - sq * c1r0).lo, 0.0),
        "1 - Z12 - Zu2_q > 0": ((Interval(1.0) - z12 - zu2q).lo, 0.0),
    }
    return WindowBounds(
        model=model, pseudo=pseudo, disks=disks, window=window,
        sup_mid=sup_to_window(lam_mid, window),
        colw=sup_to_window(disks.lam[:p], window).hi,
        z11=z11, z12=z12, zu1=zu1, zu2=zu2, c1r0=c1r0,
        kappa1=kappa1, sq=sq, dg_p=dg_p, pinv_dg=pinv_dg,
        kappa2=kappa2, kappa2q=kappa2q,
        conditions=conditions,
    )


@dataclass
class HomotopyBounds:
    """The bounds at one shift t; the shift-independent ones are read
    through `window_bounds`."""

    window_bounds: WindowBounds
    t: float
    z13: Interval
    z14: Interval
    zu3: Interval
    c2r0: Interval
    eps_factor: Interval          # shared multiplier of |center + t|
    eps_factor_inf: Interval
    eps_factor_q: Interval
    sa_factor: Interval           # multiplier of (r + |center + t|)
    gap: Interval                 # [lower bound on dist(-t, certified disks), inf]


def compute_bounds(wb: WindowBounds, t: float) -> HomotopyBounds:
    """The bounds at shift t: Z13, Z14, Zu3, C2 r0, the inflation factors
    and the self-adjoint factor."""
    model, pseudo, disks, window = wb.model, wb.pseudo, wb.disks, wb.window
    sinv = _diag_shift_inv(pseudo, t)

    # Z13: off-diagonal of the diagonalized block, weighted by (S + t)^{-1}
    z13 = op_norm2_bound(pseudo.off.scale_rows(sinv))

    # Z14: coupling into the shell through Pinv DG
    z14 = (Interval(0.0) if wb.pinv_dg is None
           else op_norm2_bound(wb.pinv_dg.scale_rows(sinv)))

    # finite matrix factor shared by Zu3 and C2: the norm of |G| diag(colw),
    # each product rounded up as the IArray product rounds it
    g = pseudo.Pinv.scale_rows(sinv)
    fmat = op_norm2_bound(IMatrix.from_point((IArray(g.mag()) * IArray(wb.colw)).hi))
    zu2, c1r0, sq = wb.zu2, wb.c1r0, wb.sq
    zu3 = Interval(0.0, (zu2 * fmat).hi)
    c2r0 = Interval(0.0, (c1r0 * fmat).hi)

    p_norm = pseudo.p_norm
    kappa2, kappa2q = wb.kappa2, wb.kappa2q
    factor_inf = z13 + z14 * kappa2 + (zu3 + c2r0 * sq) * (p_norm + kappa2)
    zu3q = Interval(Q_MULT) * zu3
    factor_q = z13 + z14 * kappa2q + zu3q * (p_norm + kappa2q)
    eps_factor = Interval(0.0, max(factor_inf.hi, factor_q.hi))

    tail_inf = _shifted_tail_inf(model, disks, t)
    gap = _disk_gap(disks, t, tail_inf)
    if gap.lo <= 0:
        raise ConditionViolated("shift -t is not separated from the disks")
    sup_tmu = sup_to_window(Interval(-t), window)
    dgn = Interval(disks.sym_factor) * disks.l1w
    fsa = Interval(1.0) + (dgn + Interval(sup_tmu.hi)) / Interval(gap.lo)
    fne = _selfadjoint_factor_neumann(wb, t, z13, z14, fmat, tail_inf)
    if fne is not None and fne.hi < fsa.hi:
        fsa = fne
    zu3_sa = zu2 * fsa
    c2r0_sa = c1r0 * fsa
    fac_gen = zu3_sa + c2r0_sa * sq
    fac_q = Interval(Q_MULT) * zu3_sa
    sa_factor = Interval(0.0, max(fac_gen.hi, fac_q.hi))

    return HomotopyBounds(
        window_bounds=wb,
        t=t,
        z13=Interval(0.0, z13.hi), z14=Interval(0.0, z14.hi),
        zu3=zu3, c2r0=c2r0,
        eps_factor=eps_factor,
        eps_factor_inf=Interval(0.0, factor_inf.hi),
        eps_factor_q=Interval(0.0, factor_q.hi),
        sa_factor=sa_factor,
        gap=gap,
    )


def _selfadjoint_factor_neumann(wb: WindowBounds, t: float, z13: Interval,
                                z14: Interval, fmat: Interval,
                                den_tail: Interval) -> Interval | None:
    """Pseudo-diagonal route to sup_mu |(DF + t)^{-1} (L - mu)|_2.

    Conjugating by the extended basis P (+) I gives S + t plus a defect E
    weighted by (S + t)^{-1}; when the total block-norm bound e of E stays
    below 1 the factor is |P| / (1 - e) times the weighted comparison of
    the symbol against the diagonal.  den_tail is the certified min of
    |l + w0 + t| over the continuum tail.  Returns None when e >= 1.
    """
    model, pseudo, disks, window = wb.model, wb.pseudo, wb.disks, wb.window
    w0 = disks.w0
    t_iv = Interval(t)
    shell_d = (disks.center_re[len(pseudo.lams.lo):] + t_iv).abs().checked()
    den_min = min([den_tail.lo] + shell_d.lo.tolist())
    if den_min <= 0:
        return None
    shell_w = Interval(1.0) / shell_d

    # block-norm bound on the weighted defect E
    e = z13 + z14
    if len(shell_w.lo):
        e = e + op_norm2_bound(wb.dg_p.scale_rows(shell_w))
    e = e + Interval(disks.tail_radius) / Interval(den_min)
    if e.hi >= 1.0:
        return None

    # weighted symbol comparison: finite block via fmat, outer rows by ratio
    ratio = max([fmat.hi] + (wb.sup_mid * shell_w).hi.tolist())

    def fratio(s: Interval) -> Interval:
        lam = model.symbol_at(s)
        return sup_to_window(lam, window) / (lam + w0 + t_iv).abs()

    mag = (w0.abs() + Interval(abs(t))).hi
    tail_lo = _minorant_tail_lo(model, mag)
    r_cut = max(4.0 * model.minorant.s0, 2.0 * disks.min_tail_s, 16.0)
    for _ in range(40):
        if tail_lo(r_cut) > 0:
            break
        r_cut *= 2.0
    far_den = tail_lo(r_cut)
    if far_den <= 0:
        return None
    far = Interval(1.0) + (Interval(mag) + Interval(window.mag())) / Interval(far_den)
    # the head only counts where it beats far and ratio, so its search
    # stops once its certified upper end is below both
    head = bb_sup(fratio, disks.min_tail_s, r_cut, tol=1e-2,
                  stop=max(far.hi, ratio))
    ratio_out = max(head.hi, far.hi, ratio)

    return (pseudo.p_norm * Interval(0.0, ratio_out)
            / (Interval(1.0) - e))


def _shifted_tail_inf(model: Model, disks: DiskSet, t: float) -> Interval:
    """Certified inf of |l(s) + w0 + t| over the tail region s >= min_tail_s."""
    w0 = disks.w0

    def f(s: Interval) -> Interval:
        return (model.symbol_at(s) + w0 + Interval(t)).abs()

    mag = (w0.abs() + Interval(abs(t))).hi
    return radial_inf(f, disks.min_tail_s, _minorant_tail_lo(model, mag),
                      tol=1e-9)


def _disk_gap(disks: DiskSet, t: float, tail_inf: Interval) -> Interval:
    """[g, inf] with g a lower bound on dist(-t, union of certified disks),
    given the tail minimum from `_shifted_tail_inf`."""
    mig = (disks.center_re + Interval(t)).checked().mig()
    gaps = (IArray(mig) - IArray(disks.radii)).checked()
    tail = tail_inf - Interval(disks.tail_radius)
    return Interval(min(gaps.lo.tolist() + [tail.lo]), math.inf)


def inflate_disks(disks: DiskSet, bounds: HomotopyBounds) -> list:
    """Final radii per explicit disk, Gershgorin radius plus inflation, as
    (selfadjoint_path, radii) pairs: the general family, then the
    self-adjoint one."""
    radii = IArray(disks.radii)
    shifted = IArray((disks.center_re + Interval(bounds.t)).checked().mag())

    def family(eps: IArray) -> list:
        return (radii + eps.upper()).checked().hi.tolist()

    return [(False, family(bounds.eps_factor * shifted)),
            (True, family(bounds.sa_factor * (radii + shifted)))]
