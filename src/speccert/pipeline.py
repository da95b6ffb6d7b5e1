"""End-to-end certification: disks, homotopy inflation, counted clusters.

The driver runs one symmetry sector at a time.  A run produces a
Certificate: the certified eigenvalue enclosures of the linearization at
the true localized state inside a spectral window, with per-cluster
multiplicities, a sign summary, and the essential spectrum.  Identical
inputs produce identical certificates; nothing here calls a non-rigorous
routine except through the recorded inputs (U0, r0 are inputs, not
products).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (
    ClusterExitsDomain,
    ClusterTouchesTail,
    ConditionViolated,
    InvalidParameter,
    KernelMismatch,
    ReductionUnavailable,
)
from .finite import (
    assemble_jacobian,
    build_pseudo_diag,
    cluster_disks,
    gershgorin_disks,
    kernel_from_state,
)
from .fourier import FourierSeq, index_list, seq_l1
from .homotopy import HomotopyBounds, compute_bounds, inflate_disks, window_bounds
from .interval import Interval
from .models import Model, essential_spectrum


@dataclass
class CountedCluster:
    members: list
    lo: float
    hi: float
    count: int
    straddles_zero: bool
    label: str            # "negative" | "positive" | "contains 0 candidate" | "= 0"


@dataclass
class Certificate:
    """The model, disks and window are read through bounds.window_bounds."""

    r0: float
    delta0: float
    essential: list          # list of (lo_or_None, hi_or_None) rays
    bounds: HomotopyBounds
    disk_radii_final: list
    tail_edge: float         # certified bound of the inflated tail family
    clusters: list           # CountedCluster, only those counted inside window
    statements: list
    unstable_count: int
    kernel_statement: str
    stable: str              # "stable" | "unstable" | "unknown"
    selfadjoint_path: bool


def default_window(lam_max: float, delta0: float) -> Interval:
    """Spectral window above the essential edge, up to the eigenvalue bound."""
    if lam_max <= -delta0:
        lam_max = -delta0 + 1.0
    return Interval(-delta0, lam_max)


def select_shift(edge: float, margin: float) -> float:
    """Place -t above the certified spectral edge by the given margin."""
    return -(edge + margin)


def _spectral_edge(clusters) -> float:
    """Certified upper real edge of the explicit disks."""
    return max(c.hi for c in clusters)


@dataclass(frozen=True)
class CertifyOptions:
    delta0: float = 1e-2
    margin: float = 1.0
    window: tuple | None = None            # (lo, hi) override
    t: float | None = None
    k_inv: int = 0


def certify(model: Model, u0: FourierSeq, r0: float, N: int,
            options: CertifyOptions | None = None) -> Certificate:
    """Certify the spectrum in a window of the linearization at the true
    state within r0 of u0.  The model must be scalar and self-adjoint, with
    its essential spectrum below the window, and provide kappa_hook, lip_dg
    and lambda_max; any other raises ReductionUnavailable before any work."""
    opts = options or CertifyOptions()
    if not (r0 >= 0 and math.isfinite(r0)):
        raise InvalidParameter(f"r0={r0} must be a finite nonnegative float")
    unmet = [f"no {hook}" for hook in ("kappa_hook", "lip_dg", "lambda_max")
             if getattr(model, hook) is None]
    if model.components != 1:
        unmet.append(f"{model.components} components, not 1")
    if not model.self_adjoint:
        unmet.append("not self-adjoint")
    if model.ess_side != "below":
        unmet.append(f"essential spectrum {model.ess_side} the window, not below")
    if unmet:
        raise ReductionUnavailable(
            f"certify cannot take the {model.name} model: {'; '.join(unmet)}")
    sector = u0.sector

    w = kernel_from_state(model, u0)
    a = assemble_jacobian(model, w, sector, N)
    idx = index_list(u0.grid, sector, N)
    pseudo = build_pseudo_diag(a, idx, model.self_adjoint)
    disks = gershgorin_disks(model, w, sector, N, pseudo, a)
    raw_clusters = cluster_disks(disks)

    l1u = seq_l1(u0)
    lam_max = model.lambda_max(l1u, disks.l1w, Interval(r0)).hi

    if opts.window is not None:
        window = Interval(*opts.window)
    else:
        window = default_window(lam_max, opts.delta0)

    if opts.t is not None:
        shifts = [opts.t]
    else:
        edge = _spectral_edge(raw_clusters)
        shifts = [select_shift(lam_max, opts.margin)]
        # the certified edge from pass 1 permits tighter shifts; the best
        # margin balances |lambda + t| against the 1/|lambda + t| weights,
        # so try a short ladder and keep the tightest family
        for mg in (0.25 * opts.margin, 0.5 * opts.margin,
                   opts.margin, 2.0 * opts.margin):
            shifts.append(select_shift(edge, mg))

    wb = window_bounds(model, w, l1u, r0, pseudo, disks, window)

    # each (shift, path) pair yields a complete valid disk family; keep the
    # tightest family, never mix radii across families
    best = None
    first_error = None
    for t in shifts:
        try:
            cand = compute_bounds(wb, t)
        except ConditionViolated as exc:
            if first_error is None:
                first_error = exc
            continue
        for sa_used, fam in inflate_disks(disks, cand):
            # how far the inflated disks encroach toward the window
            score = max((disks.center_re.hi + fam).tolist())
            if best is None or score < best[0]:
                best = (score, cand, fam, sa_used)
    if best is None:
        raise first_error
    _, bounds, radii, sa_used = best

    return _assemble_certificate(r0, bounds, radii, opts, sa_used, lam_max)


def _assemble_certificate(r0, bounds, radii, opts, use_sa,
                          lam_max) -> Certificate:
    wb = bounds.window_bounds
    model, disks, window = wb.model, wb.disks, wb.window
    t = bounds.t
    jlo, jhi = window.lo, window.hi
    factor = bounds.eps_factor.hi
    if factor >= 1.0:
        raise ConditionViolated(
            f"inflation factor {factor} >= 1: the tail family cannot be "
            "closed; increase the domain half-period or tighten the window")

    # inflated tail family: center lam below the window, radius
    # r_tail + factor * |lam + t|; its upper edge is attained at the
    # highest tail center.
    tail_center_edge = _tail_center_edge(model, disks)
    shrink = Interval(1.0) - Interval(factor)
    tail_edge = (Interval(tail_center_edge) * shrink
                 + Interval(disks.tail_radius)
                 - Interval(factor) * Interval(t)).hi
    if not tail_edge < jlo:
        raise ClusterTouchesTail(
            f"inflated tail family reaches {tail_edge}, inside the window "
            f"[{jlo}, {jhi}]")

    counted = []
    statements = []
    for cluster in cluster_disks(replace(disks, radii=radii)):
        members, lo, hi = cluster.members, cluster.lo, cluster.hi
        inside = jlo < lo and hi < jhi
        overlaps = not (hi < jlo or lo > jhi)
        if overlaps and not inside:
            raise ClusterExitsDomain(
                f"inflated cluster [{lo}, {hi}] crosses the window boundary; "
                "certified counting is impossible for it")
        if not inside:
            continue
        straddle = lo <= 0.0 <= hi
        if straddle:
            label = "contains 0 candidate"
        elif hi < 0.0:
            label = "negative"
        else:
            label = "positive"
        counted.append(CountedCluster(
            members=members, lo=lo, hi=hi, count=len(members),
            straddles_zero=straddle, label=label))
        statements.append(
            f"exactly {len(members)} eigenvalue(s) of the linearization at "
            f"the true state in [{lo!r}, {hi!r}]")
    if not counted:
        statements.append(
            f"no eigenvalues of the linearization at the true state in "
            f"[{jlo!r}, {jhi!r}]")

    kernel_statement, counted = _reconcile_kernel(counted, opts.k_inv)

    unstable = sum(c.count for c in counted if c.label == "positive")
    has_candidate = any(c.label == "contains 0 candidate" for c in counted)
    # a stability verdict needs the window to reach from the stable side
    # across 0 up to the a-priori bound of the point spectrum
    covers = jlo <= 0.0 and jhi >= lam_max
    if unstable > 0:
        stable = "unstable"
    elif has_candidate:
        stable = "unknown"
    elif covers:
        stable = "stable"
    else:
        stable = "unknown"

    rays = [(r.lo.lo if r.lo is not None else None,
             r.hi.hi if r.hi is not None else None)
            for r in essential_spectrum(model)]

    return Certificate(
        r0=r0,
        delta0=opts.delta0,
        essential=rays,
        bounds=bounds,
        disk_radii_final=list(radii),
        tail_edge=tail_edge,
        clusters=counted,
        statements=statements,
        unstable_count=unstable,
        kernel_statement=kernel_statement,
        stable=stable,
        selfadjoint_path=use_sa,
    )


def _tail_center_edge(model: Model, disks) -> float:
    """Highest tail-disk center: sup over the continuum region of l plus
    the kernel diagonal term."""
    top = model.range_tail_hull(disks.min_tail_s)[1]
    if not math.isfinite(top):
        raise ConditionViolated("tail symbol range unbounded toward window")
    return (Interval(top) + disks.w0).hi


def _reconcile_kernel(counted, k_inv):
    """Upgrade zero-straddling clusters to "= 0" only against a declared
    invariance dimension; never by the disks alone."""
    straddlers = [c for c in counted if c.straddles_zero]
    if k_inv == 0:
        if straddlers:
            return ("zero-straddling clusters present, no invariance "
                    "dimension declared"), counted
        return "no zero-straddling clusters", counted
    total = sum(c.count for c in straddlers)
    if total != k_inv:
        raise KernelMismatch(
            f"declared invariance dimension {k_inv} but zero-straddling "
            f"clusters carry total multiplicity {total}")
    for c in straddlers:
        c.label = "= 0"
    return (f"declared invariance dimension {k_inv} accounted for by "
            f"zero-straddling cluster(s)"), counted

