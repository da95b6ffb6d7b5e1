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
from .models import Model, essential_spectrum, sh_lambda_max


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
    model_name: str
    model_params: dict
    grid_m: int
    grid_d: float
    sector: str
    n_inner: int
    r0: float
    window: tuple            # (lo, hi) real part
    delta0: float
    essential: list          # list of (lo_or_None, hi_or_None) rays
    bounds: HomotopyBounds
    disk_centers: list       # box per explicit disk, imaginary part [0, 0]
    disk_radii_gershgorin: list
    disk_radii_final: list
    tail_radius_gershgorin: float
    tail_edge: float         # certified bound of the inflated tail family
    clusters: list           # CountedCluster, only those counted inside window
    statements: list
    unstable_count: int
    kernel_statement: str
    stable: str              # "stable" | "unstable" | "unknown"
    selfadjoint_path: bool


def default_window(model: Model, lam_max: float, delta0: float) -> Interval:
    """Spectral window on the point-spectrum side of the essential edge."""
    if model.ess_side == "below":
        if lam_max <= -delta0:
            lam_max = -delta0 + 1.0
        return Interval(-delta0, lam_max)
    if lam_max >= delta0:
        lam_max = delta0 - 1.0
    return Interval(lam_max, delta0)


def select_shift(model: Model, edge: float, margin: float) -> float:
    """Place -t beyond the certified spectral edge by the given margin."""
    if model.ess_side == "below":
        return -(edge + margin)
    return -(edge - margin)


def _spectral_edge(model, clusters) -> float:
    """Certified extremal real edge of the explicit disks, toward the window."""
    if model.ess_side == "below":
        return max(c.hi for c in clusters)
    return min(c.lo for c in clusters)


@dataclass(frozen=True)
class CertifyOptions:
    delta0: float = 1e-2
    q_mult: float = 2.0
    margin: float = 1.0
    window: tuple | None = None            # (lo, hi) override
    t: float | None = None
    k_inv: int = 0


def certify(model: Model, u0: FourierSeq, r0: float, N: int,
            options: CertifyOptions | None = None) -> Certificate:
    opts = options or CertifyOptions()
    if not (r0 >= 0 and math.isfinite(r0)):
        raise InvalidParameter(f"r0={r0} must be a finite nonnegative float")
    if model.components != 1:
        raise ReductionUnavailable(
            "the matrix pipeline handles scalar models; system models are "
            "limited to essential-spectrum and constant computations")
    missing = [hook for hook in ("kappa_hook", "lip_dg")
               if getattr(model, hook) is None]
    if missing:
        raise ReductionUnavailable(
            f"{model.name} has no {' or '.join(missing)}: certify needs kappa "
            "and the Lipschitz bound of DG to reach the true state")
    sector = u0.sector
    grid = u0.grid

    w = kernel_from_state(model, u0)
    a = assemble_jacobian(model, w, sector, N)
    idx = index_list(grid, sector, N)
    pseudo = build_pseudo_diag(a, idx, model.self_adjoint)
    disks = gershgorin_disks(model, w, sector, N, pseudo, a)
    raw_clusters = cluster_disks(disks)

    l1u = seq_l1(u0)
    lam_max = _lambda_bound(model, u0, w, r0)

    if opts.window is not None:
        window = Interval(*opts.window)
    else:
        window = default_window(model, lam_max, opts.delta0)

    if opts.t is not None:
        shifts = [opts.t]
    else:
        edge = _spectral_edge(model, raw_clusters)
        shifts = [select_shift(model, lam_max, opts.margin)]
        # the certified edge from pass 1 permits tighter shifts; the best
        # margin balances |lambda + t| against the 1/|lambda + t| weights,
        # so try a short ladder and keep the tightest family
        for mg in (0.25 * opts.margin, 0.5 * opts.margin,
                   opts.margin, 2.0 * opts.margin):
            shifts.append(select_shift(model, edge, mg))

    wb = window_bounds(model, w, l1u, r0, pseudo, disks, window, opts.q_mult)

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
            if model.ess_side == "below":
                score = max(c.re.hi + r for c, r in zip(disks.centers, fam))
            else:
                score = -min(c.re.lo - r for c, r in zip(disks.centers, fam))
            if best is None or score < best[0]:
                best = (score, cand, fam, sa_used)
    if best is None:
        raise first_error
    _, bounds, radii, sa_used = best

    return _assemble_certificate(model, grid, sector, N, r0, window, bounds,
                                 disks, radii, opts, sa_used, lam_max)


def _lambda_bound(model: Model, u0: FourierSeq, w: FourierSeq, r0: float) -> float:
    if model.name == "swift-hohenberg":
        return sh_lambda_max(model, seq_l1(u0), seq_l1(w), Interval(r0)).hi
    # generic bound: essential edge plus the l1 mass of the kernel
    l1w = (Interval(2.0 ** (model.m / 2.0)) * seq_l1(w)).hi
    rays = essential_spectrum(model)
    if model.ess_side == "below":
        tops = [r.hi.hi for r in rays if r.hi is not None]
        return (Interval(max(tops)) + Interval(l1w)).hi
    bots = [r.lo.lo for r in rays if r.lo is not None]
    return (Interval(min(bots)) - Interval(l1w)).lo


def _assemble_certificate(model, grid, sector, N, r0, window, bounds, disks,
                          radii, opts, use_sa, lam_max) -> Certificate:
    t = bounds.t
    jlo, jhi = window.lo, window.hi
    factor = bounds.eps_factor.hi
    if factor >= 1.0:
        raise ConditionViolated(
            f"inflation factor {factor} >= 1: the tail family cannot be "
            "closed; increase the domain half-period or tighten the window")

    # inflated tail family: center lam on the essential side, radius
    # r_tail + factor * |lam + t|; its extremal edge toward the window is
    # attained at the tail center closest to the window.
    tail_center_edge = _tail_center_edge(model, disks)
    shrink = Interval(1.0) - Interval(factor)
    if model.ess_side == "below":
        tail_edge = (Interval(tail_center_edge) * shrink
                     + Interval(disks.tail_radius)
                     - Interval(factor) * Interval(t)).hi
        tail_clear = tail_edge < jlo
    else:
        tail_edge = (Interval(tail_center_edge) * shrink
                     - Interval(disks.tail_radius)
                     - Interval(factor) * Interval(t)).lo
        tail_clear = tail_edge > jhi
    if not tail_clear:
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
    covers = _window_covers_unstable_side(model, window, lam_max)
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
        model_name=model.name,
        model_params={k: (v.lo, v.hi) for k, v in model.params.items()},
        grid_m=grid.m,
        grid_d=grid.d,
        sector=sector,
        n_inner=N,
        r0=r0,
        window=(jlo, jhi),
        delta0=opts.delta0,
        essential=rays,
        bounds=bounds,
        disk_centers=list(disks.centers),
        disk_radii_gershgorin=list(disks.radii),
        disk_radii_final=list(radii),
        tail_radius_gershgorin=disks.tail_radius,
        tail_edge=tail_edge,
        clusters=counted,
        statements=statements,
        unstable_count=unstable,
        kernel_statement=kernel_statement,
        stable=stable,
        selfadjoint_path=use_sa,
    )


def _tail_center_edge(model: Model, disks) -> float:
    """Extremal tail-disk center toward the window: sup (or inf) over the
    continuum region of l plus the kernel diagonal term."""
    hull = model.range_tail_hull(disks.min_tail_s)
    w0 = disks.w0
    if model.ess_side == "below":
        if hull[1] is None or not math.isfinite(hull[1]):
            raise ConditionViolated("tail symbol range unbounded toward window")
        return (Interval(hull[1]) + w0).hi
    if hull[0] is None or not math.isfinite(hull[0]):
        raise ConditionViolated("tail symbol range unbounded toward window")
    return (Interval(hull[0]) + w0).lo


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


def _window_covers_unstable_side(model: Model, window: Interval,
                                 lam_max: float) -> bool:
    if model.ess_side == "below":
        return window.lo <= 0.0 and window.hi >= lam_max
    return window.hi >= 0.0 and window.lo <= lam_max
