"""The scalar loops that the batched radial and homotopy code replaced.

Each function is the one-Interval-at-a-time version of a library function,
with the same signature, so that a test can check the batched version bit
for bit against it, or put it in the library's place.  None of them is
fast; all of them are simple.
"""

import heapq
import math

from speccert.errors import DivisionByZeroInterval, DomainError
from speccert.fourier import conv
from speccert.interval import PI, Interval, elementwise, iv_exp
from speccert.radial import _MIN_WIDTH


# -- radial ---------------------------------------------------------------

def bb_inf_reference(f, lo, hi, tol=1e-10):
    """bb_inf without the batched levels, the memo or a stop bound."""
    if not (hi >= lo):
        raise DomainError("empty radial window")

    def pt(x):
        return f(Interval(x, x)).hi

    best_ub = min(pt(lo), pt(hi), pt(lo + 0.5 * (hi - lo)))
    heap = [(f(Interval(lo, hi)).lo, lo, hi)]
    while heap:
        glb = min(heap[0][0], best_ub)
        if best_ub - glb <= tol:
            return Interval(glb, best_ub)
        _, a, b = heapq.heappop(heap)
        if b - a <= _MIN_WIDTH:
            return Interval(glb, best_ub)
        mid = a + 0.5 * (b - a)
        for aa, bb in ((a, mid), (mid, b)):
            enc = f(Interval(aa, bb))
            best_ub = min(best_ub, pt(bb))
            if enc.lo <= best_ub:
                heapq.heappush(heap, (enc.lo, aa, bb))
    return Interval(best_ub, best_ub)


def bb_sup_reference(f, lo, hi, tol=1e-10):
    neg = bb_inf_reference(lambda s: -f(s), lo, hi, tol)
    return Interval(-neg.hi, -neg.lo)


def integrate_reference(f, lo, hi, rel_tol=0.01, max_boxes=200000):
    """integrate_radial re-evaluating every segment in every round."""
    segments = [(lo, hi)]
    for _ in range(200):
        total = Interval(0.0)
        widths = []
        ok = True
        for a, b in segments:
            try:
                enc = f(Interval(a, b))
            except DivisionByZeroInterval:
                ok = False
                enc = None
            if enc is not None:
                contrib = enc * (Interval(b) - Interval(a))
                total = total + contrib
                widths.append((contrib.width(), a, b))
            else:
                widths.append((math.inf, a, b))
        if ok and total.width() <= rel_tol * max(abs(total.mid()), 1e-300):
            return total
        if len(segments) > max_boxes:
            raise DomainError("quadrature refinement exploded")
        widths.sort(reverse=True)
        refine = {(a, b) for _, a, b in widths[: max(1, len(widths) // 4)]}
        new_segments = []
        for a, b in segments:
            if (a, b) in refine and (b - a) > 1e-15 * max(1.0, abs(b)):
                mid = a + 0.5 * (b - a)
                new_segments.extend([(a, mid), (mid, b)])
            else:
                new_segments.append((a, b))
        segments = new_segments
    raise DomainError("quadrature did not converge")


# -- homotopy -------------------------------------------------------------

@elementwise
def dist_to_window(v, window):
    if v.hi < window.lo:
        return Interval(window.lo) - v
    if v.lo > window.hi:
        return v - Interval(window.hi)
    return Interval(0.0, max((v - Interval(window.lo)).hi,
                             (Interval(window.hi) - v).hi))


def _mode1(j, a, d, e2ad):
    theta2 = (PI * Interval(float(j)) / Interval(d)).sq()
    four_a = Interval(4.0) * a
    val = (e2ad - Interval(1.0) / e2ad) * four_a / (four_a * a + theta2)
    return val if j % 2 == 0 else -val


def _clamp_nonneg(v):
    return Interval(max(v.lo, 0.0), max(v.hi, 0.0))


def kernel_weight_integrals(w, a):
    grid = w.grid
    d = grid.d
    t = conv(w, w)
    tlo, thi = t.expand_signed()
    st = t.S
    e2ad = iv_exp(Interval(2.0) * a * Interval(d))
    modes = {}

    def mode1(j):
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


def disk_gap(disks, t, tail_inf):
    t_iv = Interval(t)
    gaps = [Interval((center.re + t_iv).mig()) - Interval(radius)
            for center, radius in zip(disks.centers, disks.radii)]
    gaps.append(tail_inf - Interval(disks.tail_radius))
    return Interval(min(g.lo for g in gaps), math.inf)


def inflate_disks(disks, bounds):
    t = Interval(bounds.t)
    radii = [Interval(r) for r in disks.radii]
    shifted = [Interval((c.re + t).mag()) for c in disks.centers]

    def family(eps):
        return [(r + Interval(eps(r, s).hi)).hi for r, s in zip(radii, shifted)]

    return [(False, family(lambda r, s: bounds.eps_factor * s)),
            (True, family(lambda r, s: bounds.sa_factor * (r + s)))]
