"""Branch-and-bound on the radial frequency variable.

Symbols of interest are radial: they depend on xi only through s = |2 pi xi|_2.
Suprema, infima and tail integrals over [s0, inf) reduce to dyadic bisection
of a bounded window plus an explicit bound that closes the unbounded tail.
Bisection stops at width 2**-40, well below every tolerance used here.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import DivisionByZeroInterval, DomainError, TailNotIntegrable
from .interval import Interval, iv_exp, iv_log, iv_sqrt

_MIN_WIDTH = 2.0 ** -40


@dataclass(frozen=True)
class GrowthMinorant:
    """Certified bound |f(s)| >= c * s**k for all s >= s0.

    Instances are constructed by the model factories together with a short
    proof in the source; user-supplied minorants are probed by sampling in
    the test-suite but their rigor rests on the declaration.
    """

    c: float
    k: float
    s0: float

    def __post_init__(self):
        if not (self.c > 0 and self.s0 >= 0):
            raise DomainError("minorant needs c > 0 and s0 >= 0")

    def value_lo(self, s: float) -> float:
        """Lower bound on c * s**k."""
        if s < self.s0:
            raise DomainError("minorant evaluated below its threshold")
        if s == 0.0:
            return 0.0
        v = Interval(self.c) * iv_pow_real(Interval(s), self.k)
        return max(v.lo, 0.0)


def iv_pow_real(x: Interval, k: float) -> Interval:
    """x**k for x >= 0 and real k >= 0 via exp(k log x)."""
    if x.lo < 0:
        raise DomainError("real power of partially negative interval")
    if k == int(k) and k <= 64:
        from .interval import iv_pow_int

        return iv_pow_int(x, int(k))
    if x.lo == 0.0:
        hi = iv_exp(Interval(k) * iv_log(Interval(x.hi))).hi if x.hi > 0 else 0.0
        return Interval(0.0, hi)
    return iv_exp(Interval(k) * iv_log(x))


def bb_inf(f, lo: float, hi: float, tol: float = 1e-10) -> Interval:
    """Enclosure of inf f over [lo, hi]; f maps Interval to Interval.

    The box holding a minimizer always survives pruning (its lower bound
    cannot exceed the sampled upper bound), so the heap minimum stays a
    certified lower bound on the infimum throughout.
    """
    if not (hi >= lo):
        raise DomainError("empty radial window")

    samples = {}

    def pt(x: float) -> float:
        # a box's right end was sampled when its parent was split
        if x not in samples:
            samples[x] = f(Interval(x, x)).hi
        return samples[x]

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


def bb_sup(f, lo: float, hi: float, tol: float = 1e-10) -> Interval:
    neg = bb_inf(lambda s: -f(s), lo, hi, tol)
    return Interval(-neg.hi, -neg.lo)


def radial_inf(f, lo: float, tail_lo, tol: float = 1e-10,
               r_start: float = 16.0) -> Interval:
    """Enclosure of inf f over [lo, inf).

    tail_lo(R) must return a certified lower bound on inf f over [R, inf);
    the cut R is pushed out until the tail cannot compete with the head.
    """
    r = max(r_start, 2.0 * lo + 1.0)
    head = bb_inf(f, lo, r, tol)
    for _ in range(80):
        if tail_lo(r) >= head.hi:
            return Interval(min(head.lo, tail_lo(r)), head.hi)
        r *= 2.0
        head = bb_inf(f, lo, r, tol)
    raise DomainError("tail bound never dominated the head minimum")


def integrate_radial(f, lo: float, hi: float, rel_tol: float = 0.01,
                     max_boxes: int = 200000) -> Interval:
    """Enclosure of the integral of f over [lo, hi] by adaptive boxes.

    Boxes where f is not evaluable (division by an interval through zero)
    are bisected; refinement continues until the enclosure width is below
    rel_tol times the midpoint estimate.  Each segment's contribution is
    kept, so a round evaluates f only on the segments it has just split.
    """

    def piece(a: float, b: float):
        try:
            enc = f(Interval(a, b))
        except DivisionByZeroInterval:
            return None
        return enc * (Interval(b) - Interval(a))

    segments = [(lo, hi, piece(lo, hi))]
    for _ in range(200):
        total = Interval(0.0)
        widths = []
        ok = True
        for a, b, contrib in segments:
            if contrib is None:
                ok = False
                widths.append((math.inf, a, b))
            else:
                total = total + contrib
                widths.append((contrib.width(), a, b))
        if ok and total.width() <= rel_tol * max(abs(total.mid()), 1e-300):
            return total
        if len(segments) > max_boxes:
            raise DomainError("quadrature refinement exploded")
        widths.sort(reverse=True)
        refine = {(a, b) for _, a, b in widths[: max(1, len(widths) // 4)]}
        new_segments = []
        for a, b, contrib in segments:
            if (a, b) in refine and (b - a) > 1e-15 * max(1.0, abs(b)):
                mid = a + 0.5 * (b - a)
                new_segments.append((a, mid, piece(a, mid)))
                new_segments.append((mid, b, piece(mid, b)))
            else:
                new_segments.append((a, b, contrib))
        segments = new_segments
    raise DomainError("quadrature did not converge")


def tail_integral_monomial(minorant: GrowthMinorant, m: int, r: float) -> Interval:
    """Enclosure of the tail integral of s**(m-1) / |f(s)|**2 over [r, inf)
    given |f| >= c s**k there; finite only when 2k > m."""
    if 2.0 * minorant.k <= m:
        raise TailNotIntegrable(
            f"minorant degree {minorant.k} too small for dimension {m}")
    if r < minorant.s0 or r <= 0:
        raise DomainError("tail cut below minorant threshold")
    # integral = r**(m - 2k) / (c**2 (2k - m))
    p = 2.0 * minorant.k - m
    num = iv_pow_real(Interval(r), p)
    den = Interval(minorant.c).sq() * Interval(p)
    val = Interval(1.0) / (num * den)
    return Interval(0.0, val.hi)
