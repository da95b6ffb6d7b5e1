"""Branch-and-bound on the radial frequency variable.

Symbols of interest are radial: they depend on xi only through s = |2 pi xi|_2.
Suprema, infima and tail integrals over [s0, inf) reduce to dyadic bisection
of a bounded window plus an explicit bound that closes the unbounded tail.
Bisection stops at width 2**-40, well below every tolerance used here.

The integrand or objective f is called on an IArray: `bb_inf` evaluates the
next bisection level of every live box in one call, and `integrate_radial`
every segment a round splits.  The control flow is that of the one-box-at-a-
time loop, and each element equals the scalar evaluation, so the results
are bit-identical to it.  An element where f fails (a box whose enclosure
divides by zero, say) records the error; it is raised only when the loop
takes that element, which is where the one-box loop would have raised it.
f returns an IArray for an IArray argument (or one Interval if it is
constant); a scalar-only f runs through `interval.elementwise`.

`bb_inf` and `bb_sup` stop early once their certified end reaches an
optional `stop` bound.  The enclosure stays certified, only wider; and the
maximum of a supremum and a bound >= `stop` is the same float, since the
full search of an inclusion-isotone f ends no higher.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TailNotIntegrable
from .interval import _DIV0, IArray, Interval, _sum_hi_array, iv_exp, iv_log, iv_pow_int

_MIN_WIDTH = 2.0 ** -40
_MAX_SEGMENTS = 200000        # integrate_radial gives up beyond this


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
        return iv_pow_int(x, int(k))
    if x.lo == 0.0:
        hi = iv_exp(Interval(k) * iv_log(Interval(x.hi))).hi if x.hi > 0 else 0.0
        return Interval(0.0, hi)
    return iv_exp(Interval(k) * iv_log(x))


def _evaluate(f, los, his) -> IArray:
    """f on the intervals [los[i], his[i]], in one call."""
    # overflow to an infinite endpoint is part of the scalar semantics
    with np.errstate(all="ignore"):
        out = f(IArray(los, his))
    if isinstance(out, Interval):       # a constant f
        return IArray([out.lo] * len(los), [out.hi] * len(los))
    return out


def _take(v):
    """An evaluated value, or raise it if it is an error."""
    if isinstance(v, Exception):
        raise v
    return v


def bb_inf(f, lo: float, hi: float, tol: float = 1e-10,
           stop: float | None = None) -> Interval:
    """Enclosure of inf f over [lo, hi]; f maps IArray to IArray.

    The box holding a minimizer always survives pruning (its lower bound
    cannot exceed the sampled upper bound), so the heap minimum stays a
    certified lower bound on the infimum throughout.  When the popped box
    has no evaluated halves, one call of f evaluates the halves of every
    live box and their right end points, which the best-first loop will
    mostly take next.  With a `stop` bound it also returns once the
    certified lower end reaches `stop`.
    """
    if not (hi >= lo):
        raise DomainError("empty radial window")

    boxes = {}      # (a, b) -> lower end of f over [a, b], or its error
    samples = {}    # x -> upper end of f at x, or its error

    def evaluate(new_boxes, points):
        points = [x for x in dict.fromkeys(points) if x not in samples]
        out = _evaluate(f, [a for a, _ in new_boxes] + points,
                        [b for _, b in new_boxes] + points)
        errs = out.errors()
        n = len(new_boxes)
        boxes.update((box, e or v) for box, e, v
                     in zip(new_boxes, errs, out.lo[:n].tolist()))
        samples.update((x, e or v) for x, e, v
                       in zip(points, errs[n:], out.hi[n:].tolist()))

    def pt(x: float) -> float:
        return _take(samples[x])

    mid = lo + 0.5 * (hi - lo)
    evaluate([(lo, hi)], [lo, hi, mid])
    best_ub = min(pt(lo), pt(hi), pt(mid))
    heap = [(_take(boxes.pop((lo, hi))), lo, hi)]
    while heap:
        glb = min(heap[0][0], best_ub)
        if best_ub - glb <= tol or (stop is not None and glb >= stop):
            return Interval(glb, best_ub)
        _, a, b = heapq.heappop(heap)
        if b - a <= _MIN_WIDTH:
            return Interval(glb, best_ub)
        mid = a + 0.5 * (b - a)
        if (a, mid) not in boxes:
            halves = []
            points = []
            for _, aa, bb in [(None, a, b)] + heap:
                m = aa + 0.5 * (bb - aa)
                if bb - aa > _MIN_WIDTH and (aa, m) not in boxes:
                    halves += [(aa, m), (m, bb)]
                    points += [m, bb]
            evaluate(halves, points)
        for aa, bb in ((a, mid), (mid, b)):
            enc_lo = _take(boxes.pop((aa, bb)))
            best_ub = min(best_ub, pt(bb))
            if enc_lo <= best_ub:
                heapq.heappush(heap, (enc_lo, aa, bb))
    return Interval(best_ub, best_ub)


def bb_sup(f, lo: float, hi: float, tol: float = 1e-10,
           stop: float | None = None) -> Interval:
    """Enclosure of sup f over [lo, hi], returned early once its upper end
    is at or below `stop`."""
    neg = bb_inf(lambda s: -f(s), lo, hi, tol, None if stop is None else -stop)
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


def _contributions(f, a: np.ndarray, b: np.ndarray):
    """The ends of f([a, b]) (b - a) from one call of f, and the mask of
    the segments where f divides by zero; other errors are raised."""
    with np.errstate(all="ignore"):
        out = _evaluate(f, a, b) * (IArray(b) - IArray(a))
    bad = np.zeros(len(a), dtype=bool) if out.err is None else out.err == _DIV0
    out[~bad].checked()
    return out.lo, out.hi, bad


def integrate_radial(f, lo: float, hi: float, rel_tol: float = 0.01) -> Interval:
    """Enclosure of the integral of f over [lo, hi] by adaptive boxes.

    Boxes where f is not evaluable (division by an interval through zero)
    are bisected; refinement continues until the enclosure width is below
    rel_tol times the midpoint estimate.  Segments, contributions and
    widths are arrays in segment order; a round splits the widest quarter
    (as a descending sort of (width, a, b) ranks it) and evaluates f, in one
    call, only on the new halves.  Only the in-order sum is a float loop.
    """
    a, b = np.array([float(lo)]), np.array([float(hi)])
    clo, chi, bad = _contributions(f, a, b)
    for _ in range(200):
        total = IArray(clo[~bad], chi[~bad]).sum()
        if not bad.any() and total.width() <= rel_tol * max(abs(total.mid()), 1e-300):
            return total
        n = len(a)
        if n > _MAX_SEGMENTS:
            raise DomainError("quadrature refinement exploded")
        width = np.where(bad, math.inf, _sum_hi_array(chi, -clo))
        # segments are disjoint, so no two share (width, a)
        order = np.lexsort((a, width))[::-1]
        split = np.zeros(n, dtype=bool)
        split[order[:max(1, n // 4)]] = True
        split &= (b - a) > 1e-15 * np.maximum(1.0, np.abs(b))
        mid = a + 0.5 * (b - a)
        count = 1 + split
        left = (np.cumsum(count) - count)[split]      # where the left halves go
        a, b, clo, chi, bad = (np.repeat(x, count) for x in (a, b, clo, chi, bad))
        b[left], a[left + 1] = mid[split], mid[split]
        fresh = np.sort(np.concatenate([left, left + 1]))
        if len(fresh):
            clo[fresh], chi[fresh], bad[fresh] = _contributions(f, a[fresh], b[fresh])
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
