"""Problem descriptors: symbols, nonlinearities, and certified symbol facts.

A model couples a radial Fourier symbol l(s), s = |2 pi xi|_2, with a
polynomial nonlinearity G and the analytic constants the certification
stages need: a growth minorant closing radial tails, a decay-constant
provider for the resolvent kernel, and a Lipschitz bound for DG on a ball
around the approximate state.

Conventions.  The zero-finding problem is F(u) = L u + G(u) with L the
Fourier multiplier by l; the linearization kernel is W = DG(u0) =
sum_j j c_j u0^(j-1) for G(u) = sum_j c_j u^j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    DecayDomainMismatch,
    DomainError,
    InvalidParameter,
    NonRadialUnsupported,
    TailNotIntegrable,
)
from .interval import (
    PI,
    ComplexBox,
    Interval,
    _mp_down,
    _mp_up,
    elementwise,
    iv_pow_int,
    iv_sqrt,
    iv_tanh,
)
from .radial import (
    GrowthMinorant,
    bb_sup,
    integrate_radial,
    radial_inf,
    tail_integral_monomial,
)

_ESS_TOL = 1e-13              # branch-and-bound tolerance of the edges
_KAPPA_REL_TOL = 0.01         # relative accuracy of the norm of 1/l


@dataclass(frozen=True)
class DecayBound:
    """|resolvent kernel| <= C * exp(-a * |x|_1) on the stated window."""

    window_lo: float
    window_hi: float
    C: float
    a: float

    def __post_init__(self):
        if not (self.C > 0 and self.a > 0):
            raise InvalidParameter("decay constants must be positive")


@dataclass(frozen=True)
class EssentialRay:
    """One connected component of the essential spectrum on the real line.

    Endpoint enclosures; None marks an infinite endpoint.
    """

    lo: Interval | None
    hi: Interval | None


@dataclass
class Model:
    name: str
    m: int
    components: int
    self_adjoint: bool
    ess_side: str                      # essential spectrum "below" or "above" the window
    nonlin: tuple                      # ((degree, Interval coeff), ...)
    minorant: GrowthMinorant
    params: dict = field(default_factory=dict)
    decay_table: tuple = ()            # loaded DecayBound entries
    _kappa: Interval | None = field(default=None, init=False, repr=False,
                                    compare=False)

    # hooks filled in by the factories
    symbol = None                      # Interval -> Interval (scalar models)
    symbol_matrix = None               # Interval -> 2x2 tuple of Intervals
    range_tail_hull = None             # R -> (float lo, float hi), +-inf allowed
    lip_dg = None                      # (l1_U0, r0, kappa) -> Interval
    kappa_hook = None                  # () -> Interval
    lambda_max = None                  # (l1_U0, l1_V0, r0) -> Interval
    decay_provider = None              # Interval window -> DecayBound

    def symbol_at(self, s: Interval) -> Interval:
        """l(s) for an Interval s, or for each element of an IArray s."""
        if self.symbol is None:
            raise NonRadialUnsupported(f"{self.name} has no scalar symbol")
        return self.symbol(s)

    def decay_for(self, window: Interval) -> DecayBound:
        """Decay constants valid for every shift in the window."""
        for entry in self.decay_table:
            if entry.window_lo <= window.lo and window.hi <= entry.window_hi:
                return entry
        raise DecayDomainMismatch(
            f"{self.name}: no decay entry covers [{window.lo}, {window.hi}]")

    def kernel_coeffs(self):
        """(degree-1, j * c_j) pairs defining W = DG(u0)."""
        return tuple((deg - 1, Interval(deg) * coeff) for deg, coeff in self.nonlin)

    def kappa(self) -> Interval:
        """The hook's kappa, evaluated once per model: it depends on the
        symbol alone, and every shift and the eigenvalue bound use it."""
        if self.kappa_hook is None:
            raise InvalidParameter(f"{self.name}: no kappa available")
        if self._kappa is None:
            self._kappa = self.kappa_hook()
        return self._kappa


# ---------------------------------------------------------------------------
# certified symbol facts


def essential_spectrum(model: Model):
    """Rays of the essential spectrum with certified edge enclosures.

    The symbol is continuous and radial, so each scalar channel contributes
    one connected ray; for triangular systems the essential spectrum is the
    union of the diagonal channels.
    """
    channels = model.params.get("diag_channels")
    if channels is None:
        channels = [(model.symbol, model.range_tail_hull)]
    rays = []
    for sym, tail_hull in channels:
        rays.append(_scalar_range(sym, tail_hull, model.minorant, _ESS_TOL))
    return _merge_rays(rays)


def _scalar_range(sym, tail_hull, minorant: GrowthMinorant, tol: float) -> EssentialRay:
    r = max(8.0, 2.0 * minorant.s0 + 1.0)
    for _ in range(60):
        t_lo, t_hi = tail_hull(r)
        if t_lo == -math.inf and t_hi < math.inf:
            # ray unbounded below; the sup lives in the head once the tail
            # hull drops under it
            head_sup = bb_sup(sym, 0.0, r, tol)
            if t_hi <= head_sup.lo:
                return EssentialRay(None, head_sup)
        elif t_hi == math.inf and t_lo > -math.inf:
            head_inf = radial_inf(sym, 0.0, lambda rr: tail_hull(rr)[0], tol, r)
            return EssentialRay(head_inf, None)
        else:
            head_sup = bb_sup(sym, 0.0, r, tol)
            head_inf = radial_inf(sym, 0.0, lambda rr: tail_hull(rr)[0], tol, r)
            return EssentialRay(head_inf, Interval(head_sup.lo,
                                                   max(head_sup.hi, t_hi)))
        r *= 2.0
    raise DomainError("could not close the symbol range tail")


def _merge_rays(rays):
    def key(ray):
        return -math.inf if ray.lo is None else ray.lo.lo

    rays = sorted(rays, key=key)
    merged = [rays[0]]
    for ray in rays[1:]:
        last = merged[-1]
        last_hi = math.inf if last.hi is None else last.hi.hi
        ray_lo = -math.inf if ray.lo is None else ray.lo.lo
        if ray_lo <= last_hi:
            if last.hi is None or ray.hi is None:
                hi = None
            else:
                hi = last.hi if last.hi.hi >= ray.hi.hi else ray.hi
            merged[-1] = EssentialRay(last.lo, hi)
        else:
            merged.append(ray)
    return merged


def rigorous_L2_of_reciprocal(model: Model) -> Interval:
    """Enclosure of the L2(R^m) norm of 1/l for a scalar radial symbol."""
    if model.components != 1:
        raise NonRadialUnsupported("reciprocal norm needs a scalar symbol")
    mino = model.minorant
    if 2.0 * mino.k <= model.m:
        raise TailNotIntegrable(f"minorant degree {mino.k} cannot close an "
                                f"L2 tail in dimension {model.m}")
    m = model.m

    def integrand(s: Interval) -> Interval:
        return iv_pow_int(s, m - 1) / model.symbol_at(s).sq()

    r = max(8.0, 2.0 * mino.s0 + 1.0)
    head = integrate_radial(integrand, 0.0, r, _KAPPA_REL_TOL * 0.5)
    tail = tail_integral_monomial(mino, m, r)
    while tail.hi > _KAPPA_REL_TOL * 0.25 * max(head.mid(), 1e-300):
        new_r = 2.0 * r
        head = head + integrate_radial(integrand, r, new_r, _KAPPA_REL_TOL * 0.5)
        r = new_r
        tail = tail_integral_monomial(mino, m, r)
    angular = _angular_factor(m)
    return iv_sqrt(angular * (head + tail))


def _angular_factor(m: int) -> Interval:
    if m == 1:
        return Interval(1.0) / PI
    return Interval(1.0) / (Interval(2.0) * PI)


# ---------------------------------------------------------------------------
# Swift-Hohenberg


def sh_model(mu, nu1, nu2, m: int = 2) -> Model:
    """Swift-Hohenberg: l(s) = -(1 - s^2)^2 - mu, G(u) = -(nu1 u^2 + nu2 u^3)."""
    mu = _as_iv(mu)
    nu1 = _as_iv(nu1)
    nu2 = _as_iv(nu2)
    if mu.lo <= 0:
        raise InvalidParameter("Swift-Hohenberg needs mu > 0")

    def symbol(s: Interval) -> Interval:
        return -iv_pow_int(Interval(1.0) - s.sq(), 2) - mu

    # |l| = (s^2-1)^2 + mu >= (s^2/2)^2 = s^4/4 once s^2 >= 2
    minorant = GrowthMinorant(c=0.25, k=4.0, s0=1.4143)

    def range_tail_hull(r: float):
        # (1 - s^2)^2 is increasing for s >= 1, so l is decreasing there
        return (-math.inf, symbol(Interval(r, r)).hi)

    model = Model(
        name="swift-hohenberg",
        m=m,
        components=1,
        self_adjoint=True,
        ess_side="below",
        nonlin=((2, -nu1), (3, -nu2)),
        minorant=minorant,
        params={"mu": mu, "nu1": nu1, "nu2": nu2},
    )
    model.symbol = symbol
    model.range_tail_hull = range_tail_hull

    def lip_dg(l1_u0: Interval, r0: Interval, kappa: Interval) -> Interval:
        # multiplication-operator bound: |2 nu1 (u - u0) + 3 nu2 (u^2 - u0^2)|_inf
        k_r0 = kappa * r0
        t1 = Interval(2.0) * nu1.abs() * k_r0
        t2 = Interval(3.0) * nu2.abs() * k_r0 * (Interval(2.0) * l1_u0 + k_r0)
        return t1 + t2

    model.lip_dg = lip_dg

    def kappa_hook() -> Interval:
        return rigorous_L2_of_reciprocal(model) / mu

    model.kappa_hook = kappa_hook

    def lambda_max(l1_u0: Interval, l1_v0: Interval, r0: Interval) -> Interval:
        """Upper bound for the eigenvalues of the linearization at every
        state within r0 of U0, with V0 = DG(U0)."""
        k_r0 = model.kappa() * r0
        bound = (l1_v0 + Interval(2.0) * nu1.abs() * k_r0
                 + Interval(3.0) * nu2.abs() * k_r0 * (Interval(2.0) * l1_u0 + k_r0)
                 - mu)
        return Interval(bound.hi, bound.hi)

    model.lambda_max = lambda_max

    def decay_provider(window: Interval) -> DecayBound:
        # closed-form constants, worst case at the left end of the window
        lam_lo = Interval(window.lo)
        shifted = mu + lam_lo
        if shifted.lo <= 0:
            raise DecayDomainMismatch(
                "decay constants need the window right of the essential edge")
        a_val = iv_sqrt((iv_sqrt(Interval(1.0) + shifted) - Interval(1.0))) / Interval(2.0)
        c_val = Interval(1.335) / iv_sqrt(shifted)
        if a_val.lo <= 0:
            raise DecayDomainMismatch("degenerate decay rate")
        return DecayBound(window.lo, window.hi, C=c_val.hi, a=a_val.lo)

    model.decay_provider = decay_provider
    return model


# ---------------------------------------------------------------------------
# Whitham


def _tanhc_lo(x: float) -> float:
    if x == 0.0:
        return 1.0
    import mpmath
    return _mp_down(lambda s: mpmath.tanh(s) / s, x)


def _tanhc_hi(x: float) -> float:
    if x == 0.0:
        return 1.0
    import mpmath
    return _mp_up(lambda s: mpmath.tanh(s) / s, x)


def whitham_model(T, c, decay_table=(), m: int = 1) -> Model:
    """Whitham with surface tension: l(s) = sqrt(tanh(s)(1 + T s^2)/s) - c.

    tanh(s)/s extends to 1 at s = 0 and is strictly decreasing on [0, inf)
    (tanh s = integral of sech^2 beats s sech^2 s), so endpoint evaluation
    gives a two-sided enclosure with no removable-singularity trouble.
    """
    T = _as_iv(T)
    c = _as_iv(c)
    if T.lo <= 0:
        raise InvalidParameter("need surface tension T > 0")
    if m != 1:
        raise InvalidParameter("the Whitham model is one-dimensional")

    @elementwise
    def symbol(s: Interval) -> Interval:
        if s.lo < 0:
            s = Interval(max(s.lo, 0.0), max(s.hi, 0.0))
        tc = Interval(_tanhc_lo(s.hi), _tanhc_hi(s.lo))
        msq = tc * (Interval(1.0) + T * s.sq())
        return iv_sqrt(msq) - c

    # m(s)^2 >= tanh(1) T s for s >= 1, so l >= sqrt(tanh(1) T) sqrt(s) - c;
    # past s0 the subtracted c eats at most half of the first term
    th1 = iv_tanh(Interval(1.0))
    base = iv_sqrt(th1 * T)
    s0 = max(1.0, (4.0 * (c.sq() / (th1 * T)).hi))
    minorant = GrowthMinorant(c=0.5 * base.lo, k=0.5, s0=s0 * 1.0001)

    def range_tail_hull(r: float):
        if r < minorant.s0:
            return (-math.inf, math.inf)
        return (minorant.value_lo(r), math.inf)

    model = Model(
        name="whitham",
        m=1,
        components=1,
        self_adjoint=True,
        ess_side="above",
        nonlin=((2, Interval(1.0)),),
        minorant=minorant,
        params={"T": T, "c": c},
        decay_table=tuple(decay_table),
    )
    model.symbol = symbol
    model.range_tail_hull = range_tail_hull
    model.decay_provider = model.decay_for
    return model


# ---------------------------------------------------------------------------
# Gray-Scott


def gray_scott_model(lam1, lam2) -> Model:
    """Gray-Scott steady states: two components, lower-triangular symbol

        l(s) = [[-lam1 s^2 - 1, 0], [lam1 lam2 - 1, -s^2 - lam2]].

    Because the off-diagonal block is constant and triangular, the essential
    spectrum is the union of the two diagonal ranges.
    """
    lam1 = _as_iv(lam1)
    lam2 = _as_iv(lam2)
    if lam1.lo <= 0 or lam2.lo <= 0:
        raise InvalidParameter("need lam1, lam2 > 0")

    def sym11(s: Interval) -> Interval:
        return -lam1 * s.sq() - Interval(1.0)

    def sym22(s: Interval) -> Interval:
        return -s.sq() - lam2

    coupling = lam1 * lam2 - Interval(1.0)

    def symbol_matrix(s: Interval):
        return ((sym11(s), Interval(0.0)), (coupling, sym22(s)))

    c_floor = min(lam1.lo, 1.0)
    minorant = GrowthMinorant(c=0.5 * c_floor, k=2.0,
                              s0=math.sqrt(2.0 * max(1.0, lam2.hi) / c_floor))

    def tail_hull_11(r: float):
        return (-math.inf, sym11(Interval(r, r)).hi)

    def tail_hull_22(r: float):
        return (-math.inf, sym22(Interval(r, r)).hi)

    model = Model(
        name="gray-scott",
        m=2,
        components=2,
        self_adjoint=False,
        ess_side="below",
        nonlin=(),
        minorant=minorant,
        params={
            "lam1": lam1,
            "lam2": lam2,
            "diag_channels": [(sym11, tail_hull_11), (sym22, tail_hull_22)],
        },
    )
    model.symbol_matrix = symbol_matrix

    def inv_fnorm_sq(s: Interval, lam: ComplexBox) -> Interval:
        """|(l(s) - lam)^{-1}|_F^2 from the triangular inverse."""
        a = ComplexBox(sym11(s)) - lam
        d = ComplexBox(sym22(s)) - lam
        a2 = a.abs2()
        d2 = d.abs2()
        c2 = coupling.sq()
        return (Interval(1.0) / a2 + Interval(1.0) / d2
                + c2 / (a2 * d2))

    def kappa_hook() -> Interval:
        zero = ComplexBox.point(0.0)

        @elementwise
        def fn(s: Interval) -> Interval:
            return iv_sqrt(inv_fnorm_sq(s, zero))

        r = 2.0 * minorant.s0
        head = bb_sup(fn, 0.0, r, 1e-8)
        # both diagonal magnitudes grow in s, so every term of the squared
        # Frobenius norm decreases and the tail sup sits at the cut
        tail_hi = fn(Interval(r, r)).hi
        return Interval(0.0, max(head.hi, tail_hi))

    model.kappa_hook = kappa_hook
    return model


def _as_iv(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(float(x))
