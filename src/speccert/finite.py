"""Finite-dimensional stage: Jacobian blocks, pseudo-diagonalization, disks.

The linearization at a state with coefficient sequence U0 acts on sector
coordinates as diag(l(n~)) plus convolution by the kernel W = DG(U0).  With
the orthonormal sector basis b_k = m_k^{-1/2} sum_sigma chi(sigma) e_{sigma k}
(chi flips sign on reflected odd axes) the matrix entries are

    A[n, k] = delta_{nk} l(n~) + sqrt(m_n / m_k) sum_sigma chi(sigma) W[n - sigma k],

which is what conv_block assembles, in one pass for all sigma: coordinates
on a reflected axis are >= 0, so the identity reaches every entry a flip
does.  A table runs each tuple of per-axis states once, and one state
matrix st[n_a, k_a] reads it per axis.  A disk radius needs no shell entry
outside H = DG(mid <- inner) and no interval product (gershgorin_disks).
Everything here is interval-rigorous except newton_solve, which only
manufactures candidate states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    DegenerateEigenbasis,
    DimensionMismatch,
    GridMismatch,
    InvalidParameter,
    NoConvergence,
    UnboundedOperand,
)
from .fourier import FourierSeq, Grid, _axis_types, conv, index_list, seq_l1
from .imatrix import IMatrix, _sum_up, mag_product_sums, op_norm2_bound, verified_inverse
from .interval import PI, ComplexBox, IArray, Interval, iv_sqrt, ulp_step
from .models import Model

_INF = math.inf
_MAX = np.finfo(np.float64).max
_NEWTON_STEP_CAP = 0.5        # max-norm cap of a Newton step
_MID_ROW_BLOCK = 64           # rows per block of gathered state codes
_PAIR_BLOCK = 1 << 16         # disk pairs per batched clustering gap test


# ---------------------------------------------------------------------------
# index bookkeeping


def freq_norm_iv(grid: Grid, indices) -> IArray:
    """Enclosures of |2 pi n / (2d)|_2 for a list of lattice multi-indices."""
    n = np.asarray(indices, dtype=np.int64).reshape(len(indices), grid.m)
    root = iv_sqrt(IArray((n * n).sum(axis=1).astype(np.float64)))
    return (Interval(2.0) * PI * root) / Interval(2.0 * grid.d)


def min_tail_freq(grid: Grid, R: int) -> float:
    """Lower bound on |2 pi n~|_2 over indices outside the cube I^R."""
    v = (Interval(2.0) * PI * Interval(float(R + 1))) / Interval(2.0 * grid.d)
    return v.lo


# ---------------------------------------------------------------------------
# block assembly


def kernel_from_state(model: Model, u0: FourierSeq) -> FourierSeq:
    """W = DG(u0) as a coefficient sequence (rigorous convolutions); u0 must
    be even (FourierSeq.require_even), as gershgorin_disks relies on it."""
    u0.require_even()
    terms = []
    for pw, coeff in model.kernel_coeffs():
        if pw < 1:
            raise InvalidParameter(f"{model.name}: a term of degree {pw + 1}; "
                                   "the nonlinearity takes degrees >= 2")
        term = u0
        for _ in range(pw - 1):
            term = conv(term, u0)
        terms.append(term.scaled(coeff))
    if not terms:
        raise InvalidParameter(f"{model.name}: empty nonlinearity")
    return sum(terms[1:], terms[0])


class _StateTable:
    """Entry (n, k) of conv_block is T[st[n_1, k_1], ..., st[n_m, k_m]] (the
    docstring there says why), for coordinates up to top in magnitude.  One
    state matrix st serves every axis, as a sector's axes are all signed or
    all reflected; it is indexed by coordinate + off.  T (lo, hi) has one
    state more per axis, for |n_a - k_a| > S, where it is exactly 0."""

    def __init__(self, w: FourierSeq, sector: str, top: int):
        m, sw = w.grid.m, w.S
        axes = _axis_types(m, sector)
        if "s" in w.sector:
            raise GridMismatch(f"{sector!r} basis with an odd kernel is not supported")
        refl = [ax for ax, kind in enumerate(axes) if kind != "signed"]
        wstride = (2 * sw + 1) ** np.arange(m - 1, -1, -1)
        wlo, whi = (x.ravel() for x in w.expand_signed())
        # one (n_a, k_a) per state in code order: on a reflected axis the
        # untouched (d_a, 0) and (d_a > 0, 1), then from 3S + 1 on the touched
        d, (s, k) = np.arange(-sw, sw + 1), (x + 1 for x in np.tril_indices(sw))
        n_r, k_r = (d, 0 * d) if not refl else (np.r_[sw + 1 + d, d[sw + 1:], s - k],
                                                np.r_[0 * d + sw + 1, 0 * d[sw + 1:], k])
        pos = sum(np.ix_(*[(n_r - k_r + sw) * step for step in wstride]))
        e = m + sum(np.ix_(*[bool(refl) * (np.sign(n_r) - np.sign(k_r))] * m))
        flips = [[ax for ax, flip in zip(refl, flags) if flip] for flags in
                 list(itertools.product((False, True), repeat=len(refl)))[1:]]
        # sqrt(m_n / m_k), m = 2^(nonzero symmetric coordinates), takes 2m + 1
        # values f_e, each a tiny outward-rounded interval; as f > 0 the product
        # bounds are acc_lo * f and acc_hi * f at one end of f
        ratio = np.sqrt(2.0 ** np.arange(-m, m + 1))
        f_lo, f_hi = (ulp_step(ratio, to, 2, out=np.empty_like(ratio)) for to in (-_INF, _INF))
        # each state runs the chain once, from W stepped (0 + W differs only at
        # -0.0, which the step erases); states no row reaches may overflow too
        with np.errstate(over="ignore"):
            acc_lo, acc_hi = ulp_step(wlo[pos], -_INF), ulp_step(whi[pos], _INF)
            for flipped in flips:
                # the states it touches are a box of the table; its terms sit at
                # n_a + k_a on the flipped axes, and chi = -1 for an odd number of
                # reflected odd axes: -W, as x - y is x + (-y)
                box = tuple(slice(3 * sw + 1 if ax in flipped else 0, None) for ax in range(m))
                at = pos[box] + sum(np.ix_(*[(ax in flipped) * 2 * wstride[ax] * k_r[cut]
                                             for ax, cut in enumerate(box)]))
                glo, ghi = (-whi, -wlo) if sum(axes[a] == "s" for a in flipped) % 2 else (wlo, whi)
                acc_lo[box] += glo[at]
                acc_hi[box] += ghi[at]
                ulp_step(acc_lo, -_INF)
                ulp_step(acc_hi, _INF)
            lo = ulp_step(np.minimum(acc_lo * f_lo[e], acc_lo * f_hi[e]), -_INF)
            hi = ulp_step(np.maximum(acc_hi * f_lo[e], acc_hi * f_hi[e]), _INF)
        self.lo, self.hi = np.zeros(np.add(lo.shape, 1)), np.zeros(np.add(lo.shape, 1))
        self.lo[tuple(map(slice, lo.shape))], self.hi[tuple(map(slice, lo.shape))] = lo, hi
        # st on the band |n_a - k_a| <= S: the state code, touched, untouched
        # or untouched with k_a = 0 < n_a; off the band the zero state
        self.off = 0 if refl else top
        n = np.arange(-self.off, top + 1)[:, None]
        k, s = n + d, 2 * n + d
        code = n - k + sw if not refl else np.where((s <= sw) & (k != 0), 3 * sw + s * (s - 1) // 2
                                                    + k, n - k + sw + sw * ((k == 0) & (n > 0)))
        band = (k >= -self.off) & (k <= top)
        self.st = np.full((len(n), len(n)), len(n_r), np.min_scalar_type(len(n_r)))
        self.st[np.broadcast_to(n, k.shape)[band] + self.off, k[band] + self.off] = code[band]

    def _at(self, states):      # flat table positions, one state array per axis
        at = states[0].astype(np.intp)
        for s in states[1:]:
            at = at * len(self.lo) + s
        return at

    def gather(self, rows, cols):
        """Entries (rows x cols) as arrays lo and hi, _MID_ROW_BLOCK rows of
        table positions at a time ("clip": in range, taken unbuffered)."""
        lo, hi = np.empty((len(rows), len(cols))), np.empty((len(rows), len(cols)))
        st = [self.st[:, c] for c in cols.T + self.off]     # per axis, the columns' states
        for b in range(0, len(rows), _MID_ROW_BLOCK):
            at = self._at([s[r] for s, r in zip(st, rows[b:b + _MID_ROW_BLOCK].T + self.off)])
            self.lo.take(at, out=lo[b:b + _MID_ROW_BLOCK], mode="clip")
            self.hi.take(at, out=hi[b:b + _MID_ROW_BLOCK], mode="clip")
        return lo, hi

    def centers(self, rows):
        at = self._at([self.st[r, r] for r in rows.T + self.off])
        return self.lo.take(at), self.hi.take(at)

    @np.errstate(over="ignore")     # a sum past the largest double is +inf, a sound bound
    def ext_sums(self, rows, N: int) -> np.ndarray:
        """Upper bounds on each row's sum of |entries| over the columns k != n
        with N < |k|_inf <= top (gershgorin_disks has the derivation)."""
        m, line = self.lo.ndim, np.arange(len(self.st))
        mag = np.minimum(np.maximum(np.abs(self.lo), np.abs(self.hi)), _MAX)
        mag[np.ix_(*[np.diagonal(self.st)] * m)] = 0.0    # the center k = n
        inside, sums = np.abs(line - self.off) <= N, 0.0
        for a in range(m):      # |k_b| <= N before axis a, |k_a| > N, any k_b after it
            part = mag
            for keep in [inside] * a + [~inside] + [slice(None)] * (m - 1 - a):
                count = np.zeros((len(line), len(mag)))     # C[n_b, s]
                count[line[:, None], self.st[:, keep]] = 1.0
                part = np.minimum(np.tensordot(part, count, axes=(0, 1)), _MAX)
            sums = sums + part[tuple(rows.T + self.off)]
        return _sum_up(sums, len(line) ** m - np.count_nonzero(inside) ** m)


def conv_block(w: FourierSeq, sector: str, rows, cols) -> IMatrix:
    """Interval matrix of convolution by w between sector basis vectors.

    The kernel must be reflection-invariant (no odd axes) unless the basis
    sector is "full", in which case no symmetrization happens at all.  A
    negative coordinate on a reflected axis is refused: n_a + k_a <= S then
    implies |n_a - k_a| <= S, so the pairs |k - n|_inf <= S hold the terms
    of every flip sigma.  Columns must be distinct.  Per flip the terms are
    added, then every reached entry steps outward: the bits are the dense
    formula's, entry by entry, and unreached entries are exact zeros.

    An entry depends only on its per-axis states: it is W[n - k] stepped,
    plus, per flip sigma that touches every axis of sigma (n_a + k_a <= S,
    k_a != 0), W at n_a + k_a on those axes and n_a - k_a off them, each
    flip followed by a step, then scaled by f_e, e = m + the sum of sign n_a
    - sign k_a over the reflected axes.  So d_a = n_a - k_a fixes a signed
    axis, and a reflected one the touched (n_a + k_a, k_a) or the untouched
    (d_a, sign n_a - sign k_a), whose sign difference is 0 or 1: k_a = 0
    gives sign n_a >= 0, and k_a > 0 with n_a + k_a > S >= |n_a - k_a| gives
    n_a > 0.  _StateTable runs the chain once per tuple of states, 2S + 1
    per signed and 3S + 1 + S(S + 1)/2 per reflected axis, and keeps the
    per-axis codes as a matrix st[n_a, k_a]; a block is one gather.
    """
    m = w.grid.m
    rows, cols = (np.asarray(x, dtype=np.int64).reshape(len(x), m) for x in (rows, cols))
    if _axis_types(m, sector)[0] != "signed" and ((rows < 0).any() or (cols < 0).any()):
        raise InvalidParameter(f"a negative coordinate on a reflected axis of {sector!r}")
    top = max(np.abs(rows).max(initial=0), np.abs(cols).max(initial=0))
    if len(np.unique(cols @ (2 * top + 1) ** np.arange(m))) != len(cols):
        raise DimensionMismatch("conv_block columns must be distinct")
    return IMatrix(*_StateTable(w, sector, int(top)).gather(rows, cols))


def symbol_diag(model: Model, grid: Grid, indices) -> IArray:
    """Enclosures l(n~) for a list of multi-indices, from one symbol call."""
    return model.symbol_at(freq_norm_iv(grid, indices)).checked()


def assemble_jacobian(model: Model, w: FourierSeq, sector: str, R: int) -> IMatrix:
    """Sector matrix of the linearization truncated to the cube I^R."""
    if model.components != 1:
        raise InvalidParameter("matrix assembly supports scalar models only")
    grid = w.grid
    idx = index_list(grid, sector, R)
    a = conv_block(w, sector, idx, idx)
    i = np.arange(len(idx))
    s = (IArray(a.lo[i, i], a.hi[i, i]) + symbol_diag(model, grid, idx)).checked()
    a.lo[i, i], a.hi[i, i] = s.lo, s.hi
    return a


# ---------------------------------------------------------------------------
# pseudo-diagonalization


@dataclass
class PseudoDiag:
    """Certified change of basis for the real symmetric inner block.

    P holds the numerical eigenvectors of the symmetrized midpoint (a real
    point matrix) and Pinv a verified real enclosure of its inverse.  Of
    D = Pinv A P two views are kept: lams, its diagonal as one IArray (the
    inner eigenvalue enclosures), and off, the point matrix |D| with a zero
    diagonal, which the inner disk radii and Z13 read.
    """

    P: IMatrix
    Pinv: IMatrix
    lams: IArray
    off: IMatrix
    p_norm: Interval


def _normalize_columns(vecs: np.ndarray) -> np.ndarray:
    """Unit columns whose entry of largest magnitude is positive; a norm is
    np.linalg.norm's, the root of a unit-stride dot product, bit for bit."""
    cols = vecs.T.copy()
    cols[cols[np.arange(len(cols)), np.argmax(np.abs(cols), axis=1)] < 0] *= -1.0
    nrm = np.sqrt(np.vecdot(cols, cols))
    if (nrm == 0).any():
        raise DegenerateEigenbasis("zero eigenvector column")
    return np.ascontiguousarray((cols / nrm[:, None]).T)


def build_pseudo_diag(a: IMatrix, indices, self_adjoint: bool) -> PseudoDiag:
    """Diagonalize the symmetrized midpoint of `a` and carry the exact
    matrix along.  Only self-adjoint linearizations are supported.

    `indices` is not read; it stays because bench/workloads.py calls this
    function with three positional arguments."""
    if not self_adjoint:
        raise InvalidParameter(
            "pseudo-diagonalization supports self-adjoint models only")
    mid = a.mid()
    _, vecs = np.linalg.eigh(0.5 * (mid + mid.T))
    p = IMatrix.from_point(_normalize_columns(vecs))
    try:
        pinv = verified_inverse(p)[0]
    except Exception as exc:
        raise DegenerateEigenbasis(f"eigenbasis not verifiably invertible: {exc}")
    d = (pinv @ a) @ p
    off = d.mag()
    np.fill_diagonal(off, 0.0)
    return PseudoDiag(P=p, Pinv=pinv, lams=IArray(np.diag(d.lo), np.diag(d.hi)),
                      off=IMatrix.from_point(off), p_norm=op_norm2_bound(p))


# ---------------------------------------------------------------------------
# Gershgorin disks


@dataclass
class DiskSet:
    """Certified Gershgorin enclosure of the truncation-free linearization.

    The linearization is self-adjoint, so a disk center is real: center_re
    holds the centers as one IArray and radii the radii as a float array,
    inner disks first.  `centers` derives one ComplexBox (imaginary part
    [0, 0]) per center for the readers of re/im pairs: the disk-set and
    certificate JSON, the CLI plot and the benchmark harness.

    * inner disks: centers lams from the pseudo-diagonal block I^N;
    * mid disks: centers l(n~) + diagonal kernel term for I^M minus I^N;
      lam holds l(n~) over the inner and then the mid indices;
    * tail: every remaining index carries the disk
      B(l(n~) + w0, tail_radius) with tail_radius the upper end of
      c_m (|W|_1 - |w0|); the symbol range over the tail region is
      reported through min_tail_s (lower bound on the radial variable).

    From dg, dg_delta and dg_s homotopy.shell_coupling forms H P and Pinv G.
    """

    grid: Grid
    sector: str
    n_inner: int
    n_mid: int
    center_re: IArray
    radii: np.ndarray
    lam: IArray = None
    dg: IMatrix | None = None          # H = DG(mid <- inner); None without a shell
    dg_delta: np.ndarray | None = None  # per inner row i, delta_i of gershgorin_disks
    dg_s: np.ndarray | None = None     # per mid row j, s_j of gershgorin_disks
    w0: Interval = None                # the kernel diagonal
    tail_radius: float = 0.0
    min_tail_s: float = 0.0
    sym_factor: float = 1.0            # c_m
    l1w: Interval = None               # |W|_1

    @property
    def centers(self) -> list:
        return [ComplexBox(Interval(lo, hi))
                for lo, hi in zip(self.center_re.lo.tolist(), self.center_re.hi.tolist())]


def _kernel_w0(w: FourierSeq) -> Interval:
    pos = (w.S if w.axes[0] == "signed" else 0,) * w.grid.m
    return Interval(float(w.lo[pos]), float(w.hi[pos]))


def sym_factor(grid: Grid, sector: str) -> float:
    """Upper bound on sqrt(m_n / m_k) over sector index pairs."""
    a = sum(kind != "signed" for kind in _axis_types(grid.m, sector))
    return iv_sqrt(Interval(2.0 ** a)).hi


@np.errstate(over="ignore")     # a radius sum past the largest double is +inf, a sound bound
def gershgorin_disks(model: Model, w: FourierSeq, sector: str, N: int,
                     pseudo: PseudoDiag, a_inner: IMatrix) -> DiskSet:
    """Disks for the full (infinite) sector operator.

    a_inner must be the jacobian block the pseudo-diagonalization was built
    from.  M = N + S_W is where explicit rows stop and the uniform tail
    radius takes over.  One _StateTable over the cube |k|_inf <= M + S (all
    a mid row reaches) gives H = DG(mid <- inner) and the centers (n, n).

    The ext columns, the cube less I^N, need no entry: they are the union
    over a of the products {|k_b| <= N, b < a} x {|k_a| > N} x {any k_b,
    b > a} ({|k| > N} in 1D), and over a product K_1 x ... x K_m the sum of
    |T| separates by axis, as the row sums of summed-area tables do (Crow,
    SIGGRAPH 1984).  With C_a[n_a, s] = 1 where some k_a in K_a has
    st[n_a, k_a] = s (n_a and s fix k_a), row n sums the contraction of |T|
    with C_1, ..., C_m at n, in 2D (C_1 |T| C_2^T)[n_1, n_2].  A state fixes
    d_a = n_a - k_a, so zeroing |T| where every d_a = 0 drops the center
    k = n exactly.  A product by a 0/1 count is exact, so contracting a
    factor with c_a reached coordinates rounds at most c_a - 1 times,
    sum_a (c_a - 1) <= c_1 ... c_m - 1, and joining the m products rounds
    m - 1 times: at most |ext| - 1 roundings in any order (Higham, Accuracy
    and Stability, 3.1), which _sum_up covers.  |T| and each contraction
    are clamped to the largest double, as 0 * inf is NaN; a reached clamped
    term leaves a sum that rounds up to +inf.

    Radii read only sums of |H P|, bounded by mag_product_sums from one
    float product without forming H P; mid radius j takes row j's sum.
    No block of G = DG(inner <- mid) is built.  w must be even, as
    kernel_from_state requires of its state: the operator is then
    self-adjoint in the orthonormal sector basis, so G = H^T exactly and
    Pinv G = P^T G + (Pinv - P^T) G, with P^T G = (H P)^T and
    |(Pinv - P^T) G|_ij <= delta_i sum_l |H_jl| <= delta_i s_j: delta_i
    bounds row i of |Pinv - P^T| (Pinv encloses P^-1) and s_j the row sums
    of |H|, both rounded up.  Inner radius i takes column i's sum of |H P|
    plus delta_i sum_j s_j; homotopy.shell_coupling widens (H P)^T by delta_i s_j.
    """
    grid, sw, m_cut = w.grid, w.S, N + w.S
    # I^M in index_list's row-major order, split into inner and mid
    cube = np.array(index_list(grid, sector, m_cut), dtype=np.int64).reshape(-1, grid.m)
    size = np.abs(cube).max(axis=1)
    inner, mid = cube[size <= N], cube[size > N]
    p = len(inner)

    # region (ii): explicit rows in the shell
    w0, c_m, l1w = _kernel_w0(w), sym_factor(grid, sector), seq_l1(w)
    lam = symbol_diag(model, grid, np.concatenate([inner, mid]))
    d_lo, d_hi, r_mid = np.zeros(len(mid)), np.zeros(len(mid)), np.zeros(len(mid))
    r_inner = pseudo.off.hi.sum(axis=1)    # region (i): rows of D off the diagonal
    dg = dg_delta = dg_s = None
    if len(mid):
        table = _StateTable(w, sector, m_cut + sw)
        dg = IMatrix(*table.gather(mid, inner))
        (d_lo, d_hi), term2 = table.centers(mid), table.ext_sums(mid, N)
        del table       # free the table before the sums
        term1, hp_cols = mag_product_sums(dg, pseudo.P.lo)
        r_mid = _sum_up(term1 + term2, 1)
        # region (i) couples into the shell through Pinv H^T = (H P)^T + pad.
        # delta_i >= max_l |Pinv - P^T|_il: a difference rounds by at most
        # 2^-53 of itself, which two ulps up cover
        pt = pseudo.P.lo.T
        dg_delta = ulp_step(np.maximum(np.abs(pseudo.Pinv.lo - pt).max(axis=1),
                                       np.abs(pseudo.Pinv.hi - pt).max(axis=1)), _INF, 2)
        dg_s = dg.row_sums_hi()
        pad = (IArray(dg_delta) * IArray(dg_s).sum()).hi
        r_inner = r_inner + (hp_cols + pad)
    # mag_product_sums rounds its sums up: the factor covers D's
    r_inner = ulp_step(r_inner * (1.0 + (p + 4) * 2.0 ** -53), _INF)
    c_mid = (lam[p:] + IArray(d_lo, d_hi)).checked()

    return DiskSet(
        grid=grid,
        sector=sector,
        n_inner=N,
        n_mid=m_cut,
        center_re=IArray(np.concatenate([pseudo.lams.lo, c_mid.lo]),
                         np.concatenate([pseudo.lams.hi, c_mid.hi])),
        radii=np.concatenate([r_inner, r_mid]),
        lam=lam,
        dg=dg,
        dg_delta=dg_delta,
        dg_s=dg_s,
        w0=w0,
        tail_radius=(Interval(c_m) * (l1w - w0.abs())).hi,
        min_tail_s=min_tail_freq(grid, m_cut),
        sym_factor=c_m,
        l1w=l1w,
    )


# ---------------------------------------------------------------------------
# clusters


@dataclass
class Cluster:
    members: list            # disk positions in the DiskSet
    lo: float                # real-part extent of the union of disks
    hi: float
    count: int


def _checked(diskset: DiskSet):
    """The centers and radii of a disk set, refusing an unbounded disk."""
    c = diskset.center_re
    if len(c.lo) > 1 and not (np.isfinite(c.lo).all() and np.isfinite(c.hi).all()):
        raise UnboundedOperand("disk center with an infinite endpoint")
    r = np.asarray(diskset.radii, dtype=float)
    if not np.isfinite(r).all():
        raise UnboundedOperand("disk with a NaN or infinite radius")
    return c, r


def spectral_edge(diskset: DiskSet) -> float:
    """Certified upper real edge of the finite disks, bit for bit the
    highest cluster end of cluster_disks: a step up is monotone, so the
    highest cluster's end is the highest disk end stepped up."""
    c, r = _checked(diskset)
    return math.nextafter(float(np.max(c.hi + r)), _INF)


def _candidate_pairs(c: IArray, r: np.ndarray):
    """Blocks (i, j), i < j, of at most _PAIR_BLOCK pairs, and at least one
    block: every disk pair whose widened real extents [L, H] overlap.

    With u = 2^-53 and A = mag(c) + r: L = fl(fl(c.lo - r) - m), H =
    fl(fl(c.hi + r) + m), m = fl(fl(A) 2^-50) + 2^-1072 >= 8u(1 - u)A (the
    2^-1072 covers a subnormal product).  Two roundings to nearest put L at
    most at c.lo - r - (1 - u)m + 2u(1 + u)A, and H as far above.  The test
    joins i and j when max(0, d.lo, -d.hi) <= fl(r_i + r_j), d = c_i - c_j,
    with d.lo the two-sum c_i.lo - c_j.hi at most an ulp low: a joined pair
    has c_i.lo - c_j.hi - r_i - r_j <= 2u(1 + u)(A_i + A_j), less than the
    (8(1 - u)^2 - 2(1 + u))u(A_i + A_j) the margins allow, so L_i <= H_j;
    -d.hi gives L_j <= H_i.  Ends and margins overflow outward, to +-inf.
    A d that overflows is clamped to the largest double; if fl(r_i + r_j)
    reaches it, A_i + A_j exceeds twice it, so some fl(A) is inf or
    c_i.lo - c_j.hi - r_i - r_j < 2^972, within the margins.  Sorted by L,
    disk p meets the q > p with L_q <= H_p.
    """
    # a lone disk may have an infinite center: its NaN ends meet nothing
    with np.errstate(over="ignore", invalid="ignore"):
        m = (np.maximum(np.abs(c.lo), np.abs(c.hi)) + r) * 2.0 ** -50 + 2.0 ** -1072
        ext_lo, ext_hi = c.lo - r - m, c.hi + r + m
    by_lo = np.argsort(ext_lo, kind="stable")
    cnt = np.searchsorted(ext_lo[by_lo], ext_hi[by_lo], side="right") - np.arange(len(r)) - 1
    first, total = np.cumsum(cnt) - cnt, int(cnt.sum())    # pair number of p's first pair
    for k0 in range(0, max(total, 1), _PAIR_BLOCK):
        k = np.arange(k0, min(total, k0 + _PAIR_BLOCK))
        p = np.searchsorted(first, k, side="right") - 1
        a, b = by_lo[p], by_lo[p + 1 + k - first[p]]
        yield np.minimum(a, b), np.maximum(a, b)


def cluster_disks(diskset: DiskSet) -> list:
    """Group overlapping finite disks; counts carry multiplicity.

    Disks i and j join when mig(c_i - c_j) <= r_i + r_j; clusters are the
    connected components.  The centers are real, so the gap is the exact
    mignitude of an outward-rounded difference: the test merges whatever
    exact overlap asks for.  It runs on the blocks of _candidate_pairs, a
    superset of the joined pairs, one ComplexBox.mig call on an IArray
    batch each, folded into the labels at once; so partition, member order
    and lo/hi bits are the all-pairs loop's.  The cost is O(n log n +
    candidates), quadratic only when all extents overlap.
    """
    c, r = _checked(diskset)
    re_lo, re_hi, n = c.lo, c.hi, len(c.lo)
    label = np.arange(n)
    for i, j in _candidate_pairs(c, r):
        touch = (ComplexBox(c[i]) - ComplexBox(c[j])).mig() <= r[i] + r[j]
        if touch.any():
            edges = coo_matrix((np.ones(touch.sum()), (label[i[touch]], label[j[touch]])),
                               shape=(n, n))
            label = connected_components(edges, directed=False)[1][label]
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    lo = ulp_step(np.minimum.reduceat(re_lo[order] - r[order], starts), -_INF)
    hi = ulp_step(np.maximum.reduceat(re_hi[order] + r[order], starts), _INF)
    clusters = [Cluster(members=m.tolist(), lo=float(x), hi=float(y), count=len(m))
                for m, x, y in zip(np.split(order, starts[1:]), lo, hi)]
    # ties in (lo, hi) keep the order of the lowest members
    clusters.sort(key=lambda c: (c.lo, c.hi, c.members[0]))
    return clusters


# ---------------------------------------------------------------------------
# Newton (non-rigorous; produces candidate states only)


def newton_solve(model: Model, grid: Grid, sector: str, seed, N: int,
                 tol: float = 1e-11, max_iter: int = 80) -> FourierSeq:
    """Newton iteration on the truncated sector coefficients.

    seed is a FourierSeq or a raw coefficient array in sector storage.  The
    returned sequence is a point sequence; its defect must be certified
    elsewhere before any rigorous claim.  A full-storage iterate is made
    exactly even, 0.5 (v + v[::-1]): the flat v reversed is its reflection.
    """
    if model.components != 1:
        raise InvalidParameter("newton_solve supports scalar models only")
    idx = index_list(grid, sector, N)
    lam_mid = np.array([l.mid() for l in symbol_diag(model, grid, idx).elements()])
    side = 2 * N + 1 if sector == "full" else N + 1
    shape = (side,) * grid.m
    if not isinstance(seed, FourierSeq):
        seed = FourierSeq.from_point(grid, sector, np.asarray(seed, dtype=np.float64))

    def even(v: np.ndarray) -> np.ndarray:
        return 0.5 * (v + v[::-1]) if sector == "full" else v

    vec = even(_flatten_to(seed, grid, sector, N))

    def to_seq(v: np.ndarray) -> FourierSeq:
        return FourierSeq.from_point(grid, sector, v.reshape(shape))

    def res(v: np.ndarray) -> np.ndarray:
        useq, terms = to_seq(v), []
        for deg, coeff in model.nonlin:
            term = useq
            for _ in range(deg - 1):
                term = conv(term, useq)
            terms.append(term.scaled(coeff))
        return lam_mid * v + (_flatten_to(sum(terms[1:], terms[0]), grid, sector, N)
                              if terms else 0.0)

    for _ in range(max_iter):
        r = res(vec)
        if np.max(np.abs(r)) < tol:
            return to_seq(vec)
        wk = kernel_from_state(model, to_seq(vec))
        jac = assemble_jacobian(model, wk, sector, N).mid()
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular Newton system: {exc}") from exc
        ns = float(np.max(np.abs(step)))
        if not math.isfinite(ns):
            raise NoConvergence("Newton step is not finite")
        # cap the max-norm of early steps; full steps once in the basin
        vec = even(vec - (step if ns < _NEWTON_STEP_CAP
                          else step * (_NEWTON_STEP_CAP / ns)))
    raise NoConvergence(f"no convergence after {max_iter} Newton steps")


def _flatten_to(seq: FourierSeq, grid: Grid, sector: str, N: int) -> np.ndarray:
    """Midpoint coefficients of seq restricted/padded to the cube I^N."""
    if seq.sector != sector:
        raise GridMismatch("sector changed during Newton assembly")
    s = seq.padded(N) if seq.S < N else seq
    off, side = (s.S - N, 2 * N + 1) if s.axes[0] == "signed" else (0, N + 1)
    return s.mid()[(slice(off, off + side),) * grid.m].reshape(-1)
