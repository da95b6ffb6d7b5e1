"""Finite-dimensional stage: Jacobian blocks, pseudo-diagonalization, disks.

The linearization at a state with coefficient sequence U0 acts on sector
coordinates as diag(l(n~)) plus convolution by the kernel W = DG(U0).  With
the orthonormal sector basis b_k = m_k^{-1/2} sum_sigma chi(sigma) e_{sigma k}
(chi flips sign on reflected odd axes) the matrix entries are

    A[n, k] = delta_{nk} l(n~) + sqrt(m_n / m_k) sum_sigma chi(sigma) W[n - sigma k],

which is what conv_block assembles, in one pass for all sigma: coordinates
on a reflected axis are >= 0, so the identity reaches every entry a flip
does, and an entry is a value of its per-axis states, read from a table
that runs each state's sum once.  A disk radius reads only sums of |H P|,
H the shell coupling, which need no interval product (mag_product_sums).
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
from .imatrix import IMatrix, mag_product_sums, op_norm2_bound, verified_inverse
from .interval import PI, ComplexBox, IArray, Interval, iv_sqrt, ulp_step
from .models import Model

_INF = math.inf
_NEWTON_STEP_CAP = 0.5        # max-norm cap of a Newton step
_MID_ROW_BLOCK = 64           # mid-shell rows per streamed conv_block
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


def _reach(w: FourierSeq, sector: str, cols):
    """conv_block over the columns `cols`, prepared once: a function of the
    rows that returns the reached entries as arrays (i, j, lo, hi), read
    from one table over the per-axis states (conv_block says why)."""
    m, sw = w.grid.m, w.S
    axes = _axis_types(m, sector)
    if "s" in w.sector:
        raise GridMismatch(f"{sector!r} basis with an odd kernel is not supported")
    refl = [ax for ax, kind in enumerate(axes) if kind != "signed"]

    def coords(x):
        x = np.asarray(x, dtype=np.int64).reshape(len(x), m)
        if (x[:, refl] < 0).any():
            raise InvalidParameter(f"a negative coordinate on a reflected axis of {sector!r}")
        return x
    cols_a = coords(cols)
    # the box holds the origin, which also covers an empty column list
    base, top = cols_a.min(axis=0, initial=0), cols_a.max(axis=0, initial=0)
    table = np.full(tuple(top - base + 1), -1, dtype=np.int64)
    table[tuple((cols_a - base).T)] = np.arange(len(cols_a))
    if np.count_nonzero(table >= 0) != len(cols_a):
        raise DimensionMismatch("conv_block columns must be distinct")
    # per axis, a window of <= 2S + 1 box coordinates holds every k_a a row reaches
    width = np.minimum(2 * sw + 1, top - base + 1)
    windows = np.lib.stride_tricks.sliding_window_view(table, tuple(width))
    wstride = (2 * sw + 1) ** np.arange(m - 1, -1, -1)
    wlo, whi = (x.ravel() for x in w.expand_signed())

    def state(ax, n_a, k_a):    # the code of (n_a, k_a), |n_a - k_a| <= S
        if axes[ax] == "signed":
            return n_a - k_a + sw
        s = n_a + k_a
        return np.where((s <= sw) & (k_a != 0), 3 * sw + s * (s - 1) // 2 + k_a,
                        n_a - k_a + sw + sw * ((k_a == 0) & (n_a > 0)))
    # one (n_a, k_a) per state in code order: on a reflected axis the
    # untouched (d_a, 0) and (d_a > 0, 1), then from 3S + 1 on the touched
    d, (s, k) = np.arange(-sw, sw + 1), (x + 1 for x in np.tril_indices(sw))
    reps = [(d, 0 * d) if kind == "signed" else (np.concatenate([sw + 1 + d, d[sw + 1:], s - k]),
            np.concatenate([0 * d + sw + 1, 0 * d[sw + 1:], k])) for kind in axes]
    pos = sum(np.ix_(*[(n_a - k_a + sw) * wstride[ax] for ax, (n_a, k_a) in enumerate(reps)]))
    e = m + sum(np.ix_(*[(ax in refl) * (np.sign(n_a) - np.sign(k_a)) for ax, (n_a, k_a)
                         in enumerate(reps)]))
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
            at = pos[box] + sum(np.ix_(*[(ax in flipped) * 2 * wstride[ax] * k_a[cut] for
                                         ax, ((_, k_a), cut) in enumerate(zip(reps, box))]))
            glo, ghi = (-whi, -wlo) if sum(axes[ax] == "s" for ax in flipped) % 2 else (wlo, whi)
            acc_lo[box] += glo[at]
            acc_hi[box] += ghi[at]
            ulp_step(acc_lo, -_INF)
            ulp_step(acc_hi, _INF)
        lo = ulp_step(np.minimum(acc_lo * f_lo[e], acc_lo * f_hi[e]), -_INF)
        hi = ulp_step(np.maximum(acc_hi * f_lo[e], acc_hi * f_hi[e]), _INF)
    sstride, t_lo, t_hi = np.array(lo.strides) // lo.itemsize, lo.ravel(), hi.ravel()

    def block(rows):
        rows_a = coords(rows)
        start = np.clip(rows_a - sw, base, top - width + 1)
        r, *offset = np.indices((len(rows_a), *width), sparse=True)    # a (row, window) grid
        n, k = [rows_a[r, ax] for ax in range(m)], [start[r, ax] + offset[ax] for ax in range(m)]
        j = windows[tuple((start - base).T)]
        hit = j >= 0
        for ax in range(m):
            hit &= np.abs(k[ax] - n[ax]) <= sw
        at = np.broadcast_to(sum(state(ax, n[ax], k[ax]) * sstride[ax] for ax in range(m)),
                             hit.shape)[hit]
        return np.broadcast_to(r, hit.shape)[hit], j[hit], t_lo.take(at), t_hi.take(at)
    return block


def conv_block(w: FourierSeq, sector: str, rows, cols) -> IMatrix:
    """Interval matrix of convolution by w between sector basis vectors.

    The kernel must be reflection-invariant (no odd axes) unless the basis
    sector is "full", in which case no symmetrization happens at all.  A
    negative coordinate on a reflected axis is refused: n_a + k_a <= S then
    implies |n_a - k_a| <= S, so one pass over the pairs |k - n|_inf <= S
    (columns distinct) serves every flip sigma.  Per flip the terms are
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
    n_a > 0.  _reach runs the chain once per state, 3S + 1 + S(S + 1)/2 per
    reflected axis, and a block reads its entries from that table.
    """
    i, j, lo, hi = _reach(w, sector, cols)(rows)
    out = IMatrix.from_point(np.zeros((len(rows), len(cols))))
    out.lo[i, j], out.hi[i, j] = lo, hi
    return out


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
    radius takes over.

    Mid rows go in blocks of _MID_ROW_BLOCK through one _reach over the
    columns inner + ext: the inner columns fill H = DG(mid <- inner), the
    diagonal gives the centers, and |.| of the other ext entries, in place
    in a zeroed block, the radii: the dense block's, bit for bit.

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
    grid, sw = w.grid, w.S
    m_cut = N + sw
    # I^(M+S) in index_list's row-major order; inner, mid and ext keep it
    cube = np.array(index_list(grid, sector, m_cut + sw), dtype=np.int64).reshape(-1, grid.m)
    size = np.abs(cube).max(axis=1)
    inner, ext, in_mid = cube[size <= N], cube[size > N], size[size > N] <= m_cut
    mid, p = ext[in_mid], len(inner)       # mid is the part of ext inside I^M

    # region (ii): explicit rows in the shell
    w0 = _kernel_w0(w)
    c_m = sym_factor(grid, sector)
    l1w = seq_l1(w)
    lam = symbol_diag(model, grid, np.concatenate([inner, mid]))
    d_lo, d_hi, term1, term2 = (np.zeros(len(mid)) for _ in range(4))   # d: the kernel diagonal
    r_inner = pseudo.off.hi.sum(axis=1)    # region (i): rows of D off the diagonal
    dg = dg_delta = dg_s = None
    if len(mid):
        diag_col, cols = p + np.flatnonzero(in_mid), np.concatenate([inner, ext])
        reach = _reach(w, sector, cols)
        mi_lo, mi_hi = np.zeros((len(mid), p)), np.zeros((len(mid), p))
        for b in range(0, len(mid), _MID_ROW_BLOCK):
            rows = mid[b:b + _MID_ROW_BLOCK]
            i, j, lo, hi = reach(rows)
            into, on_diag = j < p, j == diag_col[b + i]
            mi_lo[b + i[into], j[into]], mi_hi[b + i[into], j[into]] = lo[into], hi[into]
            d_lo[b + i[on_diag]], d_hi[b + i[on_diag]] = lo[on_diag], hi[on_diag]
            mag = np.zeros((len(rows), len(cols)))
            np.put(mag, i * len(cols) + j, np.maximum(np.abs(lo), np.abs(hi)))
            mag[np.arange(len(rows)), diag_col[b:b + len(rows)]] = 0.0
            term2[b:b + len(rows)] = mag[:, p:].sum(axis=1)
        del reach, i, j, lo, hi, mag     # free the table and last block before the sums
        dg = IMatrix(mi_lo, mi_hi)
        term1, hp_cols = mag_product_sums(dg, pseudo.P.lo)
        # region (i) couples into the shell through Pinv H^T = (H P)^T + pad.
        # delta_i >= max_l |Pinv - P^T|_il: a difference rounds by at most
        # 2^-53 of itself, which two ulps up cover
        pt = pseudo.P.lo.T
        dg_delta = ulp_step(np.maximum(np.abs(pseudo.Pinv.lo - pt).max(axis=1),
                                       np.abs(pseudo.Pinv.hi - pt).max(axis=1)), _INF, 2)
        dg_s = dg.row_sums_hi()
        pad = (IArray(dg_delta) * IArray(dg_s).sum()).hi
        r_inner = r_inner + (hp_cols + pad)
    # mag_product_sums rounds its sums up: the factors cover D's and term2's
    r_inner = ulp_step(r_inner * (1.0 + (p + 4) * 2.0 ** -53), _INF)
    r_mid = ulp_step((term1 + term2) * (1.0 + (len(ext) + 4) * 2.0 ** -53), _INF)
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
        useq = to_seq(v)
        total = None
        for deg, coeff in model.nonlin:
            term = useq
            for _ in range(deg - 1):
                term = conv(term, useq)
            term = term.scaled(coeff)
            total = term if total is None else total + term
        g = _flatten_to(total, grid, sector, N) if total is not None else 0.0
        return lam_mid * v + g

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
    mid = s.mid()
    signed = s.axes[0] == "signed"
    if signed:
        off = s.S
        sl = tuple(slice(off - N, off + N + 1) for _ in range(grid.m))
    else:
        sl = tuple(slice(0, N + 1) for _ in range(grid.m))
    return mid[sl].reshape(-1)
