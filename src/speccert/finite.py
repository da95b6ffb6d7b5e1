"""Finite-dimensional stage: Jacobian blocks, pseudo-diagonalization, disks.

The linearization at a state with coefficient sequence U0 acts on sector
coordinates as diag(l(n~)) plus convolution by the kernel W = DG(U0).  With
the orthonormal sector basis b_k = m_k^{-1/2} sum_sigma chi(sigma) e_{sigma k}
(chi flips sign on reflected odd axes) the matrix entries are

    A[n, k] = delta_{nk} l(n~) + sqrt(m_n / m_k) sum_sigma chi(sigma) W[n - sigma k],

which is what conv_block assembles.  Everything here is interval-rigorous
except newton_solve, which only manufactures candidate states.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

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
from .imatrix import IMatrix, op_norm2_bound, verified_inverse
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


def shell_indices(grid: Grid, sector: str, inner: int, outer: int):
    """Sector indices n with inner < |n|_inf <= outer, deterministic order."""
    return [n for n in index_list(grid, sector, outer)
            if max(abs(c) for c in n) > inner]


def min_tail_freq(grid: Grid, R: int) -> float:
    """Lower bound on |2 pi n~|_2 over indices outside the cube I^R."""
    v = (Interval(2.0) * PI * Interval(float(R + 1))) / Interval(2.0 * grid.d)
    return v.lo


# ---------------------------------------------------------------------------
# block assembly


def kernel_from_state(model: Model, u0: FourierSeq) -> FourierSeq:
    """W = DG(u0) as a coefficient sequence (rigorous convolutions)."""
    terms = []
    for pw, coeff in model.kernel_coeffs():
        if pw == 0:
            term = FourierSeq.delta0(u0.grid, "c" * u0.grid.m
                                     if u0.sector != "full" else "full")
        else:
            term = u0
            for _ in range(pw - 1):
                term = conv(term, u0)
        terms.append(term.scaled(coeff))
    if not terms:
        raise InvalidParameter(f"{model.name}: empty nonlinearity")
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def conv_block(w: FourierSeq, sector: str, rows, cols) -> IMatrix:
    """Interval matrix of convolution by w between sector basis vectors.

    The kernel must be reflection-invariant (no odd axes) unless the basis
    sector is "full", in which case no symmetrization happens at all.  Work
    follows the reach: per flip sigma a row n meets only the columns
    k = sigma (n - delta), |delta|_inf <= S, found in a position table over
    the columns' box (so columns must be distinct).  The bits are the dense
    formula's; entries no kernel coefficient reaches are exact zeros.
    """
    m, sw = w.grid.m, w.S
    axes = _axis_types(m, sector)
    if "s" in w.sector:
        raise GridMismatch(f"{sector!r} basis with an odd kernel is not supported")
    rows_a = np.asarray(rows, dtype=np.int64).reshape(len(rows), m)
    cols_a = np.asarray(cols, dtype=np.int64).reshape(len(cols), m)
    n_r, n_c = len(rows_a), len(cols_a)
    # the box holds the origin, which also covers an empty column list
    base, top = cols_a.min(axis=0, initial=0), cols_a.max(axis=0, initial=0)
    table = np.full(tuple(top - base + 1), -1, dtype=np.int64)
    table[tuple((cols_a - base).T)] = np.arange(n_c)
    if np.count_nonzero(table >= 0) != n_c:
        raise DimensionMismatch("conv_block columns must be distinct")
    stride = np.array(table.strides) // table.itemsize
    # per axis, a window of <= 2S + 1 box coordinates holds every k_a a row reaches
    width = np.minimum(2 * sw + 1, top - base + 1)
    lpos = np.indices(tuple(width)).reshape(m, -1).T
    wstride = (2 * sw + 1) ** np.arange(m - 1, -1, -1)
    wlo, whi = (x.ravel() for x in w.expand_signed())

    hit, terms = np.zeros(n_r * n_c, dtype=bool), []
    for flips in itertools.product(*[(1,) if kind == "signed" else (1, -1) for kind in axes]):
        sig = np.array(flips)
        # k = sigma (n - delta) with |delta|_inf <= S is |k - sigma n|_inf <= S;
        # no reflection of k_a = 0: each orbit element appears exactly once
        ctr = sig * rows_a
        start = np.clip(ctr - sw, base, top - width + 1)
        ok = np.ones((n_r, 1), dtype=bool)
        for ax in range(m):
            k = start[:, ax, None] + np.arange(width[ax])
            ok_ax = (np.abs(k - ctr[:, ax, None]) <= sw) & ((k != 0) | (sig[ax] == 1))
            ok = (ok[:, :, None] & ok_ax[:, None, :]).reshape(n_r, ok.shape[1] * width[ax])
        i, t = np.nonzero(ok)
        j = table.ravel()[((start - base) @ stride)[i] + (lpos @ stride)[t]]
        keep = j >= 0
        i, t, flat = i[keep], t[keep], i[keep] * n_c + j[keep]
        # kernel position delta + S = n - sigma k + S
        t = ((rows_a - sig * start + sw) @ wstride)[i] - ((lpos * sig) @ wstride)[t]
        hit[flat] = True
        # chi = -1 for an odd number of reflected odd axes: -W, as x - y is x + (-y)
        odd = sum(fl == -1 and kind == "s" for fl, kind in zip(flips, axes)) % 2
        terms.append((flat, -whi[t], -wlo[t]) if odd else (flat, wlo[t], whi[t]))

    # accumulate on the reached entries only, stepping all of them outward
    # after each flip as the dense formula does
    pos = np.flatnonzero(hit)
    rank = np.cumsum(hit) - 1
    acc_lo, acc_hi = np.zeros(len(pos)), np.zeros(len(pos))
    for flat, glo, ghi in terms:
        q = rank[flat]
        acc_lo[q] += glo
        acc_hi[q] += ghi
        ulp_step(acc_lo, -_INF)
        ulp_step(acc_hi, _INF)

    # sqrt(m_n / m_k), m = 2^(nonzero symmetric coordinates), takes 2m + 1
    # values, each a tiny outward-rounded interval; as f > 0 the product
    # bounds are acc_lo * f and acc_hi * f at one end of f
    ratio = np.sqrt(2.0 ** np.arange(-m, m + 1))
    f_lo, f_hi = (ulp_step(ratio, to, 2, out=np.empty_like(ratio)) for to in (-_INF, _INF))
    sym_axes = [ax for ax, kind in enumerate(axes) if kind != "signed"]
    cnt_r, cnt_c = (np.count_nonzero(x[:, sym_axes], axis=1) for x in (rows_a, cols_a))
    e = cnt_r[pos // n_c] + m - cnt_c[pos % n_c]
    out_lo, out_hi = np.zeros((n_r, n_c)), np.zeros((n_r, n_c))
    out_lo.ravel()[pos] = ulp_step(np.minimum(acc_lo * f_lo[e], acc_lo * f_hi[e]), -_INF)
    out_hi.ravel()[pos] = ulp_step(np.maximum(acc_hi * f_lo[e], acc_hi * f_hi[e]), _INF)
    return IMatrix(out_lo, out_hi)


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
    point matrix), Pinv a verified real enclosure of its inverse,
    D = Pinv A P, and lams the Intervals on the diagonal of D.
    """

    P: IMatrix
    Pinv: IMatrix
    D: IMatrix
    lams: list
    inv_defect: Interval
    p_norm: Interval


def _normalize_columns(vecs: np.ndarray) -> np.ndarray:
    """Unit columns whose entry of largest magnitude is positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0:
            col = -col
        nrm = np.linalg.norm(col)
        if nrm == 0:
            raise DegenerateEigenbasis("zero eigenvector column")
        out[:, j] = col / nrm
    return out


def build_pseudo_diag(a: IMatrix, indices, self_adjoint: bool) -> PseudoDiag:
    """Diagonalize the symmetrized midpoint of `a` and carry the exact
    matrix along.  Only self-adjoint linearizations are supported."""
    if not self_adjoint:
        raise InvalidParameter(
            "pseudo-diagonalization supports self-adjoint models only")
    mid = a.mid()
    _, vecs = np.linalg.eigh(0.5 * (mid + mid.T))
    p = IMatrix.from_point(_normalize_columns(vecs))
    try:
        pinv, defect = verified_inverse(p)
    except Exception as exc:
        raise DegenerateEigenbasis(f"eigenbasis not verifiably invertible: {exc}")
    d = (pinv @ a) @ p
    lams = [d.get(i, i) for i in range(len(indices))]
    return PseudoDiag(
        P=p,
        Pinv=pinv,
        D=d,
        lams=lams,
        inv_defect=defect,
        p_norm=op_norm2_bound(p),
    )


# ---------------------------------------------------------------------------
# Gershgorin disks


@dataclass
class DiskSet:
    """Certified Gershgorin enclosure of the truncation-free linearization.

    Centers are ComplexBoxes whose imaginary part is exactly [0, 0]: the
    linearization is self-adjoint, so only the real parts carry bounds, and
    the homotopy stage reads nothing else.  They stay boxes for the readers
    of boxes: the disk-set and certificate JSON write each center as a
    re/im pair, the benchmark harness reads `im`, and cluster_disks tests
    each pair gap with ComplexBox.mig.  The kernel diagonal w0 is an
    Interval.

    * inner disks: centers lams from the pseudo-diagonal block I^N;
    * mid disks: centers l(n~) + diagonal kernel term for I^M minus I^N;
    * tail: every remaining index carries the disk
      B(l(n~) + w0, tail_radius); the symbol range over the tail region is
      reported through min_tail_s (lower bound on the radial variable).
    """

    grid: Grid
    sector: str
    n_inner: int
    n_mid: int
    inner_indices: list = field(default_factory=list)
    mid_indices: list = field(default_factory=list)
    centers: list = field(default_factory=list)
    radii: list = field(default_factory=list)
    w0: Interval = None
    tail_radius: float = 0.0
    min_tail_s: float = 0.0
    sym_factor: float = 1.0
    l1w: Interval = None               # |W|_1, behind tail_radius and later bounds

    @functools.cached_property
    def center_re(self) -> IArray:
        return IArray([c.re.lo for c in self.centers], [c.re.hi for c in self.centers])


def _kernel_w0(w: FourierSeq) -> Interval:
    pos = (w.S if w.axes[0] == "signed" else 0,) * w.grid.m
    return Interval(float(w.lo[pos]), float(w.hi[pos]))


def sym_factor(grid: Grid, sector: str) -> float:
    """Upper bound on sqrt(m_n / m_k) over sector index pairs."""
    axes = _axis_types(grid.m, sector)
    a = sum(1 for k in axes if k != "signed")
    return float(Interval(2.0 ** a) .hi) ** 0.5 if a else 1.0


def gershgorin_disks(model: Model, w: FourierSeq, sector: str, N: int,
                     pseudo: PseudoDiag, a_inner: IMatrix) -> DiskSet:
    """Disks for the full (infinite) sector operator.

    a_inner must be the jacobian block the pseudo-diagonalization was built
    from.  M = N + S_W is where explicit rows stop and the uniform tail
    radius takes over.

    Mid rows meet the ext shell in blocks of _MID_ROW_BLOCK rows, never as
    one dense mid x ext block: at the N = 16 planar spot 64 rows peak at
    145 MB RSS against 218 MB dense (16 rows: 145 MB, 256 rows: 168 MB).
    The disks are bit for bit those of the dense block, since a conv_block
    entry depends only on its own (row, column) and every block keeps all
    ext columns, so each row sum adds the same terms in the same order.
    """
    grid = w.grid
    sw = w.S
    m_cut = N + sw
    inner = index_list(grid, sector, N)
    mid = shell_indices(grid, sector, N, m_cut)
    p = len(inner)

    # region (i): rows of D off the diagonal, plus the coupling into the mid
    # shell through Pinv DG
    off = pseudo.D.mag()
    np.fill_diagonal(off, 0.0)
    r_inner = off.sum(axis=1)
    if mid:
        coupling = pseudo.Pinv @ conv_block(w, sector, inner, mid)
        r_inner = r_inner + coupling.mag().sum(axis=1)
    r_inner = ulp_step(r_inner * (1.0 + (p + len(mid) + 4) * 2.0 ** -53), _INF)

    centers = [ComplexBox(lam) for lam in pseudo.lams]
    radii = [float(x) for x in r_inner]

    # region (ii): explicit rows in the shell
    w0 = _kernel_w0(w)
    c_m = sym_factor(grid, sector)
    l1w = seq_l1(w)
    if mid:
        ext = shell_indices(grid, sector, N, m_cut + sw)
        term1 = (conv_block(w, sector, mid, inner) @ pseudo.P).mag().sum(axis=1)
        lam_mid = symbol_diag(model, grid, mid)
        ext_col = {n: j for j, n in enumerate(ext)}
        term2 = np.empty(len(mid))
        for b in range(0, len(mid), _MID_ROW_BLOCK):
            rows = mid[b:b + _MID_ROW_BLOCK]
            dg_rows_ext = conv_block(w, sector, rows, ext)
            i, j = np.arange(len(rows)), np.array([ext_col[n] for n in rows])
            diag = lam_mid[b:b + len(rows)] + IArray(dg_rows_ext.lo[i, j], dg_rows_ext.hi[i, j])
            centers += [ComplexBox(c) for c in diag.checked().elements()]
            mag_ext = dg_rows_ext.mag()
            mag_ext[i, j] = 0.0
            term2[b:b + len(rows)] = mag_ext.sum(axis=1)
        r_mid = ulp_step((term1 + term2) * (1.0 + (len(ext) + p + 4) * 2.0 ** -53), _INF)
        radii.extend(float(x) for x in r_mid)

    tail_radius = (Interval(c_m) * (l1w - w0.abs())).hi
    return DiskSet(
        grid=grid,
        sector=sector,
        n_inner=N,
        n_mid=m_cut,
        inner_indices=inner,
        mid_indices=mid,
        centers=centers,
        radii=radii,
        w0=w0,
        tail_radius=tail_radius,
        min_tail_s=min_tail_freq(grid, m_cut),
        sym_factor=c_m,
        l1w=l1w,
    )


# ---------------------------------------------------------------------------
# clusters


@dataclass
class Cluster:
    members: list            # positions into DiskSet.centers
    lo: float                # real-part extent of the union of disks
    hi: float
    count: int


def cluster_disks(diskset: DiskSet) -> list:
    """Group overlapping finite disks; counts carry multiplicity.

    Disks i and j join when mig(c_i - c_j) <= r_i + r_j; clusters are the
    connected components.  The pairs i < j go row by row in blocks of at
    most _PAIR_BLOCK pairs (or one row), each tested by one ComplexBox.mig
    call on IArray boxes and folded into the labels at once, so no array
    holds all n^2/2 pairs.  IArray gives the Interval bits element by
    element, so partition, member order and lo/hi bits are the scalar pair
    loop's.  No sort-and-sweep prefilter yet: 1089 planar disks take
    0.11 s (one core of a 2-core Xeon), and on separated 1D spectra no
    pair would pass one.
    """
    n = len(diskset.centers)
    ends = [(c.re.lo, c.re.hi, c.im.lo, c.im.hi) for c in diskset.centers]
    box = np.array(ends, dtype=float).reshape(n, 4)
    if n > 1 and not np.isfinite(box).all():
        raise UnboundedOperand("disk center with an infinite endpoint")
    r = np.array(diskset.radii, dtype=float)
    if not np.isfinite(r).all():
        raise UnboundedOperand("disk with a NaN or infinite radius")
    re_lo, re_hi, im_lo, im_hi = box.T
    label, a = np.arange(n), 0
    while a < n - 1:
        # rows a..b-1 against columns a+1..n-1: at most _PAIR_BLOCK pairs
        b = min(n - 1, a + max(1, _PAIR_BLOCK // (n - 1 - a)))
        i, j = np.nonzero(np.arange(a + 1, n) > np.arange(a, b)[:, None])
        i, j, a = i + a, j + a + 1, b
        z = ComplexBox(IArray(re_lo[i], re_hi[i]), IArray(im_lo[i], im_hi[i]))
        w = ComplexBox(IArray(re_lo[j], re_hi[j]), IArray(im_lo[j], im_hi[j]))
        touch = (z - w).mig() <= r[i] + r[j]
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
    elsewhere before any rigorous claim.
    """
    if model.components != 1:
        raise InvalidParameter("newton_solve supports scalar models only")
    idx = index_list(grid, sector, N)
    lam_mid = np.array([l.mid() for l in symbol_diag(model, grid, idx).elements()])
    side = 2 * N + 1 if sector == "full" else N + 1
    shape = (side,) * grid.m
    if not isinstance(seed, FourierSeq):
        seed = FourierSeq.from_point(grid, sector, np.asarray(seed, dtype=np.float64))
    vec = _flatten_to(seed, grid, sector, N)

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
        vec = vec - (step if ns < _NEWTON_STEP_CAP
                     else step * (_NEWTON_STEP_CAP / ns))
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
