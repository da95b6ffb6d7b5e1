"""The scalar loops that the batched radial and homotopy code replaced, and
the per-flip conv_block, the per-block flip loop of its state table,
list-built shell indices, inner-to-shell coupling product and interval
shell product H P whose magnitudes the disk radii summed, all of which the
finite stage replaced; scipy's direct N-D convolution, which the Toeplitz
matmuls of the 2-D coefficient convolution replaced; and the interval Gram
whose magnitude sums bounded the spectral norm.

Each function is the one-Interval-at-a-time (or one-flip-at-a-time) version
of a library function, with the same signature, so that a test can check
the faster version bit for bit against it, or put it in the library's
place.  None of them is fast; all of them are simple.
"""

import heapq
import itertools
import math

import numpy as np

from speccert.errors import (
    DegenerateEigenbasis,
    DimensionMismatch,
    DivisionByZeroInterval,
    DomainError,
    GridMismatch,
    InvalidParameter,
)
from speccert.fourier import FourierSeq, _axis_types, conv, index_list
from speccert.imatrix import IMatrix
from speccert.interval import PI, Interval, elementwise, iv_exp, iv_sqrt, ulp_step
from speccert.radial import _MIN_WIDTH

_INF = math.inf


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


# -- finite ---------------------------------------------------------------

def shell_indices(grid, sector: str, inner: int, outer: int):
    """Sector indices n with inner < |n|_inf <= outer, deterministic order:
    the list form of the cube split that gershgorin_disks makes on arrays."""
    return [n for n in index_list(grid, sector, outer)
            if max(abs(c) for c in n) > inner]


def conv_block_reference(w: FourierSeq, sector: str, rows, cols) -> IMatrix:
    """finite.conv_block one flip at a time: each flip sigma enumerates its
    own windows and looks its columns up in the table, and a hit mask with
    a dense rank collects the reached entries.

    Interval matrix of convolution by w between sector basis vectors.

    The kernel is stored in a sector with no odd axis; in the "full" basis
    no symmetrization happens at all.  Work
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


def reach_reference(w: FourierSeq, sector: str, cols):
    """finite._StateTable.gather with the flip loop in every block, as a
    function of the rows that returns the reached entries (i, j, lo, hi):
    the entries no flip touches come from a table of kernel position and e,
    and each block adds and steps the flip terms of its touched entries
    itself."""
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
    tstride, table = np.array(table.strides) // table.itemsize, table.ravel()
    # per axis, a window of <= 2S + 1 box coordinates holds every k_a a row reaches
    width = np.minimum(2 * sw + 1, top - base + 1)
    wstride = (2 * sw + 1) ** np.arange(m - 1, -1, -1)
    wlo, whi = (x.ravel() for x in w.expand_signed())
    n_w, flips = len(wlo), [[ax for ax, flip in zip(refl, flags) if flip] for flags in
                            list(itertools.product((False, True), repeat=len(refl)))[1:]]
    # sqrt(m_n / m_k), m = 2^(nonzero symmetric coordinates), takes 2m + 1
    # values f_e, each a tiny outward-rounded interval; as f > 0 the product
    # bounds are acc_lo * f and acc_hi * f at one end of f
    ratio = np.sqrt(2.0 ** np.arange(-m, m + 1))
    f_lo, f_hi = (ulp_step(ratio, to, 2, out=np.empty_like(ratio)) for to in (-_INF, _INF))

    def scaled(acc_lo, acc_hi, e):
        return (ulp_step(np.minimum(acc_lo * f_lo[e], acc_lo * f_hi[e]), -_INF),
                ulp_step(np.maximum(acc_hi * f_lo[e], acc_hi * f_hi[e]), _INF))
    # an entry no flip touches is its identity term stepped 1 + len(flips)
    # times, then scaled: a value of e and the kernel position, at e n_w + position
    with np.errstate(over="ignore"):    # positions no row reaches may overflow too
        u_lo, u_hi = (x.ravel() for x in scaled(
            ulp_step(wlo[None, :].copy(), -_INF, 1 + len(flips)),
            ulp_step(whi[None, :].copy(), _INF, 1 + len(flips)), np.arange(2 * m + 1)[:, None]))

    def flips_at(n_a, k_a):     # flipping axis a adds the terms of n_a + k_a <= S, k_a != 0
        return (n_a + k_a <= sw) & (k_a != 0)

    def block(rows):
        rows_a = coords(rows)
        start = np.clip(rows_a - sw, base, top - width + 1)
        r, *offset = np.indices((len(rows_a), *width), sparse=True)    # a (row, window) grid
        n, k = [rows_a[r, ax] for ax in range(m)], [start[r, ax] + offset[ax] for ax in range(m)]
        j = table.take(sum((k[ax] - base[ax]) * tstride[ax] for ax in range(m)))
        hit = j >= 0
        for ax in range(m):
            hit &= np.abs(k[ax] - n[ax]) <= sw
        touched = sum((flips_at(n[ax], k[ax]) for ax in refl), np.zeros(hit.shape, dtype=bool))

        def entries(x):
            return np.broadcast_to(x, hit.shape)[hit]
        i, j, t = entries(r), j[hit], np.flatnonzero(touched[hit])
        ue = entries(m * n_w + sum((n[ax] - k[ax] + sw) * wstride[ax] + (ax in refl) * n_w
                                   * (np.sign(n[ax]) - np.sign(k[ax])) for ax in range(m)))
        lo, hi = u_lo.take(ue), u_hi.take(ue)
        # touched entries: identity terms (x for 0 + x differs only at -0.0, which
        # the step erases), then per flip its terms at positions moved by 2 k_a
        (e, at0), kt = np.divmod(ue[t], n_w), cols_a[j[t]]
        ok = {ax: flips_at(rows_a[i[t], ax], kt[:, ax]) for ax in refl}
        acc_lo, acc_hi = ulp_step(wlo[at0], -_INF), ulp_step(whi[at0], _INF)
        for flipped in flips:
            sel = np.flatnonzero(np.logical_and.reduce([ok[ax] for ax in flipped]))
            at = at0[sel] + sum(2 * wstride[ax] * kt[sel, ax] for ax in flipped)
            # chi = -1 for an odd number of reflected odd axes: -W, as x - y is x + (-y)
            glo, ghi = (-whi, -wlo) if sum(axes[ax] == "s" for ax in flipped) % 2 else (wlo, whi)
            acc_lo[sel] += glo[at]
            acc_hi[sel] += ghi[at]
            ulp_step(acc_lo, -_INF)
            ulp_step(acc_hi, _INF)
        lo[t], hi[t] = scaled(acc_lo, acc_hi, e)
        return i, j, lo, hi
    return block


def convolve_direct_reference(a, b):
    """fourier._convolve_direct before the Toeplitz matmuls: scipy.signal's
    direct convolution, one product per pair of entries."""
    if a.ndim == 1:
        return np.convolve(a, b)
    from scipy.signal import convolve
    return convolve(a, b, mode="full", method="direct")


def inner_coupling_reference(w: FourierSeq, sector: str, inner, mid, pseudo) -> IMatrix:
    """Pinv DG(inner <- mid) as gershgorin_disks built it before it read the
    coupling off DG(mid <- inner) P by symmetry: one more convolution block
    and one more interval product."""
    return pseudo.Pinv @ conv_block_reference(w, sector, inner, mid)


def inner_radii_reference(pseudo, pinv_dg: IMatrix) -> np.ndarray:
    """The inner disk radii of that path: the off-diagonal row sums of the
    pseudo-diagonal block plus the row sums of |Pinv DG(inner <- mid)|."""
    p, n_mid = pinv_dg.shape
    r = pseudo.off.hi.sum(axis=1) + pinv_dg.mag().sum(axis=1)
    return np.nextafter(r * (1.0 + (p + n_mid + 4) * 2.0 ** -53), _INF)


def mid_rad_reference(lo, hi):
    """imatrix._mid_rad without the point shortcut: every operand split."""
    mid = lo + 0.5 * (hi - lo)
    return mid, ulp_step(np.maximum(hi - mid, mid - lo), _INF, 2, keep_zero=True)


def mag_product_sums_reference(a: IMatrix, b) -> tuple:
    """imatrix.mag_product_sums as gershgorin_disks had it before: the row
    and column sums of |a @ b|, for a float or interval b, from the interval
    product, each sum rounded up as IMatrix rounds a magnitude sum."""
    prod = a @ (b if isinstance(b, IMatrix) else IMatrix.from_point(b))
    return prod.row_sums_hi(), prod._sum_hi(axis=0)


def op_norm2_bound_reference(a: IMatrix) -> Interval:
    """imatrix.op_norm2_bound with its Gershgorin bound on the interval Gram
    a^T a: the row sums of its magnitude, rounded up as IMatrix rounds a
    magnitude sum."""
    if a.shape[0] == 0 or a.shape[1] == 0:
        return Interval(0.0, 0.0)
    b1 = iv_sqrt(Interval(0.0, a.norm1_hi()) * Interval(0.0, a.norminf_hi())).hi
    b2 = iv_sqrt(Interval(0.0, float((a.T @ a).row_sums_hi().max()))).hi
    return Interval(0.0, min(b1, b2))


def normalize_columns_reference(vecs):
    """finite._normalize_columns one column at a time."""
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
