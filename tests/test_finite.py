import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from speccert import finite
from speccert.errors import (
    DegenerateEigenbasis,
    DimensionMismatch,
    GridMismatch,
    InvalidParameter,
    UnboundedOperand,
)
from speccert.fourier import FourierSeq, Grid, conv, index_list
from speccert.interval import ComplexBox, IArray, Interval
from speccert.finite import (
    Cluster,
    DiskSet,
    assemble_jacobian,
    build_pseudo_diag,
    cluster_disks,
    conv_block,
    freq_norm_iv,
    gershgorin_disks,
    kernel_from_state,
    min_tail_freq,
    spectral_edge,
    symbol_diag,
)
from speccert.imatrix import IMatrix, mag_product_sums, verified_inverse
from speccert.models import sh_model
import scalar_paths
from scalar_paths import shell_indices

GRID1 = Grid(1, 10.0)


# -- index helpers --------------------------------------------------------

def test_freq_norm_values():
    [enc] = freq_norm_iv(GRID1, [(5,)]).elements()
    assert enc.contains(2 * math.pi * 5 / 20.0)
    g2 = Grid(2, 5.0)
    [enc2] = freq_norm_iv(g2, [(3, 4)]).elements()
    assert enc2.contains(2 * math.pi * 5 / 10.0)


def test_shell_and_tail():
    sh = shell_indices(GRID1, "c", 2, 4)
    assert sh == [(3,), (4,)]
    shf = shell_indices(GRID1, "full", 1, 2)
    assert shf == [(-2,), (2,)]
    assert min_tail_freq(GRID1, 4) <= 2 * math.pi * 5 / 20.0
    assert min_tail_freq(GRID1, 4) >= 2 * math.pi * 5 / 20.0 - 1e-12


# -- convolution blocks against a quadrature oracle -----------------------

def _basis_value(sector_kind, n, x, d):
    if sector_kind == "full":
        return np.exp(1j * math.pi * n * x / d) / math.sqrt(2 * d)
    if n == 0:
        return np.ones_like(x) / math.sqrt(2 * d)
    if sector_kind == "c":
        return np.cos(math.pi * n * x / d) / math.sqrt(d)
    return np.sin(math.pi * n * x / d) / math.sqrt(d)


def _quadrature_block(w, sector, rows, cols):
    """<phi_n, W phi_k> on [-d, d] via the periodic trapezoid rule."""
    d = w.grid.d
    npts = 4096
    x = np.linspace(-d, d, npts, endpoint=False)
    coeffs = w.mid()
    wx = np.full_like(x, coeffs[0])
    for j in range(1, w.S + 1):
        wx = wx + 2.0 * coeffs[j] * np.cos(math.pi * j * x / d)
    h = 2 * d / npts
    out = np.zeros((len(rows), len(cols)), dtype=np.complex128)
    for i, (n,) in enumerate(rows):
        fn = _basis_value(sector, n, x, d)
        for j, (k,) in enumerate(cols):
            fk = _basis_value(sector, k, x, d)
            out[i, j] = np.sum(np.conj(fn) * wx * fk) * h
    return out


@pytest.mark.parametrize("sector", ["c", "s", "full"])
def test_conv_block_matches_quadrature(sector):
    rng = np.random.default_rng(17)
    w = FourierSeq.from_point(GRID1, "c", rng.standard_normal(4))
    rows = index_list(GRID1, sector, 5)
    if sector == "s":
        rows = [n for n in rows if n != (0,)]
    block = conv_block(w, sector, rows, rows)
    oracle = _quadrature_block(w, sector, rows, rows)
    assert np.max(np.abs(block.mid() - oracle)) < 1e-10


def test_conv_block_zero_kernel():
    w = FourierSeq.zeros(GRID1, "c", 3)
    rows = index_list(GRID1, "c", 4)
    block = conv_block(w, "c", rows, rows)
    # outward rounding leaves at most a few subnormals of slack
    assert np.max(block.mag()) < 1e-300


def test_conv_block_refuses_duplicate_columns():
    # a position table holds one column per index: a second copy would be
    # left at zero, which shrinks a Gershgorin radius
    w = FourierSeq.from_point(GRID1, "c", np.array([1.0, 0.5, 0.25]))
    rows = [(0,), (1,), (2,)]
    with pytest.raises(DimensionMismatch):
        conv_block(w, "c", rows, [(1,), (2,), (1,)])
    with pytest.raises(DimensionMismatch):
        conv_block(FourierSeq.from_point(Grid(2, 5.0), "cc", np.ones((2, 2))),
                   "cc", [(0, 0)], [(0, 1), (1, 1), (0, 1)])
    dup_rows = conv_block(w, "c", [(1,), (1,)], [(1,), (2,)])
    assert np.array_equal(dup_rows.lo[0], dup_rows.lo[1])
    assert dup_rows.lo[0, 0] > 0.0


@pytest.mark.parametrize("sector", ["c", "s", "full"])
def test_conv_block_refuses_odd_kernel(sector):
    w = FourierSeq.from_point(GRID1, "s", np.array([0.0, 0.5, 0.25]))
    with pytest.raises(GridMismatch):
        conv_block(w, sector, [(1,)], [(1,)])


@pytest.mark.parametrize("sector, row, col", [
    ("c", (-1,), (1,)), ("s", (1,), (-2,)), ("cs", (1, -1), (0, 0)), ("sc", (0, 0), (-3, 2)),
])
def test_conv_block_refuses_a_negative_reflected_coordinate(sector, row, col):
    # a reflected axis reaches only through n_a + k_a <= S => |n_a - k_a| <= S,
    # which a negative coordinate breaks: refused, not silently missed
    m = len(row)
    w = FourierSeq.from_point(Grid(m, 5.0), "c" * m, np.ones((3,) * m))
    with pytest.raises(InvalidParameter, match="negative coordinate"):
        conv_block(w, sector, [row], [col])
    # signed axes take any sign
    full = conv_block(FourierSeq.from_point(Grid(m, 5.0), "full", np.ones((7,) * m)),
                      "full", [row], [col])
    assert full.lo[0, 0] > 0.0


def test_conv_block_2d_symmetric_oracle():
    # the cc-sector block must be symmetric up to the orbit normalization,
    # which makes it exactly symmetric in the orthonormal basis
    g2 = Grid(2, 6.0)
    rng = np.random.default_rng(23)
    w = FourierSeq.from_point(g2, "cc", rng.standard_normal((3, 3)))
    rows = index_list(g2, "cc", 3)
    block = conv_block(w, "cc", rows, rows).mid()
    assert np.max(np.abs(block - block.T)) < 1e-11


# -- jacobian assembly ----------------------------------------------------

def test_assemble_jacobian_diagonal_is_symbol_when_kernel_vanishes():
    model = sh_model(0.5, -1.0, 1.0, m=1)
    w = FourierSeq.zeros(GRID1, "c", 2)
    a = assemble_jacobian(model, w, "c", 4)
    idx = index_list(GRID1, "c", 4)
    for i, lam in enumerate(symbol_diag(model, GRID1, idx).elements()):
        assert a.lo[i, i] <= lam.hi and a.hi[i, i] >= lam.lo
        row = a.mag()[i]
        assert row.sum() - row[i] == 0.0


def test_kernel_from_state_sh():
    # W = DG(u0) = -2 nu1 u0 - 3 nu2 u0*u0
    model = sh_model(0.5, -1.6, 1.0, m=1)
    rng = np.random.default_rng(29)
    u0 = FourierSeq.from_point(GRID1, "c", rng.standard_normal(3))
    w = kernel_from_state(model, u0)
    direct = u0.scaled(Interval(2 * 1.6)) + conv(u0, u0).scaled(Interval(-3.0))
    dpad = direct.padded(w.S) if direct.S < w.S else direct
    assert np.max(np.abs(w.mid() - dpad.mid())) < 1e-12


def test_kernel_from_state_refuses_a_linear_term():
    # a degree-1 term of G belongs in the symbol; its kernel would be the
    # unit sequence, which no factory builds, so it must not pass silently
    model = sh_model(0.5, -1.6, 1.0, m=1)
    model.nonlin = ((1, Interval(0.5)),) + model.nonlin
    u0 = FourierSeq.from_point(GRID1, "c", [0.1, 0.2, 0.05])
    with pytest.raises(InvalidParameter, match="degree 1"):
        kernel_from_state(model, u0)


# -- pseudo-diagonalization -----------------------------------------------

def test_pseudo_diag_two_by_two():
    a = IMatrix.from_point(np.array([[0.0, 1.0], [1.0, 0.0]]))
    pd = build_pseudo_diag(a, [(0,), (1,)], self_adjoint=True)
    vals = sorted(l.mid() for l in pd.lams.elements())
    assert abs(vals[0] + 1.0) < 1e-12 and abs(vals[1] - 1.0) < 1e-12
    assert verified_inverse(pd.P)[1].hi < 1e-12
    assert not np.diag(pd.off.hi).any() and pd.off.hi.max() < 1e-12


def test_pseudo_diag_random_symmetric():
    rng = np.random.default_rng(31)
    s = rng.standard_normal((50, 50))
    s = 0.5 * (s + s.T)
    a = IMatrix.from_point(s)
    pd = build_pseudo_diag(a, [(i,) for i in range(50)], self_adjoint=True)
    true = np.linalg.eigvalsh(s)
    got = sorted(l.mid() for l in pd.lams.elements())
    assert np.max(np.abs(np.array(got) - true)) < 1e-8
    assert verified_inverse(pd.P)[1].hi < 1e-10
    assert isinstance(pd.lams, IArray)
    assert all(l.width() < 1e-10 for l in pd.lams.elements())


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 12),
       st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_normalize_columns_matches_the_column_loop(seed, n, c, ties, fortran):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, c)) * 10.0 ** rng.integers(-150, 150, c)
    if ties:
        # small integers: many entries share the largest magnitude, of
        # either sign, and some columns are zero
        v = np.round(rng.uniform(-2.0, 2.0, (n, c)))
    if fortran:
        v = np.asfortranarray(v)
    try:
        want = scalar_paths.normalize_columns_reference(v)
    except DegenerateEigenbasis:
        with pytest.raises(DegenerateEigenbasis):
            finite._normalize_columns(v)
        return
    got = finite._normalize_columns(v)
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def test_normalize_columns_refuses_a_zero_column():
    v = np.array([[1.0, 0.0, -2.0], [-3.0, 0.0, 2.0]])
    for fn in (finite._normalize_columns, scalar_paths.normalize_columns_reference):
        with pytest.raises(DegenerateEigenbasis, match="zero eigenvector column"):
            fn(v)


def test_pseudo_diag_refuses_non_self_adjoint():
    a = IMatrix.from_point(np.array([[1.0, 2.0], [0.0, 3.0]]))
    with pytest.raises(InvalidParameter, match="self-adjoint"):
        build_pseudo_diag(a, [(0,), (1,)], self_adjoint=False)


# -- disks on the real toy ------------------------------------------------

def test_disks_contain_truncation_spectrum(sh_toy):
    model = sh_toy["model"]
    w = sh_toy["w"]
    disks = sh_toy["disks"]
    big = assemble_jacobian(model, w, "c", disks.n_mid).mid()
    eig = np.linalg.eigvalsh(0.5 * (big + big.T))
    for ev in eig:
        assert any(c.re.lo - r <= ev <= c.re.hi + r
                   for c, r in zip(disks.centers, disks.radii)), ev


def test_disk_centers_are_real(sh_toy):
    # a self-adjoint problem has no imaginary extents to carry
    centers = sh_toy["disks"].centers
    assert len(centers) == len(sh_toy["disks"].radii) > 0
    assert all(c.im.lo == c.im.hi == 0.0 for c in centers)


def test_mid_rows_dominate_truncated_row_sums(sh_toy):
    model = sh_toy["model"]
    w = sh_toy["w"]
    disks = sh_toy["disks"]
    big = assemble_jacobian(model, w, "c", disks.n_mid)
    mag = big.mag()
    grid = sh_toy["grid"]
    n_inner_count = len(index_list(grid, "c", disks.n_inner))
    idx = index_list(grid, "c", disks.n_mid)
    for pos, n in enumerate(shell_indices(grid, "c", disks.n_inner, disks.n_mid)):
        i = idx.index(n)
        row = mag[i].sum() - mag[i, i]
        k = n_inner_count + pos
        assert disks.radii[k] >= row * (1 - 1e-12)
        assert disks.center_re.lo[k] - 1e-12 <= big.hi[i, i]
        assert disks.center_re.hi[k] + 1e-12 >= big.lo[i, i]


def test_tail_radius_formula(sh_toy):
    from speccert.fourier import seq_l1

    disks = sh_toy["disks"]
    w = sh_toy["w"]
    l1 = seq_l1(w)
    # c_m = sqrt(2) in the 1D cosine sector
    expected = math.sqrt(2.0) * (l1.hi - abs(w.mid()[0]))
    assert disks.tail_radius <= expected * (1 + 1e-9) + 1e-12
    assert disks.tail_radius >= (l1.lo - abs(w.mid()[0])) * (1 - 1e-9)


# -- mid rows streamed in blocks, and 2D disks -----------------------------

def _even_kernel_2d(seed, S):
    """A random even planar kernel in cc storage, coefficients of size ~0.1."""
    rng = np.random.default_rng(seed)
    return FourierSeq.from_point(Grid(2, 7.0), "cc",
                                 rng.standard_normal((S + 1, S + 1)) * 0.1)


def _finite_stage_2d(w, N):
    model = sh_model(0.5, -1.6, 1.0, m=2)
    a = assemble_jacobian(model, w, "cc", N)
    pseudo = build_pseudo_diag(a, index_list(w.grid, "cc", N), True)
    return model, pseudo, a


def _dense_mid_disks(model, w, sector, N, pseudo):
    """Mid-row centers and radii from one dense mid x ext block."""
    grid = w.grid
    inner = index_list(grid, sector, N)
    mid = shell_indices(grid, sector, N, N + w.S)
    ext = shell_indices(grid, sector, N, N + 2 * w.S)
    dense = conv_block(w, sector, mid, ext)
    mag_ext = dense.mag()
    lam_mid = symbol_diag(model, grid, mid).elements()
    centers = []
    for i, n in enumerate(mid):
        j = ext.index(n)
        centers.append(ComplexBox(lam_mid[i] + Interval(dense.lo[i, j], dense.hi[i, j])))
        mag_ext[i, j] = 0.0
    term1 = mag_product_sums(conv_block(w, sector, mid, inner), pseudo.P.lo)[0]
    radii = np.nextafter((term1 + mag_ext.sum(axis=1)) * (1.0 + (len(ext) + 4) * 2.0 ** -53),
                         np.inf)
    return centers, radii


def _center_bounds(boxes):
    return np.array([[c.re.lo, c.re.hi, c.im.lo, c.im.hi] for c in boxes])


def _assert_streamed_equals_dense(model, w, sector, N, pseudo, a):
    disks = gershgorin_disks(model, w, sector, N, pseudo, a)
    centers, radii = _dense_mid_disks(model, w, sector, N, pseudo)
    p = len(index_list(w.grid, sector, N))
    got_c = _center_bounds(disks.centers[p:])
    want_c = _center_bounds(centers)
    got_r = np.array(disks.radii[p:])
    assert got_c.shape == want_c.shape and got_r.shape == radii.shape
    assert np.all(got_c == want_c) and got_c.tobytes() == want_c.tobytes()
    assert np.all(got_r == radii) and got_r.tobytes() == radii.tobytes()
    return disks


def test_streamed_mid_rows_equal_dense_2d():
    # 144 mid rows: two full blocks and a short last one
    w = _even_kernel_2d(43, 8)
    model, pseudo, a = _finite_stage_2d(w, 4)
    disks = _assert_streamed_equals_dense(model, w, "cc", 4, pseudo, a)
    assert len(shell_indices(w.grid, "cc", 4, disks.n_mid)) == 144
    assert 2 * finite._MID_ROW_BLOCK < 144 < 3 * finite._MID_ROW_BLOCK


def test_streamed_mid_rows_equal_dense_sh_toy(sh_toy):
    # the 1D pulse's mid shell fits in one block
    disks = _assert_streamed_equals_dense(sh_toy["model"], sh_toy["w"], "c",
                                          sh_toy["N"], sh_toy["pseudo"],
                                          sh_toy["jac"])
    assert len(disks.radii) - len(sh_toy["pseudo"].lams.lo) <= finite._MID_ROW_BLOCK


def test_gershgorin_disks_memory_2d():
    # 544 mid rows against 1600 ext columns: the dense block and its
    # temporaries take about 94 MB, streamed rows about 20 MB
    w = _even_kernel_2d(47, 16)
    model, pseudo, a = _finite_stage_2d(w, 8)
    tracemalloc.start()
    try:
        disks = gershgorin_disks(model, w, "cc", 8, pseudo, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(shell_indices(w.grid, "cc", 8, disks.n_mid)), disks.n_mid) == (544, 24)
    assert peak < 40e6, peak


def test_disks_contain_truncation_spectrum_2d():
    w = _even_kernel_2d(43, 8)
    model, pseudo, a = _finite_stage_2d(w, 4)
    disks = gershgorin_disks(model, w, "cc", 4, pseudo, a)
    big = assemble_jacobian(model, w, "cc", disks.n_mid).mid()
    eig = np.linalg.eigvalsh(0.5 * (big + big.T))
    assert len(eig) == len(disks.centers)
    for ev in eig:
        assert any(c.re.lo - r <= ev <= c.re.hi + r
                   for c, r in zip(disks.centers, disks.radii)), ev
    clusters = cluster_disks(disks)
    assert len(clusters) > 1
    for cl in clusters:
        assert int(np.sum((eig >= cl.lo) & (eig <= cl.hi))) == cl.count


# -- clustering -----------------------------------------------------------

def _synthetic_disks(centers, radii):
    re = [c if isinstance(c, Interval) else Interval(c) for c in centers]
    return DiskSet(
        grid=GRID1, sector="c", n_inner=2, n_mid=4,
        center_re=IArray([c.lo for c in re], [c.hi for c in re]),
        radii=np.array(radii, dtype=float),
        w0=Interval(0.0),
        tail_radius=0.0, min_tail_s=1.0, sym_factor=1.0)


def test_cluster_disks_grouping():
    ds = _synthetic_disks([0.0, 0.5, 3.0], [0.3, 0.3, 0.1])
    clusters = cluster_disks(ds)
    assert [c.count for c in clusters] == [2, 1]
    assert clusters[0].lo <= -0.3 and clusters[0].hi >= 0.8
    assert clusters[1].lo <= 2.9 and clusters[1].hi >= 3.1


def test_cluster_disks_closure_random():
    rng = np.random.default_rng(41)
    centers = rng.uniform(-5, 5, 30)
    radii = rng.uniform(0.05, 0.6, 30)
    ds = _synthetic_disks(centers, radii)
    clusters = cluster_disks(ds)
    label = {}
    for ci, c in enumerate(clusters):
        for mem in c.members:
            label[mem] = ci
    assert len(label) == 30
    for i in range(30):
        for j in range(i + 1, 30):
            if abs(centers[i] - centers[j]) <= radii[i] + radii[j]:
                assert label[i] == label[j]
    for c in clusters:
        for mem in c.members:
            assert c.lo <= centers[mem] - radii[mem]
            assert c.hi >= centers[mem] + radii[mem]


def _scalar_clusters(diskset):
    """The scalar pair loop and union-find that cluster_disks replaced."""
    n = len(diskset.centers)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    cs, rs = diskset.centers, diskset.radii
    for i in range(n):
        for j in range(i + 1, n):
            if (cs[i] - cs[j]).mig() <= rs[i] + rs[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for members in groups.values():
        lo = min(cs[i].re.lo - rs[i] for i in members)
        hi = max(cs[i].re.hi + rs[i] for i in members)
        clusters.append(Cluster(members, math.nextafter(lo, -math.inf),
                                math.nextafter(hi, math.inf), len(members)))
    clusters.sort(key=lambda c: (c.lo, c.hi))
    return clusters


def _cluster_bits(clusters):
    return [(c.members, c.lo.hex(), c.hi.hex(), c.count) for c in clusters]


# dyadic endpoints and radii make exactly tangent disks common
_dyadic = st.integers(-32, 32).map(lambda k: k / 8.0)
_center = st.one_of(
    _dyadic.map(Interval),
    st.tuples(_dyadic, _dyadic).map(lambda p: Interval(min(p), max(p))),
    st.floats(-4.0, 4.0).map(Interval))
_radius = st.one_of(st.just(0.0), st.integers(0, 24).map(lambda k: k / 8.0),
                    st.floats(0.0, 3.0))


@st.composite
def _disk_sets(draw):
    disks = draw(st.lists(st.tuples(_center, _radius), max_size=40))
    # duplicated and nested disks: copies of drawn centers, radii any
    for k in draw(st.lists(st.integers(0, 39), max_size=8)):
        if disks:
            disks.append((disks[k % len(disks)][0], draw(_radius)))
    disks = draw(st.permutations(disks))
    return _synthetic_disks([c for c, _ in disks], [r for _, r in disks])


@given(_disk_sets(), st.sampled_from([1, 5, 64, finite._PAIR_BLOCK]))
@example(_synthetic_disks([0.0, 1.0, 2.0, 2.0, 7.0], [0.5, 0.5, 0.0, 0.5, 4.5]), 1)
@settings(max_examples=300, deadline=None)
def test_cluster_disks_matches_scalar_union_find(ds, block):
    # a small block splits the pairs over many blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finite, "_PAIR_BLOCK", block)
        got = cluster_disks(ds)
    assert _cluster_bits(got) == _cluster_bits(_scalar_clusters(ds))


_scale = st.one_of(st.integers(-1074, 1000), st.sampled_from([-1074, -1071, -1022, 0, 1000]))


@st.composite
def _extreme_disk_sets(draw):
    """Disks with integer or float ends and radii scaled by 2^k, k in
    [-1074, 1000]: subnormal and zero radii, centers straddling 0,
    magnitudes far apart in one set, and partners that touch a disk as
    far as rounding tells or miss it by an ulp."""
    ks = draw(st.lists(_scale, min_size=1, max_size=3))
    end = st.one_of(st.integers(-64, 64), st.floats(-64.0, 64.0))
    disks = []
    for a, b, r, k in draw(st.lists(st.tuples(end, end, st.one_of(st.integers(0, 16),
                                                                   st.floats(0.0, 16.0)),
                                              st.sampled_from(ks)),
                                    max_size=30)):
        disks.append((Interval(math.ldexp(min(a, b), k), math.ldexp(max(a, b), k)),
                      math.ldexp(r, k)))
    partners = st.tuples(st.integers(0, 29), st.sampled_from([0.0, 0.5, 1.0, 2.0, 5e-324]),
                         st.booleans(), st.sampled_from([0.0, math.inf, -math.inf]))
    for pos, f, right, nudge in draw(st.lists(partners, max_size=8)):
        if disks:
            c, r = disks[pos % len(disks)]
            r2 = r * f if f != 5e-324 else f
            x = c.hi + r + r2 if right else c.lo - r - r2
            disks.append((Interval(math.nextafter(x, nudge) if nudge else x), r2))
    disks = draw(st.permutations(disks))
    return _synthetic_disks([c for c, _ in disks], [r for _, r in disks])


@given(_extreme_disk_sets(), st.sampled_from([1, 5, finite._PAIR_BLOCK]))
@example(_synthetic_disks([0.0, 1e-323, 2e-323], [5e-324, 0.0, 5e-324]), 1)   # subnormal, tangent
@example(_synthetic_disks([Interval(-2.0 ** 1002, 2.0 ** 1000), 5 * 2.0 ** 1000],   # huge, tangent
                          [0.0, 2.0 ** 1002]), 1)
@settings(max_examples=300, deadline=None)
def test_cluster_disks_matches_scalar_union_find_at_extreme_magnitudes(ds, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finite, "_PAIR_BLOCK", block)
        got = cluster_disks(ds)
    assert _cluster_bits(got) == _cluster_bits(_scalar_clusters(ds))


@given(st.one_of(_disk_sets(), _extreme_disk_sets()), st.sampled_from([1, 7, finite._PAIR_BLOCK]))
# the gap c_0 - c_1 overflows and is clamped to the largest double, which
# the rounded radius sum reaches: the pair joins although it does not meet
@example(_synthetic_disks([1.7976931348623157e308, -2.0 ** 971],
                          [2.0 ** 1023 - 2.0 ** 970] * 2), 1)
@settings(max_examples=300, deadline=None)
@np.errstate(over="ignore")
def test_every_pair_the_gap_test_joins_is_a_candidate(ds, block):
    n, cs, r = len(ds.radii), ds.centers, ds.radii
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finite, "_PAIR_BLOCK", block)
        blocks = list(finite._candidate_pairs(ds.center_re, r))
    assert blocks and all(len(i) == len(j) <= block for i, j in blocks)
    pairs = [(a, b) for i, j in blocks for a, b in zip(i.tolist(), j.tolist())]
    assert len(set(pairs)) == len(pairs) and all(a < b for a, b in pairs)
    joined = {(a, b) for a in range(n) for b in range(a + 1, n)
              if (cs[a] - cs[b]).mig() <= r[a] + r[b]}
    assert joined <= set(pairs)


@given(_disk_sets())
@example(_synthetic_disks([-0.0, 0.0], [0.0, 0.0]))
@settings(max_examples=300, deadline=None)
def test_spectral_edge_is_the_highest_cluster_end(ds):
    assume(len(ds.radii))
    assert spectral_edge(ds).hex() == max(c.hi for c in cluster_disks(ds)).hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cluster_disks_refuses_unbounded_radius(bad):
    # the second disk covers the first one's center; a NaN radius would
    # leave them apart (too little merging), an infinite one is unbounded
    for fn in (cluster_disks, spectral_edge):
        with pytest.raises(UnboundedOperand, match="radius"):
            fn(_synthetic_disks([0.0, 0.5], [bad, 1.0]))
        with pytest.raises(UnboundedOperand, match="radius"):
            fn(_synthetic_disks([0.0], [bad]))


def test_cluster_disks_memory():
    # 4000 disks, 8M pairs, many of them overlapping: all pairs at once
    # peak above 1 GB, blocks of 64k pairs at 13 MB
    rng = np.random.default_rng(5)
    ds = _synthetic_disks(np.sort(rng.uniform(0.0, 400.0, 4000)),
                          rng.uniform(0.0, 0.5, 4000))
    tracemalloc.start()
    try:
        clusters = cluster_disks(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(c.count for c in clusters) == 4000
    assert 1 < len(clusters) < 4000
    assert peak < 32e6, peak


def test_cluster_disks_separated_disks_still_call_mig(monkeypatch):
    # no two disks meet, as on well separated 1D spectra, and the gap test
    # still runs through ComplexBox.mig
    calls = []
    mig = ComplexBox.mig
    monkeypatch.setattr(ComplexBox, "mig", lambda z: calls.append(1) or mig(z))
    clusters = cluster_disks(_synthetic_disks(np.arange(50.0), [0.25] * 50))
    assert [c.count for c in clusters] == [1] * 50
    assert calls


# -- Newton states --------------------------------------------------------

def test_newton_state_is_localized(sh_toy):
    from oracles import sample_gamma_dagger

    u0 = sh_toy["u0"]
    x = np.linspace(-sh_toy["grid"].d, sh_toy["grid"].d, 2001)
    vals = sample_gamma_dagger(u0, x)
    assert np.max(np.abs(vals)) > 0.5
    edge = np.abs(vals[np.abs(x) > 0.95 * sh_toy["grid"].d])
    assert edge.max() < 1e-3


def test_gershgorin_radius_past_the_largest_double_warns_nothing(sh_toy):
    # an inner row sum past the largest double is +inf, without the overflow
    # warning numpy's reduction would give; the mid disks are unchanged
    pseudo, p = sh_toy["pseudo"], sh_toy["pseudo"].off.shape[0]
    huge = dataclasses.replace(pseudo, off=IMatrix.from_point(np.full((p, p), 1e307)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        disks = gershgorin_disks(sh_toy["model"], sh_toy["w"], "c", sh_toy["N"], huge,
                                 sh_toy["jac"])
    assert np.isinf(disks.radii[:p]).all()
    assert disks.radii[p:].tobytes() == sh_toy["disks"].radii[p:].tobytes()
