import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from speccert import finite
from speccert.errors import DimensionMismatch, GridMismatch, InvalidParameter, UnboundedOperand
from speccert.fourier import FourierSeq, Grid, conv, index_list
from speccert.interval import ComplexBox, Interval
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
    shell_indices,
    symbol_diag,
)
from speccert.imatrix import IMatrix
from speccert.models import sh_model

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
        assert a.get(i, i).lo <= lam.hi and a.get(i, i).hi >= lam.lo
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


# -- pseudo-diagonalization -----------------------------------------------

def test_pseudo_diag_two_by_two():
    a = IMatrix.from_point(np.array([[0.0, 1.0], [1.0, 0.0]]))
    pd = build_pseudo_diag(a, [(0,), (1,)], self_adjoint=True)
    vals = sorted(l.mid() for l in pd.lams)
    assert abs(vals[0] + 1.0) < 1e-12 and abs(vals[1] - 1.0) < 1e-12
    assert pd.inv_defect.hi < 1e-12
    off = pd.D.mag().copy()
    np.fill_diagonal(off, 0.0)
    assert off.max() < 1e-12


def test_pseudo_diag_random_symmetric():
    rng = np.random.default_rng(31)
    s = rng.standard_normal((50, 50))
    s = 0.5 * (s + s.T)
    a = IMatrix.from_point(s)
    pd = build_pseudo_diag(a, [(i,) for i in range(50)], self_adjoint=True)
    true = np.linalg.eigvalsh(s)
    got = sorted(l.mid() for l in pd.lams)
    assert np.max(np.abs(np.array(got) - true)) < 1e-8
    assert pd.inv_defect.hi < 1e-10
    assert all(isinstance(l, Interval) and l.width() < 1e-10 for l in pd.lams)


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
    n_inner_count = len(disks.inner_indices)
    idx = index_list(sh_toy["grid"], "c", disks.n_mid)
    for pos, n in enumerate(disks.mid_indices):
        i = idx.index(n)
        row = mag[i].sum() - mag[i, i]
        k = n_inner_count + pos
        assert disks.radii[k] >= row * (1 - 1e-12)
        assert disks.centers[k].re.lo - 1e-12 <= big.get(i, i).hi
        assert disks.centers[k].re.hi + 1e-12 >= big.get(i, i).lo


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
        centers.append(ComplexBox(lam_mid[i] + dense.get(i, j)))
        mag_ext[i, j] = 0.0
    term1 = (conv_block(w, sector, mid, inner) @ pseudo.P).mag().sum(axis=1)
    radii = np.nextafter((term1 + mag_ext.sum(axis=1))
                         * (1.0 + (len(ext) + len(inner) + 4) * 2.0 ** -53), np.inf)
    return centers, radii


def _center_bounds(boxes):
    return np.array([[c.re.lo, c.re.hi, c.im.lo, c.im.hi] for c in boxes])


def _assert_streamed_equals_dense(model, w, sector, N, pseudo, a):
    disks = gershgorin_disks(model, w, sector, N, pseudo, a)
    centers, radii = _dense_mid_disks(model, w, sector, N, pseudo)
    p = len(disks.inner_indices)
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
    assert len(disks.mid_indices) == 144
    assert 2 * finite._MID_ROW_BLOCK < 144 < 3 * finite._MID_ROW_BLOCK


def test_streamed_mid_rows_equal_dense_sh_toy(sh_toy):
    # the 1D pulse's mid shell fits in one block
    disks = _assert_streamed_equals_dense(sh_toy["model"], sh_toy["w"], "c",
                                          sh_toy["N"], sh_toy["pseudo"],
                                          sh_toy["jac"])
    assert len(disks.mid_indices) <= finite._MID_ROW_BLOCK


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
    assert (len(disks.mid_indices), disks.n_mid) == (544, 24)
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
    return DiskSet(
        grid=GRID1, sector="c", n_inner=2, n_mid=4,
        inner_indices=[(i,) for i in range(len(centers))],
        mid_indices=[],
        centers=[c if isinstance(c, ComplexBox) else ComplexBox.point(c)
                 for c in centers],
        radii=list(radii),
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
_part = st.one_of(
    _dyadic.map(Interval),
    st.tuples(_dyadic, _dyadic).map(lambda p: Interval(min(p), max(p))),
    st.floats(-4.0, 4.0).map(Interval))
_wide_im = st.tuples(st.floats(-40.0, 0.0), st.floats(0.0, 40.0)).map(
    lambda p: Interval(*p))
_center = st.one_of(_part.map(ComplexBox), st.builds(ComplexBox, _part, _part),
                    st.builds(ComplexBox, _part, _wide_im))
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cluster_disks_refuses_unbounded_radius(bad):
    # the second disk covers the first one's center; a NaN radius would
    # leave them apart (too little merging), an infinite one is unbounded
    with pytest.raises(UnboundedOperand, match="radius"):
        cluster_disks(_synthetic_disks([0.0, 0.5], [bad, 1.0]))
    with pytest.raises(UnboundedOperand, match="radius"):
        cluster_disks(_synthetic_disks([0.0], [bad]))


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
