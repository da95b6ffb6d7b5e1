"""A block reads every entry from one table over per-axis states.

`finite._StateTable` runs the sum of each per-axis state once, when it is
built, and a block of rows and columns only reads the per-axis state
matrices and gathers from the table.  These tests check it bit for bit
against the version with the flip loop in every block
(`scalar_paths.reach_reference`), over kernels with exact zeros of both
signs, +-1, subnormals, +-the smallest normal and values near overflow,
and over the row and column layouts the finite stage uses; and they check
that a gathered block makes no outward step.

gershgorin_disks reads the shell through the same table: the gathered
block H = DG(mid <- inner) and the centers are the flip loop's bit for bit
(`scalar_paths.conv_block_reference`), in the c, cc and full sectors, with
S_W below and above N and an empty shell; and the ext row sums, taken from
per-axis state counts, enclose the exact sums of the reference block's
magnitudes and exceed its dense float sums by at most (3 n + 8) u, n the
ext columns.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from speccert import finite
from speccert.errors import DegenerateEigenbasis
from speccert.finite import assemble_jacobian, build_pseudo_diag, gershgorin_disks, symbol_diag
from speccert.fourier import FourierSeq, Grid, index_list
from speccert.interval import IArray
from speccert.models import sh_model
import scalar_paths
from scalar_paths import conv_block_reference, reach_reference, shell_indices
from test_finite import _even_kernel_2d

_MAX = np.finfo(np.float64).max
_MIN_NORMAL = np.finfo(np.float64).tiny
KERNEL_VALUES = (0.0, -0.0, 1.0, -1.0, 0.375, -2.5, 5e-324, -5e-324, 3e-320,
                 _MIN_NORMAL, -_MIN_NORMAL, 0.5 * _MAX, -0.9 * _MAX, _MAX, -_MAX)
RADII = (0.0, 0.0, 5e-324, 1e-9, 2.0)
BASES = [(1, "c"), (1, "s"), (1, "full"),
         (2, "cc"), (2, "cs"), (2, "sc"), (2, "ss"), (2, "full")]
LAYOUTS = ("cube", "inner rows, inner + ext columns", "shell rows, inner + ext columns",
           "a zero coordinate", "random subsets")


@st.composite
def reach_cases(draw):
    """(w, sector, rows, cols) with S_W from 0 to 6 and one of LAYOUTS."""
    m, sector = draw(st.sampled_from(BASES))
    S = draw(st.integers(0, 6))
    grid = Grid(m, 7.0)
    w_sector = draw(st.sampled_from(["full", "c" * m])) if sector == "full" else "c" * m
    side = 2 * S + 1 if w_sector == "full" else S + 1
    lo = np.array(draw(st.lists(st.sampled_from(KERNEL_VALUES), min_size=side ** m,
                                max_size=side ** m))).reshape((side,) * m)
    rad = np.array(draw(st.lists(st.sampled_from(RADII), min_size=lo.size,
                                 max_size=lo.size))).reshape(lo.shape)
    with np.errstate(over="ignore"):
        hi = np.where(rad == 0.0, lo, np.minimum(lo + rad, _MAX))
    w = FourierSeq(grid, w_sector, lo, np.maximum(hi, lo))
    inner = draw(st.integers(0, 3))
    layout = draw(st.sampled_from(LAYOUTS))
    cube = index_list(grid, sector, inner)
    ext = shell_indices(grid, sector, inner, inner + 2 * S)
    if layout == "cube":
        rows = cols = cube
    elif layout == "inner rows, inner + ext columns":
        rows, cols = cube, cube + ext
    elif layout == "shell rows, inner + ext columns":
        rows, cols = shell_indices(grid, sector, inner, inner + S), cube + ext
    elif layout == "a zero coordinate":
        rows = cols = [n for n in index_list(grid, sector, inner + S) if 0 in n]
    else:
        big = index_list(grid, sector, inner + S)
        rows, cols = (draw(st.lists(st.sampled_from(big), unique=True)) for _ in range(2))
    return w, sector, rows, cols


def _bits(arrays):
    return [np.ascontiguousarray(x).view(np.int64) for x in arrays]


def state_table(w, sector, rows, cols):
    """The table over the coordinates of rows and cols, and both as arrays."""
    rows, cols = (np.asarray(x, dtype=np.int64).reshape(len(x), w.grid.m) for x in (rows, cols))
    top = max(np.abs(rows).max(initial=0), np.abs(cols).max(initial=0))
    return finite._StateTable(w, sector, int(top)), rows, cols


def dense(entries, shape):
    """The reference's reached entries (i, j, lo, hi) in zero arrays."""
    i, j, lo, hi = entries
    out_lo, out_hi = np.zeros(shape), np.zeros(shape)
    out_lo[i, j], out_hi[i, j] = lo, hi
    return out_lo, out_hi


@given(reach_cases())
@settings(max_examples=400, deadline=None)
def test_table_reach_is_the_flip_loop_bit_for_bit(case):
    w, sector, rows, cols = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # an overflow rounds to +-inf silently
        table, rows_a, cols_a = state_table(w, sector, rows, cols)
        got = table.gather(rows_a, cols_a)
    with np.errstate(over="ignore"):
        want = dense(reach_reference(w, sector, cols)(rows), (len(rows), len(cols)))
    for g, x in zip(_bits(got), _bits(want)):
        assert g.shape == x.shape and np.array_equal(g, x)


def test_a_prepared_block_makes_no_outward_step(monkeypatch):
    # every outward step happens once, in the table build: a gathered block
    # that steps again has brought the per-block flip loop back
    w = _even_kernel_2d(7, 6)
    rows = index_list(w.grid, "cc", 8)
    cols = index_list(w.grid, "cc", 8 + 6)
    steps = []

    def counted(module):
        step = module.ulp_step

        def wrapper(*args, **kwargs):
            steps.append(module.__name__)
            return step(*args, **kwargs)
        return wrapper

    for module in (finite, scalar_paths):
        monkeypatch.setattr(module, "ulp_step", counted(module))
    table, rows_a, cols_a = state_table(w, "cc", rows, cols)
    built = len(steps)
    assert built > 0
    for b in range(0, len(rows), 16):
        table.gather(rows_a[b:b + 16], cols_a)
    assert len(steps) == built
    # the reference steps in every block, so the count above would see it
    ref = reach_reference(w, "cc", cols)
    before = len(steps)
    ref(rows[:16])
    assert len(steps) > before


# -- the shell of gershgorin_disks ------------------------------------------

@st.composite
def shell_stages(draw):
    """(model, w, sector, N): an even kernel with S_W from 0, an empty
    shell, to 5, below and above N, and exact zeros of both signs."""
    m, sector = draw(st.sampled_from([(1, "c"), (1, "full"), (2, "cc"), (2, "full")]))
    S, N = draw(st.integers(0, 5)), draw(st.integers(0, 3 if m == 1 else 2))
    values = st.sampled_from((0.0, -0.0, 1.0, -0.75, 0.1, 0.3125, -2.5e-3, 3e-300))
    lo = np.array(draw(st.lists(values, min_size=(S + 1) ** m,
                                max_size=(S + 1) ** m))).reshape((S + 1,) * m)
    rad = np.array(draw(st.lists(st.sampled_from((0.0, 0.0, 1e-9, 0.25)), min_size=lo.size,
                                 max_size=lo.size))).reshape(lo.shape)
    w = FourierSeq(Grid(m, 7.0), "c" * m, lo, lo + rad)
    return sh_model(draw(st.floats(0.2, 2.0)), -1.6, 1.0, m=m), w, sector, N


@given(shell_stages())
@settings(max_examples=120, deadline=None)
def test_gathered_shell_block_and_centers_are_the_flip_loop_bit_for_bit(stage):
    model, w, sector, N = stage
    inner = index_list(w.grid, sector, N)
    mid = shell_indices(w.grid, sector, N, N + w.S)
    a = assemble_jacobian(model, w, sector, N)
    try:
        pseudo = build_pseudo_diag(a, inner, True)
    except DegenerateEigenbasis:
        assume(False)
    disks = gershgorin_disks(model, w, sector, N, pseudo, a)
    p = len(inner)
    if not mid:
        assert disks.dg is None and len(disks.radii) == p
        return
    want = conv_block_reference(w, sector, mid, inner)
    assert disks.dg.lo.tobytes() == want.lo.tobytes()
    assert disks.dg.hi.tobytes() == want.hi.tobytes()
    ref = conv_block_reference(w, sector, mid, mid)
    c = (symbol_diag(model, w.grid, mid) + IArray(np.diag(ref.lo), np.diag(ref.hi))).checked()
    assert disks.center_re.lo[p:].tobytes() == c.lo.tobytes()
    assert disks.center_re.hi[p:].tobytes() == c.hi.tobytes()


def _up_to(x, exact):
    """x >= exact, for a float x and a Fraction or None (an infinite sum)."""
    return x == math.inf or (exact is not None and Fraction(x) >= exact)


@given(reach_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_ext_sums_enclose_the_exact_sums_and_stay_near_the_dense_ones(case, data):
    w, sector = case[:2]
    N = data.draw(st.integers(0, 3))
    cube = index_list(w.grid, sector, N + w.S)
    rows = data.draw(st.lists(st.sampled_from(cube), unique=True, min_size=1))
    ext = shell_indices(w.grid, sector, N, N + 2 * w.S)
    rows_a = np.asarray(rows, dtype=np.int64).reshape(len(rows), w.grid.m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # an overflow rounds to +-inf silently
        got = finite._StateTable(w, sector, N + 2 * w.S).ext_sums(rows_a, N)
    with np.errstate(over="ignore"):
        mag = conv_block_reference(w, sector, rows, ext).mag()
    for i, n in enumerate(rows):
        if n in ext:
            mag[i, ext.index(n)] = 0.0       # the center is no part of a radius
    with np.errstate(over="ignore"):
        dense = mag.sum(axis=1) * (1.0 + (3 * len(ext) + 8) * 2.0 ** -53)
    for g, row, bound in zip(got.tolist(), mag.tolist(), dense.tolist()):
        exact = None if math.inf in row else sum(map(Fraction, row), Fraction(0))
        assert _up_to(g, exact) and g <= bound
