"""The prepared reach reads every entry from one table over per-axis states.

`finite._reach` runs the sum of each per-axis state once, when it is
prepared, and a block of rows only computes state codes and reads the
table.  These tests check it bit for bit against the version with the flip
loop in every block (`scalar_paths.reach_reference`), over kernels with
exact zeros of both signs, +-1, subnormals, +-the smallest normal and
values near overflow, and over the row and column layouts the finite stage
uses; and they check that a prepared block makes no outward step.
"""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from speccert import finite
from speccert.fourier import FourierSeq, Grid, index_list
import scalar_paths
from scalar_paths import reach_reference, shell_indices
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


@given(reach_cases())
@settings(max_examples=400, deadline=None)
def test_table_reach_is_the_flip_loop_bit_for_bit(case):
    w, sector, rows, cols = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # an overflow rounds to +-inf silently
        got = finite._reach(w, sector, cols)(rows)
    with np.errstate(over="ignore"):
        want = reach_reference(w, sector, cols)(rows)
    for g, x in zip(_bits(got), _bits(want)):
        assert g.shape == x.shape and np.array_equal(g, x)


def test_a_prepared_block_makes_no_outward_step(monkeypatch):
    # every outward step happens once, in the table build: a block that
    # steps again has brought the per-block flip loop back
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
    reach = finite._reach(w, "cc", cols)
    built = len(steps)
    assert built > 0
    for b in range(0, len(rows), 16):
        reach(rows[b:b + 16])
    assert len(steps) == built
    # the reference steps in every block, so the count above would see it
    ref = reach_reference(w, "cc", cols)
    before = len(steps)
    ref(rows[:16])
    assert len(steps) > before
