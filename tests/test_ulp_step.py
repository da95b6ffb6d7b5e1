"""interval.ulp_step against repeated np.nextafter, bit for bit.

The kernel steps interval bounds outward through the int64 view of their
bits; every array outward step in the package goes through it.  These tests
compare it with np.nextafter on arbitrary bit patterns, on both sides of
the size crossover and over several integer blocks, for in-place, `out=`,
Fortran-ordered and non-contiguous targets.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import speccert
from speccert import interval
from speccert.interval import ulp_step

_INF = math.inf
_MAX = 1.7976931348623157e308
_MIN_NORMAL = 2.2250738585072014e-308
PINNED = [0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323, _MIN_NORMAL,
          -_MIN_NORMAL, _MAX, -_MAX, _INF, -_INF, math.nan]
# both sides of the crossover, and three integer blocks and a part
SIZES = [1, 5, interval._STEP_MIN - 1, interval._STEP_MIN, interval._STEP_MIN + 1,
         4097, 3 * interval._STEP_BLOCK + 5]

any_bits = st.integers(-2 ** 63, 2 ** 63 - 1).map(
    lambda b: float(np.array(b, dtype=np.int64).view(np.float64)))
value = st.one_of(any_bits, st.sampled_from(PINNED))


def _reference(x, to, steps, keep_zero):
    ref = x.copy()
    with np.errstate(invalid="ignore"):     # np.nextafter warns on a signalling NaN
        for _ in range(steps):
            ref = np.nextafter(ref, to)
    return np.where(x == 0, 0.0, ref) if keep_zero else ref


def _same_bits(got, ref):
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.int64)[~nan], ref.view(np.int64)[~nan])


def _target(kind, x):
    """An array holding x's values (3 copies for the 2-D kinds), and the
    array it lives in."""
    n = len(x)
    if kind == "c":
        t = x.copy()
        return t, t
    if kind == "fortran":               # contiguous in Fortran order only
        t = np.asfortranarray(np.stack([x, x[::-1], x]).T)
        return t, t
    big = np.full((n + 2, 5), 7.0)      # a transposed block: not contiguous
    t = big[1:n + 1, 1:4].T
    t[...] = np.stack([x, x[::-1], x])
    return t, big


@st.composite
def cases(draw):
    n = draw(st.sampled_from(SIZES))
    pats = np.array(draw(st.lists(value, min_size=1, max_size=40)))
    if draw(st.booleans()):
        x = np.resize(pats, n)          # the patterns in every block
    else:                               # the patterns at one place, in finite filler
        x = np.resize(np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                             min_size=1, max_size=8))), n)
        at = draw(st.integers(0, n - 1))
        x[at:at + len(pats)] = pats[:n - at]
    return x


def _bits(*patterns):
    return np.array(patterns, dtype=np.int64).view(np.float64)


# the near-top guard of a block is `bits > 0x7FF0000000000000 - steps`: at
# 4 steps 0x7FEFFFFFFFFFFFFC (3 ulps below the largest double) still takes
# the integer path to inf, and one ulp more takes np.nextafter; at 3 steps
# both take the integer path
NEAR_TOP = [0x7FEFFFFFFFFFFFFC, 0x7FEFFFFFFFFFFFFD]


# 1 and 2 steps round a bound outward; conv_block's table of untouched
# entries steps a kernel 1 + F times for F flips: 2 on c, 4 on cc
@given(cases(), st.sampled_from([_INF, -_INF]), st.sampled_from([1, 2, 3, 4]),
       st.sampled_from(["c", "fortran", "transposed"]), st.booleans(), st.booleans())
@example(np.array(PINNED * 100), _INF, 2, "c", False, False)
@example(np.array(PINNED * 100), -_INF, 2, "transposed", True, False)
@example(np.array([-5e-324] * 2000), _INF, 2, "c", False, False)
@example(np.array([5e-324] * 2000), -_INF, 2, "fortran", False, True)
# 4 steps that cross -0.0 on the way up, and their mirror images
@example(np.array([-5e-324] * 2000), _INF, 4, "c", False, False)
@example(np.array([-1e-323] * 2000), _INF, 4, "transposed", True, False)
@example(np.array([1e-323] * 2000), -_INF, 4, "fortran", False, True)
@example(np.resize(_bits(NEAR_TOP[0]), 2000), _INF, 4, "c", False, False)
@example(np.resize(_bits(*NEAR_TOP), 2000), _INF, 4, "c", True, False)
@example(-np.resize(_bits(*NEAR_TOP), 2000), -_INF, 3, "fortran", False, False)
@settings(max_examples=400, deadline=None)
@np.errstate(over="ignore")             # np.nextafter warns on stepping to inf
def test_ulp_step_is_nextafter_bit_for_bit(x, to, steps, kind, use_out, keep_zero):
    target, home = _target(kind, x)
    home_before = home.copy()
    before = np.array(target)
    if use_out:
        src = before.copy()
        target[...] = 3.0
        got = ulp_step(src, to, steps, out=target, keep_zero=keep_zero)
        _same_bits(src, before)         # the source is left alone
    else:
        got = ulp_step(target, to, steps, keep_zero=keep_zero)
    assert got is target
    _same_bits(target, _reference(before, to, steps, keep_zero))
    if home is not target:              # nothing outside the block is written
        home_before[1:len(x) + 1, 1:4] = home[1:len(x) + 1, 1:4]
        _same_bits(home, home_before)


@pytest.mark.parametrize("n", [1, 4097])
@pytest.mark.parametrize("to", [_INF, -_INF])
def test_ulp_step_keeps_a_signalling_nan_without_a_warning(n, to):
    # both the np.nextafter path and the integer path's fallback block
    snan = np.full(n, 0x7FF0000000000001, dtype=np.int64).view(np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = ulp_step(snan.copy(), to, 2)
    assert np.isnan(got).all()


def test_no_array_nextafter_outside_the_kernel():
    # every array outward step goes through interval.ulp_step
    found, kernels = [], 0
    for path in sorted(Path(speccert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "ulp_step":
                kernels += 1
                inside.update(id(n) for n in ast.walk(node))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "nextafter"
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                  and id(node) not in inside]
    assert kernels == 1
    assert not found, found
