"""Compactly supported Fourier-coefficient sequences on Z^m, m in {1, 2}.

A sequence represents a function on the box Omega_d = (-d, d)^m through its
coefficients against e^{i pi n . x / d}.  Coefficients are real intervals.
A sequence is stored in a symmetry sector, one fundamental-domain copy:

  m = 1:  "c" (even), "s" (odd);
  m = 2:  "cc", "cs", "sc", "ss" (even/odd per axis).

"full" (signed indices, no symmetry) names a basis only: index_list and
the finite stage take it as the basis of a sector-stored kernel.  A signed
coefficient tensor read from outside is stored by read_seq, which takes
an even tensor to "c"/"cc" exactly.

For an odd axis the stored value v_n is the amplitude in the convention
full-coefficient = i * sign(n_i) * v_|n|, which keeps all storage real and
turns products into real convolutions with per-axis sign corrections.

Convolutions are computed over the true supports (supports add, nothing
wraps) with the same midpoint-radius enclosure used for matrix products;
in 2-D its float products are Toeplitz matmuls, whose rounding that
enclosure covers entry by entry, which an FFT's would not.
Sums and scalings are interval.IArray operations on the coefficient
arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch, InvalidParameter
from .imatrix import _mm_real
from .interval import IArray, Interval

_U = 2.0 ** -53
_TINY = 5e-308
_MAX = np.finfo(np.float64).max

_SECTORS = {1: ("full", "c", "s"), 2: ("full", "cc", "cs", "sc", "ss")}


@dataclass(frozen=True)
class Grid:
    """Domain descriptor: dimension m and half-period d of Omega_d."""

    m: int
    d: float

    def __post_init__(self):
        if self.m not in (1, 2):
            raise InvalidParameter(f"dimension {self.m} not supported")
        if not (self.d > 0 and math.isfinite(self.d)):
            raise InvalidParameter(f"half-period d={self.d} must be positive")


def _axis_types(m: int, sector: str):
    if sector not in _SECTORS[m]:
        raise InvalidParameter(f"unknown sector {sector!r} for m={m}")
    if sector == "full":
        return ("signed",) * m
    return tuple("c" if ch == "c" else "s" for ch in sector)


def _mult_weights(shape):
    """Orbit sizes of fundamental-domain indices (1, 2, or 4 copies)."""
    w = np.ones(shape)
    for ax in range(len(shape)):
        w[(slice(None),) * ax + (slice(1, None),)] *= 2.0
    return w


def _convolve_direct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full float convolution of two 1-D or two 2-D arrays.  In 2-D each row
    l of b is a Toeplitz block, t_l[j, j + i] = b[l, i], and result rows l,
    l + 1, ... collect a @ t_l: one matmul per row of the shorter operand.
    An entry still sums its terms a[j] b[n - j], and exact zeros, in some
    order, so _mm_real's gamma_k holds (Higham, Accuracy and Stability,
    3.1); an FFT's error has no such entrywise bound."""
    if a.ndim == 1:
        return np.convolve(a, b)
    if len(a) < len(b):
        a, b = b, a
    (p, q), (r, s) = a.shape, b.shape
    j, i = np.ogrid[:q, :s]
    toeplitz = np.zeros((r, q, q + s - 1))
    toeplitz[:, j, j + i] = b[:, None, :]
    out = np.zeros((p + r - 1, q + s - 1))
    for l in range(r):
        out[l:l + p] += a @ toeplitz[l]
    return out


def _conv_real(al, ah, bl, bh):
    """Enclosure of the convolution of real interval arrays."""
    shape = tuple(np.add(al.shape, bl.shape) - 1)
    return _mm_real(al, ah, bl, bh, _convolve_direct, shape, min(al.size, bl.size))


class FourierSeq:
    """Interval coefficient tensor with a sector tag and support radius S."""

    __slots__ = ("grid", "sector", "S", "lo", "hi")

    def __init__(self, grid: Grid, sector: str, lo, hi):
        if sector == "full":
            raise InvalidParameter(f"'full' is a basis: an even state is stored "
                                   f"as {'c' * grid.m!r}")
        axes = _axis_types(grid.m, sector)
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.ndim != grid.m or lo.shape != hi.shape:
            raise DimensionMismatch("coefficient arrays malformed")
        side = lo.shape[0]
        if side == 0:
            raise DimensionMismatch("empty coefficient tensor")
        if any(s != side for s in lo.shape):
            raise DimensionMismatch("coefficient tensor must be cubical")
        if not (lo <= hi).all():
            raise DimensionMismatch("lower bound above upper bound, or a NaN bound")
        self.grid = grid
        self.sector = sector
        self.S = side - 1
        self.lo = lo
        self.hi = hi
        for ax, kind in enumerate(axes):
            zero = (slice(None),) * ax + (0,)
            if kind == "s" and (np.any(self.lo[zero] != 0.0) or np.any(self.hi[zero] != 0.0)):
                raise InvalidParameter("odd-axis coefficients at index 0 must vanish")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, grid: Grid, sector: str, S: int) -> "FourierSeq":
        z = np.zeros((S + 1,) * grid.m)
        return cls(grid, sector, z, z.copy())

    @classmethod
    def from_point(cls, grid: Grid, sector: str, values) -> "FourierSeq":
        values = np.asarray(values, dtype=np.float64)
        return cls(grid, sector, values, values.copy())

    # -- basic structure --------------------------------------------------

    @property
    def axes(self):
        return _axis_types(self.grid.m, self.sector)

    def mid(self) -> np.ndarray:
        return self.lo + 0.5 * (self.hi - self.lo)

    def _check_mate(self, other: "FourierSeq") -> None:
        if self.grid != other.grid:
            raise GridMismatch("sequences live on different grids")

    def padded(self, S: int) -> "FourierSeq":
        """Same sequence with support radius extended to S >= self.S."""
        if S < self.S:
            raise DimensionMismatch("padded support below current support")
        out = FourierSeq.zeros(self.grid, self.sector, S)
        box = (slice(self.S + 1),) * self.grid.m
        out.lo[box], out.hi[box] = self.lo, self.hi
        return out

    def __add__(self, other: "FourierSeq") -> "FourierSeq":
        self._check_mate(other)
        if self.sector != other.sector:
            raise GridMismatch("cannot add sequences from different sectors")
        S = max(self.S, other.S)
        a, b = self.padded(S), other.padded(S)
        c = (IArray(a.lo, a.hi) + IArray(b.lo, b.hi)).checked()
        return FourierSeq(self.grid, self.sector, c.lo, c.hi)

    def scaled(self, s: Interval) -> "FourierSeq":
        c = (IArray(self.lo, self.hi) * s).checked()
        return FourierSeq(self.grid, self.sector, c.lo, c.hi)

    # -- signed expansion and folding -------------------------------------

    def expand_signed(self):
        """Signed real arrays (lo, hi) carrying the per-axis sign pattern.

        For an odd axis the entry at -n is the negative of the entry at n;
        the i factors of the odd-axis convention are accounted for by the
        sign corrections applied after convolution.
        """
        lo, hi = self.lo, self.hi
        for ax, kind in enumerate(self.axes):
            rev = (slice(None),) * ax + (slice(None, 0, -1),)   # indices S, ..., 1
            flip_lo, flip_hi = (-hi[rev], -lo[rev]) if kind == "s" else (lo[rev], hi[rev])
            lo, hi = (np.concatenate(x, axis=ax) for x in ((flip_lo, lo), (flip_hi, hi)))
        return lo, hi

    def __eq__(self, other) -> bool:
        return (isinstance(other, FourierSeq)
                and self.grid == other.grid and self.sector == other.sector
                and self.lo.shape == other.lo.shape
                and bool(np.all(self.lo == other.lo))
                and bool(np.all(self.hi == other.hi)))

    __hash__ = None


def _fold(grid: Grid, sector: str, lo: np.ndarray, hi: np.ndarray) -> FourierSeq:
    """Restrict a signed array with the sector's symmetry to its domain."""
    S = lo.shape[0] // 2
    for ax, kind in enumerate(_axis_types(grid.m, sector)):
        lo, hi = (x[(slice(None),) * ax + (slice(S, None),)] for x in (lo, hi))
        if kind == "s":
            lo[(slice(None),) * ax + (0,)] = hi[(slice(None),) * ax + (0,)] = 0.0
    return FourierSeq(grid, sector, np.ascontiguousarray(lo),
                      np.ascontiguousarray(hi))


def read_seq(grid: Grid, sector: str, lo: np.ndarray, hi: np.ndarray,
             average: bool = False) -> FourierSeq:
    """The sequence of coefficient tensors given in `sector`'s layout.  A
    "full" tensor (side 2S + 1, index n at n + S) equal to its reflection in
    every axis is stored as "c"/"cc", bit for bit; any other raises
    InvalidParameter naming the first unequal pair, unless `average`, which
    first replaces each bound by 0.5 (u + u reflected), axis after axis."""
    if sector != "full":
        return FourierSeq(grid, sector, lo, hi)
    for ax in range(grid.m):
        if average:
            lo, hi = 0.5 * (lo + np.flip(lo, ax)), 0.5 * (hi + np.flip(hi, ax))
        bad = (lo != np.flip(lo, ax)) | (hi != np.flip(hi, ax))
        if bad.any():
            n = np.argwhere(bad)[0]
            pair = (n, np.where(np.arange(grid.m) == ax, len(lo) - 1 - n, n))
            raise InvalidParameter(" but ".join(
                f"u[{tuple((x - len(lo) // 2).tolist())}] = [{float(lo[tuple(x)])!r}, "
                f"{float(hi[tuple(x)])!r}]" for x in pair)
                + ": a full state must equal its reflection in every axis")
    return _fold(grid, "c" * grid.m, lo, hi)


def _product_sector(sa: str, sb: str):
    """Result sector of a product plus the count of odd*odd axes."""
    out = []
    flips = 0
    for ca, cb in zip(sa, sb):
        if ca == "s" and cb == "s":
            out.append("c")
            flips += 1
        elif ca == "s" or cb == "s":
            out.append("s")
        else:
            out.append("c")
    return "".join(out), flips


def conv(u: FourierSeq, v: FourierSeq) -> FourierSeq:
    """Rigorous convolution; the result support is the sum of supports."""
    u._check_mate(v)
    sec, flips = _product_sector(u.sector, v.sector)
    alo, ahi = u.expand_signed()
    blo, bhi = v.expand_signed()
    lo, hi = _conv_real(alo, ahi, blo, bhi)
    if flips % 2 == 1:
        lo, hi = -hi, -lo
    return _fold(u.grid, sec, lo, hi)


@np.errstate(over="ignore")     # a sum past the largest double is +inf
def seq_l1(u: FourierSeq) -> Interval:
    """Enclosure of the l1 norm (with orbit multiplicities)."""
    w = _mult_weights(u.lo.shape)
    c = IArray(u.lo, u.hi)
    n = u.lo.size
    hi = float((w * c.mag()).sum()) * (1.0 + (n + 4) * _U) + _TINY
    lo = min(max(float((w * c.mig()).sum()) * (1.0 - (n + 4) * _U) - _TINY, 0.0), _MAX)
    return Interval(lo, hi)


def index_list(grid: Grid, sector: str, S: int):
    """Fundamental-domain multi-indices in deterministic (row-major) order."""
    rng = range(-S if _axis_types(grid.m, sector)[0] == "signed" else 0, S + 1)
    return list(itertools.product(rng, repeat=grid.m))
