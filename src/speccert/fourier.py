"""Compactly supported Fourier-coefficient sequences on Z^m, m in {1, 2}.

A sequence represents a function on the box Omega_d = (-d, d)^m through its
coefficients against e^{i pi n . x / d}.  Coefficients are real intervals.
Symmetry sectors store one fundamental-domain copy:

  m = 1:  "full" (signed indices), "c" (even), "s" (odd);
  m = 2:  "full", and "cc", "cs", "sc", "ss" (even/odd per axis).

For an odd axis the stored value v_n is the amplitude in the convention
full-coefficient = i * sign(n_i) * v_|n|, which keeps all storage real and
turns products into real convolutions with per-axis sign corrections.

Convolutions are computed over the true supports (supports add, nothing
wraps) with the same midpoint-radius enclosure used for matrix products.
Sums and scalings are interval.IArray operations on the coefficient
arrays.
"""

from __future__ import annotations

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


def _mult_weights(shape, axes):
    """Orbit sizes of fundamental-domain indices (1, 2, or 4 copies)."""
    w = np.ones(shape)
    for ax, kind in enumerate(axes):
        if kind == "signed":
            continue
        idx = np.arange(shape[ax])
        wax = np.where(idx == 0, 1.0, 2.0)
        sl = [None] * len(shape)
        sl[ax] = slice(None)
        w = w * wax[tuple(sl)]
    return w


def _convolve_direct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim == 1:
        return np.convolve(a, b)
    from scipy.signal import convolve     # imported here: 1D runs never load it
    return convolve(a, b, mode="full", method="direct")


def _conv_real(al, ah, bl, bh):
    """Enclosure of the convolution of real interval arrays."""
    shape = tuple(np.add(al.shape, bl.shape) - 1)
    return _mm_real(al, ah, bl, bh, _convolve_direct, shape,
                    min(al.size, bl.size))


class FourierSeq:
    """Interval coefficient tensor with a sector tag and support radius S."""

    __slots__ = ("grid", "sector", "S", "lo", "hi")

    def __init__(self, grid: Grid, sector: str, lo, hi):
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
        if axes[0] == "signed":
            if side % 2 == 0:
                raise DimensionMismatch("signed storage needs odd side length")
            S = side // 2
        else:
            S = side - 1
        if not (lo <= hi).all():
            raise DimensionMismatch("lower bound above upper bound, or a NaN bound")
        self.grid = grid
        self.sector = sector
        self.S = S
        self.lo = lo
        self.hi = hi
        for ax, kind in enumerate(axes):
            if kind == "s":
                sl = [slice(None)] * grid.m
                sl[ax] = 0
                if np.any(self.lo[tuple(sl)] != 0.0) or np.any(self.hi[tuple(sl)] != 0.0):
                    raise InvalidParameter("odd-axis coefficients at index 0 must vanish")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, grid: Grid, sector: str, S: int) -> "FourierSeq":
        axes = _axis_types(grid.m, sector)
        side = 2 * S + 1 if axes[0] == "signed" else S + 1
        z = np.zeros((side,) * grid.m)
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

    def require_even(self) -> "FourierSeq":
        """self, unless signed storage differs from its point reflection:
        real coefficients against e^{i pi n.x/d} make a real function only
        when u[-n] = u[n].  Sector storage is even by construction."""
        flip = (slice(None, None, -1),) * self.grid.m
        if self.axes[0] != "signed" or (np.array_equal(self.lo, self.lo[flip])
                                         and np.array_equal(self.hi, self.hi[flip])):
            return self
        n = np.argwhere((self.lo != self.lo[flip]) | (self.hi != self.hi[flip]))[0]
        raise InvalidParameter(" but ".join(
            f"u[{tuple((k - self.S).tolist())}] = [{float(self.lo[tuple(k)])!r}, "
            f"{float(self.hi[tuple(k)])!r}]" for k in (n, 2 * self.S - n))
            + ": a full-sector state must equal its point reflection")

    def _check_mate(self, other: "FourierSeq") -> None:
        if self.grid != other.grid:
            raise GridMismatch("sequences live on different grids")

    def padded(self, S: int) -> "FourierSeq":
        """Same sequence with support radius extended to S >= self.S."""
        if S < self.S:
            raise DimensionMismatch("padded support below current support")
        out = FourierSeq.zeros(self.grid, self.sector, S)
        signed = self.axes[0] == "signed"
        off_out = S if signed else 0
        off_in = self.S if signed else 0
        sl_out = tuple(slice(off_out - off_in, off_out - off_in + s)
                       for s in self.lo.shape)
        out.lo[sl_out] = self.lo
        out.hi[sl_out] = self.hi
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
        lo = self.lo
        hi = self.hi
        for ax, kind in enumerate(self.axes):
            if kind == "signed":
                continue
            sl_pos = [slice(None)] * self.grid.m
            sl_pos[ax] = slice(1, None)
            flip_lo = np.flip(lo[tuple(sl_pos)], axis=ax)
            flip_hi = np.flip(hi[tuple(sl_pos)], axis=ax)
            if kind == "s":
                flip_lo, flip_hi = -flip_hi, -flip_lo
            lo = np.concatenate([flip_lo, lo], axis=ax)
            hi = np.concatenate([flip_hi, hi], axis=ax)
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
    axes = _axis_types(grid.m, sector)
    S = lo.shape[0] // 2
    for ax, kind in enumerate(axes):
        if kind == "signed":
            continue
        sl = [slice(None)] * grid.m
        sl[ax] = slice(S, None)
        lo = lo[tuple(sl)]
        hi = hi[tuple(sl)]
        if kind == "s":
            sl0 = [slice(None)] * grid.m
            sl0[ax] = 0
            lo[tuple(sl0)] = 0.0
            hi[tuple(sl0)] = 0.0
    return FourierSeq(grid, sector, np.ascontiguousarray(lo),
                      np.ascontiguousarray(hi))


def _product_sector(m: int, sa: str, sb: str):
    """Result sector of a product plus the count of odd*odd axes."""
    if sa == "full" or sb == "full":
        other = sb if sa == "full" else sa
        if "s" in other and other != "full":
            raise GridMismatch(
                "product of a signed-storage sequence with an odd-sector "
                "sequence has imaginary coefficients; expand both to a "
                "common symmetric sector first")
        return "full", 0
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
    m = u.grid.m
    sec, flips = _product_sector(m, u.sector, v.sector)
    alo, ahi = u.expand_signed()
    blo, bhi = v.expand_signed()
    lo, hi = _conv_real(alo, ahi, blo, bhi)
    if flips % 2 == 1:
        lo, hi = -hi, -lo
    return _fold(u.grid, sec, lo, hi)


@np.errstate(over="ignore")     # a sum past the largest double is +inf
def seq_l1(u: FourierSeq) -> Interval:
    """Enclosure of the l1 norm (with orbit multiplicities)."""
    w = _mult_weights(u.lo.shape, u.axes)
    c = IArray(u.lo, u.hi)
    n = u.lo.size
    hi = float((w * c.mag()).sum()) * (1.0 + (n + 4) * _U) + _TINY
    lo = min(max(float((w * c.mig()).sum()) * (1.0 - (n + 4) * _U) - _TINY, 0.0), _MAX)
    return Interval(lo, hi)


def index_list(grid: Grid, sector: str, S: int):
    """Fundamental-domain multi-indices in deterministic (row-major) order."""
    axes = _axis_types(grid.m, sector)
    if axes[0] == "signed":
        rng = range(-S, S + 1)
    else:
        rng = range(S + 1)
    if grid.m == 1:
        return [(n,) for n in rng]
    return [(n1, n2) for n1 in rng for n2 in rng]
