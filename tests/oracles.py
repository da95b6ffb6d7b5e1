"""Non-rigorous reference evaluations shared by the tests."""

import math

import numpy as np


def sample_gamma_dagger(u, points: np.ndarray) -> np.ndarray:
    """Non-rigorous midpoint samples of the extension-by-zero of the
    FourierSeq u.

    Points are given as an array of shape (..., m) (or (...,) when m = 1);
    the value is 0 outside the closed box Omega_d.
    """
    pts = np.asarray(points, dtype=np.float64)
    m = u.grid.m
    if m == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
        pts = pts.reshape(pts.shape + (1,))
    flat = pts.reshape(-1, m)
    lo, hi = u.expand_signed()
    coef = lo + 0.5 * (hi - lo)
    coef = coef.astype(np.complex128)
    # restore the i factors of odd axes
    S = u.S
    idx = np.arange(-S, S + 1)
    for ax, kind in enumerate(u.axes):
        if kind == "s":
            sl = [None] * m
            sl[ax] = slice(None)
            coef = coef * (1j * np.ones_like(idx))[tuple(sl)]
    vals = np.zeros(flat.shape[0], dtype=np.complex128)
    inside = np.all(np.abs(flat) <= u.grid.d, axis=1)
    theta = math.pi / u.grid.d
    phase0 = np.exp(1j * theta * np.outer(flat[:, 0], idx))
    if m == 1:
        vals[:] = phase0 @ coef
    else:
        phase1 = np.exp(1j * theta * np.outer(flat[:, 1], idx))
        vals[:] = np.einsum("pi,ij,pj->p", phase0, coef, phase1)
    vals = np.where(inside, vals, 0.0)
    return np.real(vals).reshape(pts.shape[:-1])
