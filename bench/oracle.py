"""Checks against a computation made apart from the program.

The oracle assembles the midpoint Jacobian of the Swift-Hohenberg
linearization in the cosine basis with plain numpy, from the state (or
kernel) coefficients alone, and takes `numpy.linalg.eigvalsh` of its
symmetric part.  Nothing here imports `speccert`.

Conventions, as in the program: a cosine-sector coefficient array stores
the full Fourier coefficient u_n = u_{-n}; the basis vector of index n is
m_n^{-1/2} sum over the distinct reflections of e_n, with m_n the orbit
size; the entry of the linearization is

    A[n, k] = delta_{nk} l(|n|) + sqrt(m_n / m_k) sum_sigma W[n - sigma k],

with l(s) = -(1 - s^2)^2 - mu at s = pi |n|_2 / d.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.signal import convolve2d

_U = 2.0 ** -53


# ---------------------------------------------------------------------------
# independent assembly


def signed(c: np.ndarray) -> np.ndarray:
    """Cosine-sector storage to the full signed array, axis by axis."""
    for ax in range(c.ndim):
        c = np.concatenate([np.flip(np.delete(c, 0, axis=ax), axis=ax), c], axis=ax)
    return c


def sh_kernel(u: np.ndarray, nu1: float, nu2: float) -> np.ndarray:
    """Signed coefficients of W = DG(u) = -2 nu1 u - 3 nu2 u^2."""
    uf = signed(np.asarray(u, dtype=np.float64))
    u2 = np.convolve(uf, uf) if uf.ndim == 1 else convolve2d(uf, uf)
    pad = (u2.shape[0] - uf.shape[0]) // 2
    return -2.0 * nu1 * np.pad(uf, pad) - 3.0 * nu2 * u2


def _w_at(wf: np.ndarray, *diffs):
    s = (wf.shape[0] - 1) // 2
    inside = np.ones(diffs[0].shape, dtype=bool)
    for dd in diffs:
        inside &= np.abs(dd) <= s
    idx = tuple(np.clip(dd + s, 0, 2 * s) for dd in diffs)
    return np.where(inside, wf[idx], 0.0)


def sh_matrix(wf: np.ndarray, mu: float, d: float, R: int) -> np.ndarray:
    """Cosine-sector matrix truncated to |n|_inf <= R (1D or 2D)."""
    n = np.arange(R + 1)
    if wf.ndim == 1:
        nr, kc = n[:, None], n[None, :]
        a = _w_at(wf, nr - kc) + np.where(kc != 0, _w_at(wf, nr + kc), 0.0)
        mult = np.where(n == 0, 1.0, 2.0)
        s = np.pi * n / d
    else:
        n1 = np.repeat(n, R + 1)
        n2 = np.tile(n, R + 1)
        r1, r2 = n1[:, None], n2[:, None]
        k1, k2 = n1[None, :], n2[None, :]
        a = np.zeros((n1.size, n1.size))
        for s1 in (1, -1):
            for s2 in (1, -1):
                term = _w_at(wf, r1 - s1 * k1, r2 - s2 * k2)
                keep = ((s1 == 1) | (k1 != 0)) & ((s2 == 1) | (k2 != 0))
                a += np.where(keep, term, 0.0)
        mult = np.where(n1 == 0, 1.0, 2.0) * np.where(n2 == 0, 1.0, 2.0)
        s = np.pi * np.hypot(n1, n2) / d
    a *= np.sqrt(mult[:, None] / mult[None, :])
    a[np.diag_indices_from(a)] += -(1.0 - s * s) ** 2 - mu
    return a


def eigenvalues(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (a + a.T))


def tolerance(eig: np.ndarray) -> float:
    """Slack for the oracle's own rounding (assembly and eigensolver).

    An eigenvalue from eigvalsh is off by a few u |A|; the disks of these
    workloads clear every oracle eigenvalue by hundreds of u |A|.
    """
    return 4.0 * _U * float(np.max(np.abs(eig)))


# ---------------------------------------------------------------------------
# what the checks look at


@dataclass
class Enclosure:
    """Disks (center boxes and radii), counted clusters and, for a
    certificate, the facts its verdict rests on."""

    re_lo: np.ndarray
    re_hi: np.ndarray
    im_lo: np.ndarray
    im_hi: np.ndarray
    radius: np.ndarray
    clusters: list                       # (lo, hi, count)
    floor: float = -np.inf               # tail family lies below this
    window: tuple | None = None          # certify: (lo, hi)
    empty_window: bool = False           # certify: "no eigenvalues in ..."
    verdict: str | None = None           # certify: stable/unstable/unknown
    gates: dict = field(default_factory=dict)   # name -> (value, limit)


def _distances(eig: np.ndarray, enc: Enclosure) -> np.ndarray:
    e = eig[:, None]
    dx = np.maximum(np.maximum(enc.re_lo[None, :] - e, e - enc.re_hi[None, :]), 0.0)
    dy = np.maximum(np.maximum(enc.im_lo, -enc.im_hi), 0.0)
    return np.hypot(dx, dy[None, :])


def check_coverage(enc: Enclosure, eig: np.ndarray, tol: float) -> list:
    """Every oracle eigenvalue lies in some disk (or below the tail edge)."""
    dist = _distances(eig, enc)
    covered = np.any(dist <= enc.radius[None, :] + tol, axis=1)
    covered |= eig <= enc.floor + tol
    bad = eig[~covered]
    return [f"{bad.size} oracle eigenvalue(s) outside every disk, "
            f"first {bad[0]!r}"] if bad.size else []


def check_counts(enc: Enclosure, eig: np.ndarray, tol: float) -> list:
    """Each cluster holds exactly its count of oracle eigenvalues."""
    errs = []
    for lo, hi, count in enc.clusters:
        inside = int(np.sum((eig >= lo - tol) & (eig <= hi + tol)))
        if inside != count:
            errs.append(f"cluster [{lo!r}, {hi!r}] counts {count}, "
                        f"oracle finds {inside}")
    return errs


def check_window(enc: Enclosure, eig: np.ndarray, tol: float) -> list:
    """The certified window statements and the verdict match the oracle."""
    if enc.window is None:
        return []
    jlo, jhi = enc.window
    inside = eig[(eig > jlo) & (eig < jhi)]
    errs = []
    for ev in inside:
        if not any(lo - tol <= ev <= hi + tol for lo, hi, _ in enc.clusters):
            errs.append(f"oracle eigenvalue {ev!r} in the window lies in no "
                        "counted cluster")
    if enc.empty_window and inside.size:
        errs.append(f"certificate states an empty window, oracle has "
                    f"{inside.size} eigenvalue(s) in it")
    if enc.verdict == "stable" and eig.max() >= 0.0:
        errs.append(f"verdict stable, oracle eigenvalue {eig.max()!r} >= 0")
    return errs


def check_gates(enc: Enclosure, eig: np.ndarray, tol: float) -> list:
    """Certificate inequalities: each value strictly below its limit."""
    return [f"{name}: {v!r} is not below {lim!r}"
            for name, (v, lim) in enc.gates.items() if not v < lim]


CHECKS = {
    "coverage": check_coverage,
    "counts": check_counts,
    "window": check_window,
    "gates": check_gates,
}


def run_checks(enc: Enclosure, eig: np.ndarray) -> dict:
    tol = tolerance(eig)
    return {name: fn(enc, eig, tol) for name, fn in CHECKS.items()}


# ---------------------------------------------------------------------------
# self-test: tampered results the checks must refuse


def tampered(enc: Enclosure, eig: np.ndarray) -> list:
    """(case, check that must fail, enclosure, eigenvalues) per tamper."""
    tol = tolerance(eig)
    cases = []

    # shrink the disks over one eigenvalue until it falls outside them all;
    # the eigenvalue is the one under the fewest disks (one, where some
    # eigenvalue has a disk to itself), each of them clear of it by 2 tol
    dist = _distances(eig, enc)
    hits = dist <= enc.radius[None, :] + tol
    n_cover = hits.sum(axis=1)
    usable = (eig > enc.floor + tol) & np.all(~hits | (dist > 2.0 * tol), axis=1)
    if usable.any():
        i = int(np.argmin(np.where(usable, n_cover, eig.size + 1)))
        radius = enc.radius.copy()
        radius[hits[i]] = 0.5 * (dist[i, hits[i]] - tol)
        cases.append(("radius shrunk", "coverage", replace(enc, radius=radius), eig))
    else:
        cases.append(("radius shrunk", "coverage", None, eig))

    if enc.clusters:
        lo, hi, count = enc.clusters[0]
        clusters = [(lo, hi, count + 1)] + list(enc.clusters[1:])
        cases.append(("count off by one", "counts", replace(enc, clusters=clusters), eig))

    if enc.window is not None:
        jlo, jhi = enc.window
        injected = np.append(eig, 0.5 * (max(jlo, 0.0) + jhi))
        cases.append(("eigenvalue placed in the window", "window", enc, injected))
    return cases


def self_test(enc: Enclosure, eig: np.ndarray) -> list:
    """Errors for every tamper the named check fails to refuse."""
    errs = []
    for case, check, bad_enc, bad_eig in tampered(enc, eig):
        if bad_enc is None:
            errs.append(f"{case}: every eigenvalue sits at a disk center, "
                        "the coverage check cannot be exercised")
            continue
        if not CHECKS[check](bad_enc, bad_eig, tolerance(bad_eig)):
            errs.append(f"{case}: check '{check}' passes a tampered result")
    return errs
