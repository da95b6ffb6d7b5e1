"""Canonical JSON encoding of sequences, disk sets, and certificates.

Endpoints are written twice: a decimal string via repr (readable, exact on
round-trip for binary64) and the hex form (bit-exact by construction).
Loaders prefer the hex field.  Keys are sorted and the separators fixed, so
identical objects serialize to identical bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidParameter
from .fourier import FourierSeq, Grid, read_seq
from .homotopy import Q_MULT
from .interval import ComplexBox, Interval

SCHEMA_VERSION = 1


def enc_float(x: float) -> dict:
    x = float(x)
    return {"dec": repr(x), "hex": x.hex()}     # "inf" and "-inf" for infinities


def dec_float(obj) -> float:
    return float.fromhex(obj["hex"]) if isinstance(obj, dict) else float(obj)


def enc_interval(v: Interval) -> dict:
    return {"lo": enc_float(v.lo), "hi": enc_float(v.hi)}


def enc_box(z: ComplexBox) -> dict:
    return {"re": enc_interval(z.re), "im": enc_interval(z.im)}


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


# ---------------------------------------------------------------------------
# sequences


def seq_to_doc(u: FourierSeq) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "fourier-seq",
        "grid": {"m": u.grid.m, "d": enc_float(u.grid.d)},
        "sector": u.sector,
        "S": u.S,
        "lo": [enc_float(x) for x in np.asarray(u.lo).reshape(-1)],
        "hi": [enc_float(x) for x in np.asarray(u.hi).reshape(-1)],
    }


def seq_from_doc(doc: dict, average: bool = False) -> FourierSeq:
    """The sequence a document describes (fourier.read_seq folds "full")."""
    if not isinstance(doc, dict) or doc.get("kind") != "fourier-seq":
        raise InvalidParameter("not a sequence document")
    grid = Grid(int(doc["grid"]["m"]), dec_float(doc["grid"]["d"]))
    s = doc["S"]
    if type(s) is not int or s < 0:
        raise InvalidParameter(f"S = {s!r}: the support radius must be an integer >= 0")
    sector = doc["sector"]
    side = 2 * s + 1 if sector == "full" else s + 1
    shape = (side,) * grid.m
    lo = np.array([dec_float(x) for x in doc["lo"]]).reshape(shape)
    hi = np.array([dec_float(x) for x in doc["hi"]]).reshape(shape)
    bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi)))
    if bad.size:
        raise InvalidParameter(f"coefficient {bad[0]} (row-major) has the endpoint "
                               f"[{lo.flat[bad[0]]!r}, {hi.flat[bad[0]]!r}]; "
                               "state coefficients must be finite")
    return read_seq(grid, sector, lo, hi, average)


def load_seq_csv(path: str, grid: Grid, sector: str, S: int,
                 average: bool = False) -> FourierSeq:
    """Plain import: lines of comma-separated `sector` indices and a value."""
    side = 2 * S + 1 if sector == "full" else S + 1
    vals = np.zeros((side,) * grid.m)
    with open(path) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            parts = raw.split(",")
            if len(parts) != grid.m + 1:
                raise InvalidParameter(f"bad csv row: {raw!r}")
            idx = tuple(int(p) for p in parts[:-1])
            pos = tuple(c + S for c in idx) if sector == "full" else idx
            if not all(0 <= p < side for p in pos):
                raise InvalidParameter(
                    f"index {idx} outside the {sector!r} storage of S={S}")
            vals[pos] = float(parts[-1])
            if not math.isfinite(vals[pos]):
                raise InvalidParameter(f"csv row {raw!r}: state coefficients must be finite")
    return read_seq(grid, sector, vals, vals.copy(), average)


# ---------------------------------------------------------------------------
# disk sets and certificates


def diskset_to_doc(ds) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "disk-set",
        "grid": {"m": ds.grid.m, "d": enc_float(ds.grid.d)},
        "sector": ds.sector,
        "n_inner": ds.n_inner,
        "n_mid": ds.n_mid,
        "disks": [
            {"center": enc_box(c), "radius": enc_float(r)}
            for c, r in zip(ds.centers, ds.radii)
        ],
        "tail": {
            "center_form": "symbol(n) + kernel_diag",
            "kernel_diag": enc_box(ComplexBox(ds.w0)),
            "radius": enc_float(ds.tail_radius),
            "min_tail_s": enc_float(ds.min_tail_s),
        },
    }


def certificate_to_doc(cert) -> dict:
    b = cert.bounds
    wb = b.window_bounds
    model, disks, window = wb.model, wb.disks, wb.window
    bounds_doc = {
        "Z11": enc_interval(wb.z11), "Z12": enc_interval(wb.z12),
        "Z13": enc_interval(b.z13), "Z14": enc_interval(b.z14),
        "Zu1": enc_interval(wb.zu1), "Zu2": enc_interval(wb.zu2),
        "Zu3": enc_interval(b.zu3),
        "C1r0": enc_interval(wb.c1r0), "C2r0": enc_interval(b.c2r0),
        "kappa1": _enc_kappa(wb.kappa1), "kappa2": _enc_kappa(wb.kappa2),
        "kappa2_q": _enc_kappa(wb.kappa2q),
        "PN_norm": enc_interval(wb.pseudo.p_norm),
        "eps_factor": enc_interval(b.eps_factor),
        "eps_factor_general": enc_interval(b.eps_factor_inf),
        "eps_factor_q": enc_interval(b.eps_factor_q),
        "q_mult": enc_float(Q_MULT),
        "selfadjoint_factor": enc_interval(b.sa_factor),
        "shift_gap": enc_interval(b.gap),
    }
    return {
        "schema": SCHEMA_VERSION,
        "kind": "certificate",
        "tool_version": _tool_version(),
        "model": {
            "name": model.name,
            "params": {k: enc_interval(v) for k, v in model.params.items()},
        },
        "grid": {"m": disks.grid.m, "d": enc_float(disks.grid.d)},
        "sector": disks.sector,
        "n_inner": disks.n_inner,
        "r0": enc_float(cert.r0),
        "t": enc_float(b.t),
        "window": enc_interval(window),
        "delta0": enc_float(cert.delta0),
        "essential": [
            {"lo": None if lo is None else enc_float(lo),
             "hi": None if hi is None else enc_float(hi)}
            for lo, hi in cert.essential
        ],
        "bounds": bounds_doc,
        "disks": [
            {"center": enc_box(c),
             "radius_gershgorin": enc_float(rg),
             "radius_final": enc_float(rf)}
            for c, rg, rf in zip(disks.centers, disks.radii,
                                 cert.disk_radii_final)
        ],
        "tail": {
            "radius_gershgorin": enc_float(disks.tail_radius),
            "inflated_edge": enc_float(cert.tail_edge),
        },
        "clusters": [
            {"members": list(c.members), "lo": enc_float(c.lo),
             "hi": enc_float(c.hi), "count": c.count,
             "straddles_zero": c.straddles_zero, "label": c.label}
            for c in cert.clusters
        ],
        "statements": list(cert.statements),
        "verdict": {
            "unstable_count": cert.unstable_count,
            "kernel": cert.kernel_statement,
            "stability": cert.stable,
            "selfadjoint_path": cert.selfadjoint_path,
        },
    }


def _enc_kappa(v: Interval) -> dict:
    """A kappa bound, written as [0, hi]: its computed lower end is a
    quotient of 0 rounded outward, -5e-324 or -1.5e-323."""
    return enc_interval(Interval(0.0, v.hi))


def _tool_version() -> str:
    from . import __version__
    return __version__
