"""Command line driver.

One run is described by a JSON configuration file; the mode selects how far
down the pipeline to go.  Exit codes: 0 success, 2 configuration or I/O
problem, 3 a certification inequality failed (the message names it), 4 a
verified-inverse or eigenbasis abort, 5 any other certification error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from . import serialize
from .errors import (
    CertifyError,
    ConditionViolated,
    DegenerateEigenbasis,
    InvalidParameter,
    SingularityUnverified,
)
from .finite import gershgorin_disks, assemble_jacobian, build_pseudo_diag, \
    kernel_from_state, newton_solve
from .fourier import Grid, FourierSeq, index_list
from .models import (
    DecayBound,
    essential_spectrum,
    gray_scott_model,
    sh_model,
    whitham_model,
)
from .pipeline import CertifyOptions, certify


def build_model(doc: dict):
    name = doc["name"]
    params = doc.get("params", {})
    m = int(doc.get("m", 1))
    if name == "swift-hohenberg":
        return sh_model(params["mu"], params["nu1"], params["nu2"], m=m)
    if name == "whitham":
        table = tuple(DecayBound(*(float(x) for x in row))
                      for row in params.get("decay_table", ()))
        return whitham_model(params["T"], params["c"], decay_table=table, m=m)
    if name == "gray-scott":
        return gray_scott_model(params["lambda1"], params["lambda2"])
    raise InvalidParameter(f"unknown model {name!r}")


def load_solution(cfg: dict, grid: Grid, sector: str) -> FourierSeq:
    sol = cfg.get("solution")
    if sol is None:
        raise InvalidParameter("configuration lacks a solution entry")
    if "path" in sol:
        with open(sol["path"]) as fh:
            return serialize.seq_from_doc(json.load(fh))
    if "csv" in sol:
        return serialize.load_seq_csv(sol["csv"], grid, sector, int(sol["S"]))
    raise InvalidParameter("solution entry needs 'path' or 'csv'")


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(serialize.dumps(doc))
        fh.write("\n")


class ConfigError(Exception):
    """A configuration entry has the wrong type or form."""


@contextlib.contextmanager
def _reading_config():
    """Report a value of the wrong type or form as a ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration value: {exc}") from exc


def run(cfg: dict, plot_path: str | None = None) -> int:
    t_start = time.monotonic()
    mode = cfg.get("mode", "certify")
    with _reading_config():
        model = build_model(cfg["model"])
    out = cfg.get("output", "out.json")

    if mode == "essential-spectrum":
        rays = essential_spectrum(model)
        doc = {
            "schema": serialize.SCHEMA_VERSION,
            "kind": "essential-spectrum",
            "model": cfg["model"]["name"],
            "rays": [
                {"lo": None if r.lo is None else serialize.enc_interval(r.lo),
                 "hi": None if r.hi is None else serialize.enc_interval(r.hi)}
                for r in rays
            ],
        }
        _write(out, doc)
        _log(f"essential spectrum written to {out}", t_start)
        return 0

    with _reading_config():
        grid = Grid(int(cfg["grid"]["m"]), float(cfg["grid"]["d"]))
        sector = cfg["sector"]
        n_inner = int(cfg["N"])
        u0 = load_solution(cfg, grid, sector)

    if mode == "newton":
        with _reading_config():
            nt = cfg.get("newton", {})
            tol = float(nt.get("tol", 1e-11))
            max_iter = int(nt.get("max_iter", 80))
        u0 = newton_solve(model, grid, sector, u0, n_inner,
                          tol=tol, max_iter=max_iter)
        _write(out, serialize.seq_to_doc(u0))
        _log(f"newton state written to {out}", t_start)
        return 0

    if mode == "gershgorin-only":
        w = kernel_from_state(model, u0)
        a = assemble_jacobian(model, w, sector, n_inner)
        idx = index_list(grid, sector, n_inner)
        pseudo = build_pseudo_diag(a, idx, model.self_adjoint)
        ds = gershgorin_disks(model, w, sector, n_inner, pseudo, a)
        _write(out, serialize.diskset_to_doc(ds))
        if plot_path:
            _emit_plot(plot_path, sector, ds.centers, ds.radii)
        _log(f"disk set written to {out}", t_start)
        return 0

    if mode != "certify":
        raise InvalidParameter(f"unknown mode {mode!r}")

    if "r0" not in cfg:
        raise InvalidParameter(
            "mode certify needs r0: the certified distance to the true "
            "state is an external proof input")
    with _reading_config():
        r0 = float(cfg["r0"])
        opts = CertifyOptions(
            delta0=float(cfg.get("delta0", 1e-2)),
            q_mult=float(cfg.get("q_mult", 2.0)),
            margin=float(cfg.get("margin", 1.0)),
            two_pass=bool(cfg.get("two_pass", True)),
            selfadjoint_path=cfg.get("selfadjoint_path"),
            window=tuple(cfg["window"]) if "window" in cfg else None,
            t=cfg.get("t"),
            k_inv=int(cfg.get("k_inv", 0)),
        )
    cert = certify(model, u0, r0, n_inner, opts)
    _write(out, serialize.certificate_to_doc(cert))
    if plot_path:
        _emit_plot(plot_path, sector, cert.disk_centers, cert.disk_radii_final)
    _log(f"certificate written to {out}", t_start)
    for line in cert.statements:
        print(line)
    print(f"stability: {cert.stable}")
    return 0


def _emit_plot(path: str, sector: str, centers, radii) -> None:
    with open(path, "w") as fh:
        fh.write("sector,center_re,center_im,radius\n")
        for c, r in zip(centers, radii):
            fh.write(f"{sector},{c.re.mid()!r},{c.im.mid()!r},{r!r}\n")


def _log(msg: str, t_start: float) -> None:
    print(f"{msg} ({time.monotonic() - t_start:.2f}s)", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="certify",
        description="Certified spectra of linearizations at localized "
                    "solutions")
    ap.add_argument("--config", required=True, help="run configuration JSON")
    ap.add_argument("--emit-plot-data", metavar="CSV", default=None)
    ap.add_argument("--sector", default=None,
                    help="override the configured symmetry sector")
    ap.add_argument("--two-pass", action="store_true",
                    help="force the two-pass shift refinement")
    args = ap.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.sector:
        cfg["sector"] = args.sector
    if args.two_pass:
        cfg["two_pass"] = True

    try:
        return run(cfg, plot_path=args.emit_plot_data)
    except ConditionViolated as exc:
        print(f"condition violated: {exc}", file=sys.stderr)
        return 3
    except (SingularityUnverified, DegenerateEigenbasis) as exc:
        print(f"verification abort: {exc}", file=sys.stderr)
        return 4
    except (OSError, KeyError, ConfigError) as exc:
        print(f"I/O or configuration error: {exc}", file=sys.stderr)
        return 2
    except CertifyError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
