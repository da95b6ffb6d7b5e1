"""Command line driver.

One run is described by a JSON configuration file; the mode selects how far
down the pipeline to go.  `read_config` checks the whole configuration
before any work starts.  Exit codes: 0 success, 2 configuration or I/O
problem, 3 a certification inequality failed (the message names it), 4 a
verified-inverse or eigenbasis abort, 5 any other certification error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

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
from .fourier import _SECTORS, Grid, FourierSeq, index_list
from .models import (
    Model,
    essential_spectrum,
    gray_scott_model,
    sh_model,
    whitham_model,
)
from .pipeline import CertifyOptions, certify


class ConfigError(Exception):
    """A configuration entry is missing, unknown or malformed."""


def _expect(ok: bool, key: str, value, want: str) -> None:
    if not ok:
        raise ConfigError(f"{key} = {value!r}: expected {want}")


def _real(v) -> bool:
    """A JSON number that converts to a finite float."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _count(v, least: int = 0) -> bool:
    return type(v) is int and v >= least


def _keys(v, *names) -> bool:
    return isinstance(v, dict) and set(v) <= set(names)


# the keys each mode needs
_STATE = ("model", "grid", "sector", "N", "solution")
_NEEDS = {"essential-spectrum": ("model",), "newton": _STATE,
          "gershgorin-only": _STATE, "certify": _STATE + ("r0",)}
_REAL = (_real, "a finite number")
# every configuration key: (test of its value, what the test asks for)
_KEYS = {
    "mode": (lambda v: v in tuple(_NEEDS), "one of " + ", ".join(_NEEDS)),
    "model": (lambda v: _keys(v, "name", "m", "params"),
              'an object with keys "name", "m" and "params"'),
    "output": (lambda v: isinstance(v, str), "a file name"),
    "grid": (lambda v: _keys(v, "m", "d") and _count(v.get("m"), 1)
             and v["m"] <= 2 and _real(v.get("d")) and v["d"] > 0,
             '{"m": 1 or 2, "d": a finite number > 0}'),
    "sector": (lambda v: v in _SECTORS[1] + _SECTORS[2], "a sector name"),
    "N": (_count, "an integer >= 0"),
    "solution": (lambda v: _keys(v, "path") and isinstance(v.get("path"), str)
                 or _keys(v, "csv", "S") and isinstance(v.get("csv"), str)
                 and _count(v.get("S")),
                 '{"path": file} or {"csv": file, "S": integer >= 0}'),
    "newton": (lambda v: _keys(v, "tol", "max_iter") and _real(v.get("tol", 1))
               and v.get("tol", 1) > 0 and _count(v.get("max_iter", 1), 1),
               '{"tol": number > 0, "max_iter": integer >= 1}, each optional'),
    "r0": (lambda v: _real(v) and v >= 0, "a finite number >= 0"),
    "delta0": _REAL, "margin": _REAL, "t": _REAL,
    "window": (lambda v: isinstance(v, list) and len(v) == 2
               and all(map(_real, v)) and v[0] < v[1],
               "[lo, hi], two finite numbers with lo < hi"),
    "k_inv": (_count, "an integer >= 0"),
}
# the parameters of each model, all finite numbers
_MODEL_PARAMS = {"swift-hohenberg": ("mu", "nu1", "nu2"),
                 "whitham": ("T", "c"),
                 "gray-scott": ("lambda1", "lambda2")}


def build_model(doc: dict) -> Model:
    """The model a configuration's "model" entry describes."""
    name, m, params = doc.get("name"), doc.get("m", 1), doc.get("params", {})
    _expect(name in tuple(_MODEL_PARAMS), "model.name", name,
            "one of " + ", ".join(_MODEL_PARAMS))
    _expect(_count(m, 1) and m <= 2, "model.m", m, "1 or 2")
    names = _MODEL_PARAMS[name]
    _expect(_keys(params, *names), "model.params", params,
            "an object with keys " + ", ".join(names))
    for key in names:
        _expect(_real(params.get(key)), f"model.params.{key}", params.get(key),
                "a finite number")
    try:
        if name == "swift-hohenberg":
            return sh_model(params["mu"], params["nu1"], params["nu2"], m=m)
        if name == "whitham":
            return whitham_model(params["T"], params["c"], m=m)
        return gray_scott_model(params["lambda1"], params["lambda2"])
    except InvalidParameter as exc:
        raise ConfigError(f"model = {doc!r}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """A checked run configuration; essential-spectrum sets the first three."""

    mode: str
    model: Model
    output: str
    grid: Grid | None = None
    sector: str | None = None
    n_inner: int | None = None
    solution: dict | None = None
    newton: dict | None = None           # newton_solve keywords
    r0: float | None = None
    options: CertifyOptions | None = None


def read_config(doc) -> RunConfig:
    """Check a whole run configuration before any work starts: a missing,
    unknown or malformed entry raises ConfigError naming its key."""
    _expect(isinstance(doc, dict), "configuration", doc, "a JSON object")
    for key, value in doc.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        _expect(_KEYS[key][0](value), key, value, _KEYS[key][1])
    mode = doc.get("mode", "certify")
    for key in _NEEDS[mode]:
        if key not in doc:
            raise ConfigError(f"{key}: missing; mode {mode!r} needs it")
    model = build_model(doc["model"])
    output = doc.get("output", "out.json")
    if mode == "essential-spectrum":
        return RunConfig(mode, model, output)
    _expect(model.components == 1, "model.name", model.name,
            f"a scalar model: mode {mode!r} runs the matrix pipeline, "
            f"which takes one-component models only")

    grid = Grid(doc["grid"]["m"], float(doc["grid"]["d"]))
    sector = doc["sector"]
    _expect(grid.m == model.m, "grid", doc["grid"],
            f"m = {model.m}, the dimension of the {model.name} model")
    _expect(sector in ("full", "c" * grid.m), "sector", sector,
            f"full or {'c' * grid.m} for grid.m = {grid.m}: mode {mode!r} "
            f"takes no state with an odd (sine) axis")
    opts = {k: float(doc[k]) for k in ("delta0", "margin", "t")
            if k in doc}
    if "window" in doc:
        opts["window"] = tuple(map(float, doc["window"]))
    if "k_inv" in doc:
        opts["k_inv"] = doc["k_inv"]
    return RunConfig(mode, model, output, grid, sector, doc["N"],
                     doc["solution"], doc.get("newton", {}),
                     float(doc["r0"]) if "r0" in doc else None,
                     CertifyOptions(**opts))


def load_solution(sol: dict, grid: Grid, sector: str, average: bool) -> FourierSeq:
    """The state a checked "solution" entry names, on the configured grid
    and stored "c"/"cc": a "full" one is folded (fourier.read_seq)."""
    try:
        if "csv" in sol:
            return serialize.load_seq_csv(sol["csv"], grid, sector, sol["S"], average)
        with open(sol["path"]) as fh:
            u0 = serialize.seq_from_doc(json.load(fh), average)
    except (ValueError, KeyError, TypeError, CertifyError) as exc:
        raise ConfigError(f"solution = {sol!r}: unreadable state: {exc}") from exc
    _expect((u0.grid, u0.sector) == (grid, "c" * grid.m), "grid", grid,
            f"the grid of {sol['path']!r}, {u0.grid!r}, and a state stored "
            f"'full' or {'c' * grid.m!r}, not {u0.sector!r}")
    return u0


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(serialize.dumps(doc))
        fh.write("\n")


def run(cfg: RunConfig, plot_path: str | None = None) -> int:
    """Carry out a checked configuration."""
    t_start = time.monotonic()
    model, out = cfg.model, cfg.output

    if cfg.mode == "essential-spectrum":
        rays = essential_spectrum(model)
        doc = {
            "schema": serialize.SCHEMA_VERSION,
            "kind": "essential-spectrum",
            "model": model.name,
            "rays": [
                {"lo": None if r.lo is None else serialize.enc_interval(r.lo),
                 "hi": None if r.hi is None else serialize.enc_interval(r.hi)}
                for r in rays
            ],
        }
        _write(out, doc)
        _log(f"essential spectrum written to {out}", t_start)
        return 0

    grid, sector, n_inner = cfg.grid, cfg.sector, cfg.n_inner
    u0 = load_solution(cfg.solution, grid, sector, average=cfg.mode == "newton")

    if cfg.mode == "newton":
        u0 = newton_solve(model, grid, u0.sector, u0, n_inner, **cfg.newton)
        _write(out, serialize.seq_to_doc(u0))
        _log(f"newton state written to {out}", t_start)
        return 0

    if cfg.mode == "gershgorin-only":
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

    cert = certify(model, u0, sector, cfg.r0, n_inner, cfg.options)
    _write(out, serialize.certificate_to_doc(cert))
    if plot_path:
        _emit_plot(plot_path, sector, cert.bounds.window_bounds.disks.centers,
                   cert.disk_radii_final)
    _log(f"certificate written to {out}", t_start)
    for line in cert.statements:
        print(line)
    print(f"stability: {cert.stable}")
    return 0


def _emit_plot(path: str, sector: str, centers, radii) -> None:
    with open(path, "w") as fh:
        fh.write("sector,center_re,center_im,radius\n")
        for c, r in zip(centers, radii):
            fh.write(f"{sector},{c.re.mid()!r},{c.im.mid()!r},{float(r)!r}\n")


def _log(msg: str, t_start: float) -> None:
    print(f"{msg} ({time.monotonic() - t_start:.2f}s)", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="certify",
        description="Certified spectra of linearizations at localized "
                    "solutions")
    ap.add_argument("--config", required=True, help="run configuration JSON")
    ap.add_argument("--emit-plot-data", metavar="CSV", default=None)
    args = ap.parse_args(argv)

    try:
        with open(args.config) as fh:
            doc = json.load(fh)
        return run(read_config(doc), plot_path=args.emit_plot_data)
    except ConditionViolated as exc:
        print(f"condition violated: {exc}", file=sys.stderr)
        return 3
    except (SingularityUnverified, DegenerateEigenbasis) as exc:
        print(f"verification abort: {exc}", file=sys.stderr)
        return 4
    except (OSError, json.JSONDecodeError, UnicodeDecodeError,
            ConfigError, InvalidParameter) as exc:
        print(f"I/O or configuration error: {exc}", file=sys.stderr)
        return 2
    except CertifyError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
