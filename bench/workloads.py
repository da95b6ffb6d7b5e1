"""The three workloads: inputs from a seed, the operations, their results.

`prepare(name, seed, workdir)` builds a workload's inputs, runs one
untimed warm-up operation and returns the operations of one pass.  An
operation's `run()` is the timed call into the program; its untimed
`collect(raw)` turns the result into an `Outcome`: what the checks read
(`oracle.Enclosure`), the digest of the program's output, and the oracle
matrix that `oracle.eigenvalues` turns into reference eigenvalues.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import j0

from speccert import cli, finite, fourier, serialize
from speccert.fourier import FourierSeq, Grid
from speccert.models import sh_model

import oracle


@dataclass
class Outcome:
    enclosure: oracle.Enclosure
    digest: str
    oracle_matrix: object       # () -> np.ndarray, evaluated outside timing


# ---------------------------------------------------------------------------
# sh1d-certify: the full pipeline through the command line entry point


PULSE_MUS = (1.4, 1.5, 1.6, 1.7, 1.8)
PULSE = dict(nu1=-3.2, nu2=1.0, d=20.0, sector="c", N=32, r0=1e-8)


def pulse_guess(d: float, N: int, amp: float, width: float) -> np.ndarray:
    """Newton starting point amp sech(width x) cos(x), stored as the test
    suite's `cosine_seed` stores it (doubled off the zero mode)."""
    x = np.linspace(-d, d, 4001)
    f = amp / np.cosh(width * x) * np.cos(x)
    n = np.arange(N + 1)
    c = np.trapezoid(f[None, :] * np.cos(np.pi * n[:, None] * x[None, :] / d),
                     x, axis=1) / (2.0 * d)
    return c * np.where(n == 0, 1.0, 2.0)


class CertifyOp:
    def __init__(self, config_path, cert_path, u_mid, mu):
        self.argv = ["--config", str(config_path)]
        self.cert_path = cert_path
        self.u_mid = u_mid
        self.mu = mu

    def run(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"certify exited {code}: {sink.getvalue()[-400:]}")

    def collect(self, raw) -> Outcome:
        data = self.cert_path.read_bytes()
        doc = json.loads(data)
        num = serialize.dec_float
        disks = doc["disks"]
        box = np.array([[num(dk["center"]["re"]["lo"]), num(dk["center"]["re"]["hi"]),
                         num(dk["center"]["im"]["lo"]), num(dk["center"]["im"]["hi"])]
                        for dk in disks])
        window = (num(doc["window"]["lo"]), num(doc["window"]["hi"]))
        tail_edge = num(doc["tail"]["inflated_edge"])
        enc = oracle.Enclosure(
            re_lo=box[:, 0], re_hi=box[:, 1], im_lo=box[:, 2], im_hi=box[:, 3],
            radius=np.array([num(dk["radius_final"]) for dk in disks]),
            clusters=[(num(c["lo"]), num(c["hi"]), c["count"])
                      for c in doc["clusters"]],
            floor=tail_edge,
            window=window,
            empty_window=any(s.startswith("no eigenvalues")
                             for s in doc["statements"]),
            verdict=doc["verdict"]["stability"],
            gates={"eps_factor": (num(doc["bounds"]["eps_factor"]["hi"]), 1.0),
                   "tail edge vs window": (tail_edge, window[0])},
        )
        u, mu, p = self.u_mid, self.mu, PULSE
        return Outcome(
            enclosure=enc,
            digest=hashlib.sha256(data).hexdigest(),
            oracle_matrix=lambda: oracle.sh_matrix(
                oracle.sh_kernel(u, p["nu1"], p["nu2"]), mu, p["d"], 4 * p["N"]),
        )


def prepare_certify(rng, workdir):
    grid = Grid(1, PULSE["d"])
    ops = []
    for mu in PULSE_MUS:
        model = sh_model(mu, PULSE["nu1"], PULSE["nu2"], m=1)
        guess = pulse_guess(PULSE["d"], PULSE["N"],
                            1.8 * (1.0 + 0.05 * rng.uniform(-1, 1)),
                            0.8 * (1.0 + 0.05 * rng.uniform(-1, 1)))
        u0 = finite.newton_solve(model, grid, PULSE["sector"], guess, PULSE["N"])
        tag = f"mu{mu}"
        state = workdir / f"u0-{tag}.json"
        state.write_text(serialize.dumps(serialize.seq_to_doc(u0)))
        cert = workdir / f"cert-{tag}.json"
        config = workdir / f"config-{tag}.json"
        config.write_text(json.dumps({
            "mode": "certify",
            "model": {"name": "swift-hohenberg", "m": 1,
                      "params": {"mu": mu, "nu1": PULSE["nu1"], "nu2": PULSE["nu2"]}},
            "grid": {"m": 1, "d": PULSE["d"]},
            "sector": PULSE["sector"],
            "N": PULSE["N"],
            "r0": PULSE["r0"],
            "solution": {"path": str(state)},
            "output": str(cert),
        }))
        ops.append(CertifyOp(config, cert, u0.mid(), mu))
    return ops, ops[0]


# ---------------------------------------------------------------------------
# the finite stage: kernel -> Jacobian -> pseudo-diagonal -> disks -> clusters


class DiskOp:
    """Finite stage for a state (kernel built by the program) or a kernel."""

    def __init__(self, model, sector, N, *, state=None, kernel=None,
                 oracle_kernel=None):
        self.model = model
        self.sector = sector
        self.N = N
        self.state = state
        self.kernel = kernel
        self.oracle_kernel = oracle_kernel

    def run(self):
        model, sector, N = self.model, self.sector, self.N
        w = self.kernel
        if w is None:
            w = finite.kernel_from_state(model, self.state)
        a = finite.assemble_jacobian(model, w, sector, N)
        idx = fourier.index_list(w.grid, sector, N)
        pseudo = finite.build_pseudo_diag(a, idx, model.self_adjoint)
        disks = finite.gershgorin_disks(model, w, sector, N, pseudo, a)
        return disks, finite.cluster_disks(disks)

    def collect(self, raw) -> Outcome:
        ds, clusters = raw
        box = np.array([[c.re.lo, c.re.hi, c.im.lo, c.im.hi] for c in ds.centers])
        radius = np.array(ds.radii, dtype=np.float64)
        cl = [(c.lo, c.hi, c.count) for c in clusters]
        h = hashlib.sha256(box.tobytes())
        h.update(radius.tobytes())
        h.update(repr([(lo.hex(), hi.hex(), n, c.members)
                       for (lo, hi, n), c in zip(cl, clusters)]).encode())
        h.update(repr((ds.tail_radius.hex(), ds.n_mid)).encode())
        mu = self.model.params["mu"].lo
        wf, d, n_mid = self.oracle_kernel, ds.grid.d, ds.n_mid
        enc = oracle.Enclosure(
            re_lo=box[:, 0], re_hi=box[:, 1], im_lo=box[:, 2], im_hi=box[:, 3],
            radius=radius, clusters=cl,
            gates={"disks missing or extra": (
                abs(len(radius) - (n_mid + 1) ** ds.grid.m), 1)})
        return Outcome(enclosure=enc, digest=h.hexdigest(),
                       oracle_matrix=lambda: oracle.sh_matrix(wf, mu, d, n_mid))


# sh2d-disks: one planar spot, the finite stage at N = 16

SPOT = dict(mu=0.28, nu1=-1.6, nu2=1.0, d=16.0, sector="cc", S=8, N=16,
            N_warmup=4, amp=0.4, sigma=6.0)


def spot_coefficients(rng) -> np.ndarray:
    """Cosine coefficients (S+1)^2 of amp J0(r) exp(-(r/sigma)^2) on
    (-d, d)^2, with amp and sigma jittered by up to 2% from the seed."""
    p = SPOT
    amp = p["amp"] * (1.0 + 0.02 * rng.uniform(-1, 1))
    sigma = p["sigma"] * (1.0 + 0.02 * rng.uniform(-1, 1))
    d = p["d"]
    x = np.linspace(-d, d, 513)
    r = np.hypot(x[:, None], x[None, :])
    f = amp * j0(r) * np.exp(-(r / sigma) ** 2)
    wq = np.full(x.size, x[1] - x[0])
    wq[0] *= 0.5
    wq[-1] *= 0.5
    n = np.arange(p["S"] + 1)
    c = np.cos(np.pi * n[:, None] * x[None, :] / d) * wq[None, :]
    return c @ f @ c.T / (2.0 * d) ** 2


def prepare_spot(rng, workdir):
    p = SPOT
    coef = spot_coefficients(rng)
    model = sh_model(p["mu"], p["nu1"], p["nu2"], m=2)
    u0 = FourierSeq.from_point(Grid(2, p["d"]), p["sector"], coef)
    wf = oracle.sh_kernel(coef, p["nu1"], p["nu2"])
    op = DiskOp(model, p["sector"], p["N"], state=u0, oracle_kernel=wf)
    warm = DiskOp(model, p["sector"], p["N_warmup"], state=u0, oracle_kernel=wf)
    return [op], warm


# sh1d-family: the operators of the test suite's 200-operator Gershgorin
# oracle test (seed 31415), at a fixed ladder of sizes

FAMILY_ROWS = tuple(range(20, 201, 10))
FAMILY_BASE_SEED = 31415
FAMILY_D = 10.0


def family_base():
    """(mu, nu1, S, w) of the first len(FAMILY_ROWS) test operators, drawn
    in the test's order; its size draw is replaced by FAMILY_ROWS."""
    rng = np.random.default_rng(FAMILY_BASE_SEED)
    out = []
    for _ in FAMILY_ROWS:
        mu = float(rng.uniform(0.3, 2.5))
        nu1 = float(rng.uniform(-3.0, -0.5))
        S = int(rng.integers(2, 7))
        w = rng.standard_normal(S + 1) * rng.uniform(0.05, 0.4)
        rng.integers(19 - S, 200 - S)
        out.append((mu, nu1, S, w))
    return out


def prepare_family(rng, workdir):
    grid = Grid(1, FAMILY_D)
    ops = []
    for (mu, nu1, S, w), rows in zip(family_base(), FAMILY_ROWS):
        # the seed moves mu by up to 5% and each kernel coefficient by a
        # 5% relative normal perturbation
        mu *= 1.0 + 0.05 * rng.uniform(-1, 1)
        w = w * (1.0 + 0.05 * rng.standard_normal(S + 1))
        ops.append(DiskOp(sh_model(mu, nu1, 1.0, m=1), "c", rows - 1 - S,
                          kernel=FourierSeq.from_point(grid, "c", w),
                          oracle_kernel=oracle.signed(w)))
    return ops, ops[0]


WORKLOADS = {
    "sh1d-certify": prepare_certify,
    "sh2d-disks": prepare_spot,
    "sh1d-family": prepare_family,
}


def prepare(name: str, seed: int, workdir):
    """Inputs and operations of one pass, after one untimed warm-up."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops, warm = WORKLOADS[name](np.random.default_rng(seed), workdir)
    warm_outcome = warm.collect(warm.run())
    return ops, (warm, warm_outcome)
