import copy
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from speccert import cli, finite, homotopy, models, pipeline, radial, serialize
from speccert.cli import main
from speccert.errors import (
    ConditionViolated,
    InvalidParameter,
    KernelMismatch,
    ReductionUnavailable,
    SingularityUnverified,
    UnboundedOperand,
)
from speccert.finite import (
    assemble_jacobian,
    build_pseudo_diag,
    cluster_disks,
    gershgorin_disks,
)
from speccert.fourier import FourierSeq, Grid, index_list
from speccert.interval import ComplexBox, Interval
from speccert.models import Model, sh_model, whitham_model
from speccert.pipeline import (
    CertifyOptions,
    CountedCluster,
    _reconcile_kernel,
    certify,
    default_window,
    select_shift,
)
import scalar_paths


@pytest.fixture(scope="module")
def toy_cert(sh_toy):
    return certify(sh_toy["model"], sh_toy["u0"], 1e-8, sh_toy["N"])


# -- certification output -------------------------------------------------

def test_certificate_structure(toy_cert):
    cert = toy_cert
    wb = cert.bounds.window_bounds
    assert wb.model.name == "swift-hohenberg"
    assert cert.stable == "stable"
    assert cert.unstable_count == 0
    assert cert.clusters == []
    assert any("no eigenvalues" in s for s in cert.statements)
    jlo, jhi = wb.window.lo, wb.window.hi
    assert jlo == -0.01 and jhi > 3.0
    assert cert.tail_edge < jlo
    assert cert.bounds.eps_factor.hi < 1.0
    for rg, rf in zip(wb.disks.radii, cert.disk_radii_final):
        assert rf >= rg


def test_certificate_window_clears_all_disks(toy_cert):
    wb = toy_cert.bounds.window_bounds
    for c, r in zip(wb.disks.centers, toy_cert.disk_radii_final):
        assert c.re.hi + r < wb.window.lo


def test_certificate_deterministic(sh_toy, toy_cert):
    again = certify(sh_toy["model"], sh_toy["u0"], 1e-8, sh_toy["N"])
    doc1 = serialize.dumps(serialize.certificate_to_doc(toy_cert))
    doc2 = serialize.dumps(serialize.certificate_to_doc(again))
    assert doc1 == doc2
    assert "time" not in json.loads(doc1)
    assert "wall" not in doc1


def _exact_tail_edge(cert, center_edge):
    """The inflated tail family's edge toward the window, in exact rationals:
    center edge * (1 - factor) + tail radius - factor * t."""
    factor = Fraction(cert.bounds.eps_factor.hi)
    return (Fraction(center_edge) * (1 - factor)
            + Fraction(cert.bounds.window_bounds.disks.tail_radius)
            - factor * Fraction(cert.bounds.t))


def test_certificate_tail_edge_bounds_the_exact_edge(sh_toy, toy_cert):
    center_edge = pipeline._tail_center_edge(sh_toy["model"], sh_toy["disks"])
    assert _exact_tail_edge(toy_cert, center_edge) <= Fraction(toy_cert.tail_edge)


def test_tail_edge_rounds_one_minus_factor_outward(sh_toy, monkeypatch):
    # 1 - 2^-60 rounds to 1.0: taken as a point, the edge -1 * (1 - factor)
    # would come out -1.0, below the exact -1 + 2^-60
    monkeypatch.setattr(pipeline, "_tail_center_edge", lambda model, disks: -1.0)
    disks = replace(sh_toy["disks"], tail_radius=0.0)
    wb = SimpleNamespace(model=sh_toy["model"], disks=disks,
                         window=Interval(-0.01, 3.56))
    bounds = SimpleNamespace(t=0.0, eps_factor=Interval(0.0, 2.0 ** -60),
                             window_bounds=wb)
    cert = pipeline._assemble_certificate(1e-8, bounds, disks.radii,
                                          CertifyOptions(), False, 3.56)
    assert _exact_tail_edge(cert, -1.0) <= Fraction(cert.tail_edge)


def test_certificate_shift_gap_claims_only_a_lower_bound(toy_cert):
    # only the lower end of dist(-t, disks) is certified
    gap = toy_cert.bounds.gap
    assert gap.lo > 0.0 and gap.hi == math.inf
    doc = serialize.certificate_to_doc(toy_cert)
    assert doc["bounds"]["shift_gap"]["hi"]["hex"] == "inf"


def test_certify_huge_r0_rejected(sh_toy):
    with pytest.raises(ConditionViolated) as exc:
        certify(sh_toy["model"], sh_toy["u0"], 1e3, sh_toy["N"])
    assert "r0" in str(exc.value) or "contraction" in str(exc.value)


# -- shift-independent bounds, once per certificate -----------------------

def _toy_model():
    # the sh_toy model, built anew so that no earlier test has cached kappa
    return sh_model(1.5, -3.2, 1.0, m=1)


def test_window_bounds_computed_once_per_certificate(sh_toy, monkeypatch):
    calls = Counter()
    for module, name in ((models, "rigorous_L2_of_reciprocal"),
                         (homotopy, "zu_base_bounds"),
                         (pipeline, "compute_bounds")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    certify(_toy_model(), sh_toy["u0"], 1e-8, sh_toy["N"])
    assert calls == {"rigorous_L2_of_reciprocal": 1, "zu_base_bounds": 1,
                     "compute_bounds": 5}


def test_certify_clusters_the_disks_once(sh_toy, toy_cert, monkeypatch):
    # the shift ladder reads its edge off the disks: only the inflated disks
    # of the chosen family are clustered, and the certificate keeps its bytes
    calls = []
    real = finite.cluster_disks

    def counted(diskset):
        calls.append(1)
        return real(diskset)

    monkeypatch.setattr(finite, "cluster_disks", counted)
    monkeypatch.setattr(pipeline, "cluster_disks", counted)
    cert = certify(_toy_model(), sh_toy["u0"], 1e-8, sh_toy["N"])
    assert len(calls) == 1
    assert (serialize.dumps(serialize.certificate_to_doc(cert))
            == serialize.dumps(serialize.certificate_to_doc(toy_cert)))


@pytest.mark.parametrize("t", [None, -5.0])
def test_certify_refuses_a_nan_radius_before_window_bounds(sh_toy, monkeypatch, t):
    # also with a fixed shift, which reads no disk edge
    real = pipeline.gershgorin_disks

    def nan_radius(*args):
        disks = real(*args)
        disks.radii[0] = math.nan
        return disks

    def unreachable(*args):
        raise AssertionError("window_bounds ran")

    monkeypatch.setattr(pipeline, "gershgorin_disks", nan_radius)
    monkeypatch.setattr(pipeline, "window_bounds", unreachable)
    with pytest.raises(UnboundedOperand, match="NaN or infinite radius"):
        certify(sh_toy["model"], sh_toy["u0"], 1e-8, sh_toy["N"], CertifyOptions(t=t))


def test_kappa_cache_leaves_certificate_bytes_unchanged(sh_toy, toy_cert,
                                                        monkeypatch):
    monkeypatch.setattr(Model, "kappa", lambda self: self.kappa_hook())
    uncached = certify(_toy_model(), sh_toy["u0"], 1e-8, sh_toy["N"])
    assert (serialize.dumps(serialize.certificate_to_doc(uncached))
            == serialize.dumps(serialize.certificate_to_doc(toy_cert)))


def test_scalar_paths_give_the_same_certificate_bytes(sh_toy, toy_cert,
                                                     monkeypatch):
    # the batched radial and homotopy loops against the scalar loops they
    # replaced, with the self-adjoint head search run to its tolerance
    def bb_inf_without_stop(f, lo, hi, tol=1e-10, stop=None):
        assert stop is None
        return scalar_paths.bb_inf_reference(f, lo, hi, tol)

    def bb_sup_without_stop(f, lo, hi, tol=1e-10, stop=None):
        return scalar_paths.bb_sup_reference(f, lo, hi, tol)

    for module, name, ref in (
            (radial, "bb_inf", bb_inf_without_stop),
            (homotopy, "bb_sup", bb_sup_without_stop),
            (models, "integrate_radial", scalar_paths.integrate_reference),
            (homotopy, "dist_to_window", scalar_paths.dist_to_window),
            (homotopy, "kernel_weight_integrals", scalar_paths.kernel_weight_integrals),
            (homotopy, "_disk_gap", scalar_paths.disk_gap),
            (pipeline, "inflate_disks", scalar_paths.inflate_disks)):
        monkeypatch.setattr(module, name, ref)
    scalar = certify(_toy_model(), sh_toy["u0"], 1e-8, sh_toy["N"])
    assert (serialize.dumps(serialize.certificate_to_doc(scalar))
            == serialize.dumps(serialize.certificate_to_doc(toy_cert)))


def test_missing_hooks_fail_before_the_finite_stage(sh_toy, tmp_path,
                                                    monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("the finite stage ran")

    monkeypatch.setattr(pipeline, "kernel_from_state", unreachable)
    with pytest.raises(ReductionUnavailable) as exc:
        certify(whitham_model(0.5, 0.8), sh_toy["u0"], 1e-8, 8)
    assert all(hook in str(exc.value)
               for hook in ("kappa_hook", "lip_dg", "decay_provider"))
    # a model with every hook but another unmet requirement is refused as
    # early, and the command line exits 5 naming it
    path, _ = _toy_config(tmp_path, sh_toy)
    for field, value, unmet in (("ess_side", "above", "essential spectrum above"),
                                ("self_adjoint", False, "not self-adjoint")):
        model = copy.copy(_toy_model())
        setattr(model, field, value)
        with pytest.raises(ReductionUnavailable, match=unmet):
            certify(model, sh_toy["u0"], 1e-8, sh_toy["N"])
        monkeypatch.setattr(cli, "sh_model", lambda *args, _m=model, **kw: _m)
        assert main(["--config", str(path)]) == 5
        assert unmet in capsys.readouterr().err


def test_default_window_and_shift_orientation():
    w = default_window(2.0, 0.01)
    assert w == Interval(-0.01, 2.0)
    assert select_shift(-1.0, 1.0) == 0.0
    assert select_shift(2.0, 1.0) == -3.0


# -- kernel reconciliation ------------------------------------------------

def _cc(lo, hi, count):
    return CountedCluster(members=list(range(count)), lo=lo, hi=hi,
                          count=count, straddles_zero=lo <= 0.0 <= hi,
                          label="contains 0 candidate" if lo <= 0.0 <= hi
                          else ("negative" if hi < 0 else "positive"))


def test_reconcile_kernel_paths():
    msg, _ = _reconcile_kernel([_cc(-2.0, -1.0, 3)], 0)
    assert "no zero-straddling" in msg

    msg, _ = _reconcile_kernel([_cc(-0.1, 0.1, 1)], 0)
    assert "no invariance dimension declared" in msg

    clusters = [_cc(-0.1, 0.1, 1), _cc(-2.0, -1.0, 2)]
    msg, out = _reconcile_kernel(clusters, 1)
    assert out[0].label == "= 0"
    assert out[1].label == "negative"
    assert "accounted for" in msg

    with pytest.raises(KernelMismatch):
        _reconcile_kernel([_cc(-0.1, 0.1, 2)], 1)


# -- serialization round trips --------------------------------------------

def test_float_round_trip():
    for x in (0.0, -0.0, 1.5, -1e-300, math.pi, math.inf, -math.inf,
              0.19999999999999996):
        assert serialize.dec_float(serialize.enc_float(x)) == x or (
            x != x and serialize.dec_float(serialize.enc_float(x)) != x)


def _dec_interval(doc):
    return Interval(serialize.dec_float(doc["lo"]), serialize.dec_float(doc["hi"]))


def test_interval_and_box_round_trip():
    iv = Interval(-1.25, 7.5e-12)
    assert _dec_interval(serialize.enc_interval(iv)) == iv
    box = ComplexBox(Interval(0.5, 0.75))
    doc = serialize.enc_box(box)
    assert _dec_interval(doc["re"]) == box.re
    assert _dec_interval(doc["im"]) == Interval(0.0)


def test_seq_round_trip(sh_toy):
    doc = serialize.seq_to_doc(sh_toy["u0"])
    back = serialize.seq_from_doc(doc)
    assert back == sh_toy["u0"]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_seq_readers_refuse_non_finite_coefficients(tmp_path, bad):
    grid = Grid(1, 10.0)
    u = FourierSeq.from_point(grid, "c", [1.5, -0.25, 0.125])
    for end in ("lo", "hi"):
        doc = serialize.seq_to_doc(u)
        doc[end][1] = serialize.enc_float(bad)
        with pytest.raises(InvalidParameter, match="coefficient 1 .* must be finite"):
            serialize.seq_from_doc(doc)
    p = tmp_path / "u.csv"
    p.write_text(f"0,1.5\n1,{bad!r}\n")
    with pytest.raises(InvalidParameter, match="'1,.*must be finite"):
        serialize.load_seq_csv(str(p), grid, "c", 2)


@pytest.mark.parametrize("mode", ["gershgorin-only", "certify"])
def test_cli_non_finite_state_exits_2(tmp_path, sh_toy, capsys, mode):
    path, cfg = _toy_config(tmp_path, sh_toy, mode=mode)
    doc = serialize.seq_to_doc(sh_toy["u0"])
    doc["hi"][3] = serialize.enc_float(math.inf)
    Path(cfg["solution"]["path"]).write_text(serialize.dumps(doc))
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "solution = " in err and "must be finite" in err


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "not a sequence document"),
    ({"schema": serialize.SCHEMA_VERSION, "kind": "fourier-seq",
      "grid": {"m": 1, "d": serialize.enc_float(20.0)}, "sector": "c", "S": -1,
      "lo": [], "hi": []}, "S = -1"),
])
def test_cli_malformed_state_exits_2(tmp_path, sh_toy, capsys, doc, message):
    path, cfg = _toy_config(tmp_path, sh_toy, mode="gershgorin-only")
    Path(cfg["solution"]["path"]).write_text(json.dumps(doc))
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"solution = {cfg['solution']!r}" in err and message in err


def _full_pulse(sh_toy, odd=0.0):
    """The toy pulse in signed (full) storage, plus odd (e_3 - e_-3)."""
    lo = sh_toy["u0"].expand_signed()[0].copy()
    S = sh_toy["u0"].S
    lo[S + 3] += odd
    lo[S - 3] -= odd
    return FourierSeq.from_point(sh_toy["grid"], "full", lo)


@pytest.mark.parametrize("mode", ["gershgorin-only", "certify"])
def test_cli_refuses_a_full_state_that_is_not_even(tmp_path, sh_toy, capsys, mode):
    # real coefficients against e^{i pi n x / d} make a real function only
    # when u[-n] = u[n]: an odd perturbation would reach the self-adjoint
    # pipeline with an asymmetric operator
    path, cfg = _toy_config(tmp_path, sh_toy, mode=mode, sector="full")
    sol = Path(cfg["solution"]["path"])
    sol.write_text(serialize.dumps(serialize.seq_to_doc(_full_pulse(sh_toy, 0.05))))
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "I/O or configuration error: u[(-3,)] = [" in err and "] but u[(3,)] = [" in err
    assert not Path(cfg["output"]).exists()


def test_cli_newton_output_goes_on_to_certify_in_full_storage(tmp_path, sh_toy, capsys):
    # newton keeps its full-storage iterates exactly even, so it takes a seed
    # that is not even and its output passes the check certify makes.  The
    # window stays above the translation eigenvalue 0 that full storage adds
    path, cfg = _toy_config(tmp_path, sh_toy, mode="newton", sector="full",
                            output=str(tmp_path / "u1.json"))
    Path(cfg["solution"]["path"]).write_text(
        serialize.dumps(serialize.seq_to_doc(_full_pulse(sh_toy, 1e-3))))
    assert main(["--config", str(path)]) == 0
    u1 = serialize.seq_from_doc(json.loads((tmp_path / "u1.json").read_text()))
    assert (u1.lo[::-1] == u1.lo).all() and (u1.hi[::-1] == u1.hi).all()
    path, _ = _toy_config(tmp_path, sh_toy, sector="full", window=[0.5, 4.0],
                          solution={"path": str(tmp_path / "u1.json")})
    assert main(["--config", str(path)]) == 0
    assert "no eigenvalues of the linearization at the true state in [0.5, 4.0]" \
        in capsys.readouterr().out


def test_certify_refuses_a_full_state_that_is_not_even_before_any_work(sh_toy, monkeypatch):
    # kernel_from_state makes the check before its first convolution, so
    # every path to gershgorin_disks passes it
    def unreachable(*args, **kwargs):
        raise AssertionError("the finite stage ran")

    monkeypatch.setattr(finite, "conv", unreachable)
    monkeypatch.setattr(pipeline, "assemble_jacobian", unreachable)
    with pytest.raises(InvalidParameter, match=r"u\[\(-3,\)\] = .* but u\[\(3,\)\] = "):
        certify(_toy_model(), _full_pulse(sh_toy, 0.05), 1e-8, sh_toy["N"])


def test_seq_csv_loader(tmp_path):
    grid = Grid(1, 10.0)
    p = tmp_path / "u.csv"
    p.write_text("0,1.5\n1,-0.25\n2,0.125\n")
    u = serialize.load_seq_csv(str(p), grid, "c", 2)
    assert u.lo[0] == 1.5 and u.hi[1] == -0.25 and u.lo[2] == 0.125
    # an index outside the support is refused, not wrapped around
    for sector, row in (("c", "3,1.0"), ("c", "-1,1.0"), ("full", "-3,1.0")):
        p.write_text(f"0,1.5\n{row}\n")
        with pytest.raises(InvalidParameter, match="outside"):
            serialize.load_seq_csv(str(p), grid, sector, 2)


def test_dumps_sorted_and_stable():
    doc = {"b": serialize.enc_float(1.0), "a": [1, 2]}
    s1 = serialize.dumps(doc)
    s2 = serialize.dumps({"a": [1, 2], "b": serialize.enc_float(1.0)})
    assert s1 == s2
    assert s1.index('"a"') < s1.index('"b"')


# -- theorem consistency over randomized truncations ----------------------

def test_truncation_eigenvalues_in_disks_with_counts():
    grid = Grid(1, 10.0)
    rng = np.random.default_rng(2024)
    for trial in range(50):
        mu = float(rng.uniform(0.3, 2.0))
        model = sh_model(mu, -1.0, 1.0, m=1)
        S = int(rng.integers(2, 5))
        w = FourierSeq.from_point(grid, "c",
                                  rng.standard_normal(S + 1) * 0.3)
        n_inner = int(rng.integers(6, 12))
        a = assemble_jacobian(model, w, "c", n_inner)
        idx = index_list(grid, "c", n_inner)
        pseudo = build_pseudo_diag(a, idx, True)
        disks = gershgorin_disks(model, w, "c", n_inner, pseudo, a)
        big = assemble_jacobian(model, w, "c", disks.n_mid).mid()
        eig = np.linalg.eigvalsh(0.5 * (big + big.T))
        for ev in eig:
            assert any(c.re.lo - r <= ev <= c.re.hi + r
                       for c, r in zip(disks.centers, disks.radii)), \
                (trial, ev)
        for cl in cluster_disks(disks):
            inside = np.sum((eig >= cl.lo) & (eig <= cl.hi))
            assert inside == cl.count, (trial, cl.lo, cl.hi)


# -- command line driver --------------------------------------------------

def _toy_config(tmp_path, sh_toy, **extra):
    sol = tmp_path / "u0.json"
    sol.write_text(serialize.dumps(serialize.seq_to_doc(sh_toy["u0"])))
    cfg = {
        "mode": "certify",
        "model": {"name": "swift-hohenberg", "m": 1,
                  "params": {"mu": 1.5, "nu1": -3.2, "nu2": 1.0}},
        "grid": {"m": 1, "d": 20.0},
        "sector": "c",
        "N": 32,
        "r0": 1e-8,
        "solution": {"path": str(sol)},
        "output": str(tmp_path / "cert.json"),
    }
    cfg.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_cli_certify_and_determinism(tmp_path, sh_toy, capsys):
    path, cfg = _toy_config(tmp_path, sh_toy)
    assert main(["--config", str(path)]) == 0
    first = (tmp_path / "cert.json").read_text()
    doc = json.loads(first)
    assert doc["kind"] == "certificate"
    assert doc["verdict"]["stability"] == "stable"
    assert main(["--config", str(path)]) == 0
    assert (tmp_path / "cert.json").read_text() == first
    out = capsys.readouterr().out
    assert "stability: stable" in out


def test_certify_reuses_the_finite_stage_blocks(tmp_path, sh_toy, monkeypatch):
    # the homotopy stage reads the coupling blocks and the symbol values off
    # the DiskSet, so it builds none itself and the certificate keeps its bytes
    path, _ = _toy_config(tmp_path, sh_toy)
    assert main(["--config", str(path)]) == 0
    want = (tmp_path / "cert.json").read_bytes()

    def refuse(*args):
        raise AssertionError("the homotopy stage rebuilt a finite-stage quantity")

    monkeypatch.setattr(homotopy, "conv_block", refuse)
    monkeypatch.setattr(homotopy, "symbol_diag", refuse)
    assert main(["--config", str(path)]) == 0
    assert (tmp_path / "cert.json").read_bytes() == want


def test_cli_gershgorin_with_plot(tmp_path, sh_toy):
    path, cfg = _toy_config(tmp_path, sh_toy, mode="gershgorin-only",
                            output=str(tmp_path / "disks.json"))
    plot = tmp_path / "plot.csv"
    assert main(["--config", str(path), "--emit-plot-data", str(plot)]) == 0
    doc = json.loads((tmp_path / "disks.json").read_text())
    assert doc["kind"] == "disk-set"
    lines = plot.read_text().strip().splitlines()
    assert lines[0] == "sector,center_re,center_im,radius"
    assert len(lines) == len(doc["disks"]) + 1
    # each row is sector,float,float,float, its radius the JSON radius's bits
    for line, disk in zip(lines[1:], doc["disks"]):
        sector, re, im, radius = line.split(",")
        assert sector == "c" and math.isfinite(float(re)) and float(im) == 0.0
        assert radius == repr(serialize.dec_float(disk["radius"]))


def test_cli_exit_codes(tmp_path, sh_toy, capsys):
    # missing config file
    assert main(["--config", str(tmp_path / "absent.json")]) == 2
    # malformed config: missing keys
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "certify"}))
    assert main(["--config", str(bad)]) == 2
    # failed inequality
    path, _ = _toy_config(tmp_path, sh_toy, r0=1e3)
    assert main(["--config", str(path)]) == 3
    # an unknown model is a configuration error
    path2, _ = _toy_config(tmp_path, sh_toy,
                           model={"name": "unknown", "params": {}})
    assert main(["--config", str(path2)]) == 2
    assert "'unknown'" in capsys.readouterr().err


def test_cli_shift_on_a_disk_is_rejected_exits_3(tmp_path, sh_toy, capsys):
    # -t at the midpoint of a pseudo-diagonal entry: (lam + t)^{-1} cannot
    # be enclosed, so the only shift of the ladder is rejected
    t = -sh_toy["pseudo"].lams.elements()[0].mid()
    path, _ = _toy_config(tmp_path, sh_toy, t=t)
    assert main(["--config", str(path)]) == 3
    assert f"shift t = {t!r}" in capsys.readouterr().err


def test_cli_verified_inverse_abort_exits_4(tmp_path, sh_toy, monkeypatch,
                                            capsys):
    def refuse(a):
        raise SingularityUnverified("residual bound not below one")

    monkeypatch.setattr(finite, "verified_inverse", refuse)
    path, _ = _toy_config(tmp_path, sh_toy)
    assert main(["--config", str(path)]) == 4
    assert "verification abort" in capsys.readouterr().err


def test_cli_cluster_crossing_the_window_exits_5(tmp_path, sh_toy, capsys):
    # the window's lower end cuts through the inflated cluster that reaches
    # from the stable spectrum up past 0, so it can be counted on neither side
    path, _ = _toy_config(tmp_path, sh_toy, window=[-0.5, 3.6])
    assert main(["--config", str(path)]) == 5
    assert "crosses the window boundary" in capsys.readouterr().err


def test_cli_nan_disk_radius_exits_5(tmp_path, sh_toy, monkeypatch, capsys):
    # a NaN radius must not leave its disk out of the clusters it meets
    real = pipeline.gershgorin_disks

    def nan_radius(*args):
        disks = real(*args)
        disks.radii[0] = math.nan
        return disks

    monkeypatch.setattr(pipeline, "gershgorin_disks", nan_radius)
    path, _ = _toy_config(tmp_path, sh_toy)
    assert main(["--config", str(path)]) == 5
    assert "NaN or infinite radius" in capsys.readouterr().err


SH_PARAMS_NO_MU = {"name": "swift-hohenberg", "m": 1,
                   "params": {"nu1": -3.2, "nu2": 1.0}}


@pytest.mark.parametrize("key, extra", [
    pytest.param("N", {"N": "abc"}, id="N-abc"),
    pytest.param("window", {"window": [-0.01, 1, 2]}, id="window-three"),
    pytest.param("window", {"window": [2.0, -0.01]}, id="window-reversed"),
    pytest.param("t", {"t": "abc"}, id="t-abc"),
    pytest.param("q_mul", {"q_mul": 3.0}, id="typo-key"),
    pytest.param("q_mult", {"q_mult": 2.0}, id="removed-q-mult"),
    pytest.param("grid", {"grid": {"m": 1, "d": 10.0}}, id="grid-not-solution"),
    pytest.param("sector", {"sector": "cc"}, id="sector-for-2d"),
    pytest.param("two_pass", {"two_pass": "false"}, id="removed-two-pass"),
    pytest.param("k_inv", {"k_inv": 1.7}, id="k_inv-fraction"),
    pytest.param("N", {"N": -1}, id="N-negative"),
    pytest.param("mode", {"mode": "verify"}, id="unknown-mode"),
    pytest.param("r0", {"r0": -1e-8}, id="r0-negative"),
    pytest.param("model.params.mu", {"model": SH_PARAMS_NO_MU}, id="model-param-missing"),
])
def test_cli_malformed_config_exits_2(tmp_path, sh_toy, monkeypatch, capsys,
                                      key, extra):
    def unreachable(*args, **kwargs):
        raise AssertionError("the finite stage ran")

    monkeypatch.setattr(pipeline, "kernel_from_state", unreachable)
    path, _ = _toy_config(tmp_path, sh_toy, **extra)
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    if key == "grid":
        # both grids are named: the configured one and the solution's
        assert "d=10.0" in err and "d=20.0" in err


@pytest.mark.parametrize("mode", ["newton", "gershgorin-only", "certify"])
def test_cli_two_component_model_refused_before_the_state(tmp_path, monkeypatch,
                                                          capsys, mode):
    def unreachable(*args, **kwargs):
        raise AssertionError("the state was read")

    monkeypatch.setattr(cli, "load_solution", unreachable)
    cfg = {"mode": mode,
           "model": {"name": "gray-scott", "m": 2,
                     "params": {"lambda1": 1.0, "lambda2": 2.0}},
           "grid": {"m": 2, "d": 10.0}, "sector": "cc", "N": 4, "r0": 1e-8,
           "solution": {"path": str(tmp_path / "u0.json")},
           "output": str(tmp_path / "out.json")}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'gray-scott'" in err and repr(mode) in err


@pytest.mark.parametrize("sector, m", [("s", 1), ("cs", 2)])
@pytest.mark.parametrize("mode", ["newton", "gershgorin-only", "certify"])
def test_cli_odd_sector_refused_before_the_state(tmp_path, capsys, mode,
                                                 sector, m):
    # the solution file does not exist, so exit 2 for it would name the file
    cfg = {"mode": mode,
           "model": {"name": "swift-hohenberg", "m": m,
                     "params": {"mu": 1.5, "nu1": -3.2, "nu2": 1.0}},
           "grid": {"m": m, "d": 10.0}, "sector": sector, "N": 4, "r0": 1e-8,
           "solution": {"path": str(tmp_path / "missing.json")},
           "output": str(tmp_path / "out.json")}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"sector = {sector!r}: expected full or {'c' * m} for grid.m = {m}" in err
    assert "missing.json" not in err and "Traceback" not in err


def test_1d_cli_run_leaves_scipy_signal_unloaded(tmp_path):
    # scipy.signal was most of the CLI's import time; only N-D convolutions use it
    sol = tmp_path / "u0.csv"
    sol.write_text("0,0.3\n1,0.2\n2,0.1\n")
    cfg = {"mode": "gershgorin-only",
           "model": {"name": "swift-hohenberg", "m": 1,
                     "params": {"mu": 1.5, "nu1": -3.2, "nu2": 1.0}},
           "grid": {"m": 1, "d": 10.0}, "sector": "c", "N": 8,
           "solution": {"csv": str(sol), "S": 2},
           "output": str(tmp_path / "out.json")}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code = ("import sys\nimport speccert.cli\n"
            "print('scipy.signal' in sys.modules)\n"
            f"print(speccert.cli.main(['--config', {str(path)!r}]))\n"
            "print('scipy.signal' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-3:] == ["False", "0", "False"]
    assert (tmp_path / "out.json").exists()


@pytest.mark.filterwarnings("error")
def test_cli_overflowing_kernel_exits_5(tmp_path, capsys):
    # the kernel of three cosine coefficients 1e160 passes the double range
    sol = tmp_path / "u0.csv"
    sol.write_text("0,1e160\n1,1e160\n2,1e160\n")
    cfg = {"mode": "gershgorin-only",
           "model": {"name": "swift-hohenberg", "m": 1,
                     "params": {"mu": 1.5, "nu1": -3.2, "nu2": 1.0}},
           "grid": {"m": 1, "d": 10.0}, "sector": "c", "N": 4,
           "solution": {"csv": str(sol), "S": 2},
           "output": str(tmp_path / "out.json")}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path)]) == 5
    err = capsys.readouterr().err
    assert "overflows" in err and "Warning" not in err
    assert not (tmp_path / "out.json").exists()


def _bench_tracing(monkeypatch):
    """bench/tracing.py, loaded by file path."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_wrapped_names_resolve_and_calls_bind(monkeypatch):
    # every name bench/tracing.py wraps is a callable of speccert, and the
    # benchmark's positional calls into the finite stage still bind
    tracing = _bench_tracing(monkeypatch)
    for path, attr, _, _ in tracing.WRAPS:
        assert path.split(".")[0] == "speccert", path
        owner = tracing._resolve(path)
        fn = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        assert callable(fn), f"{path}.{attr}"
    x = object()
    inspect.signature(finite.build_pseudo_diag).bind(x, x, x)
    inspect.signature(finite.gershgorin_disks).bind(x, x, x, x, x, x)


def test_bench_traced_names_exist(tmp_path, sh_toy, monkeypatch, capsys):
    # bench/tracing.py wraps each name of its WRAPS list, and a traced
    # certify must reach every layer it reports; a refactor that drops a
    # name or a traced call must fail here, not at the next traced
    # benchmark run
    tracing = _bench_tracing(monkeypatch)
    path, _ = _toy_config(tmp_path, sh_toy)
    with tracing.Tracer() as tracer:
        assert cli.main(["--config", str(path)]) == 0
    assert main is cli.main
    assert tracing.missing_coverage("sh1d-certify", tracer.metrics(1)) == []


def test_cli_whitham_decay_table_rows(tmp_path, monkeypatch, capsys):
    # Whitham takes no decay table: a configuration carrying one exits 2
    # naming the parameters; without it certify exits 5 naming the decay
    # provider the model lacks, both before the finite stage
    def unreachable(*args, **kwargs):
        raise AssertionError("the finite stage ran")

    monkeypatch.setattr(pipeline, "kernel_from_state", unreachable)
    grid = Grid(1, 20.0)
    sol = tmp_path / "u0.json"
    u0 = FourierSeq.from_point(grid, "c", 0.05 * np.exp(-0.3 * np.arange(17)))
    sol.write_text(serialize.dumps(serialize.seq_to_doc(u0)))
    path = tmp_path / "run.json"
    table = {"decay_table": [[-10.0, 10.0, 2.0, 0.5]]}
    for extra, code, named in ((table, 2, "model.params"),
                               ({}, 5, "decay_provider")):
        cfg = {"mode": "certify",
               "model": {"name": "whitham", "m": 1,
                         "params": {"T": 0.5, "c": 0.8, **extra}},
               "grid": {"m": 1, "d": 20.0}, "sector": "c", "N": 16, "r0": 1e-8,
               "solution": {"path": str(sol)},
               "output": str(tmp_path / "cert.json")}
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path)]) == code
        assert named in capsys.readouterr().err


def test_cli_essential_mode(tmp_path):
    cfg = {
        "mode": "essential-spectrum",
        "model": {"name": "whitham", "m": 1,
                  "params": {"T": 0.5, "c": 0.8}},
        "output": str(tmp_path / "ess.json"),
    }
    p = tmp_path / "run.json"
    p.write_text(json.dumps(cfg))
    assert main(["--config", str(p)]) == 0
    doc = json.loads((tmp_path / "ess.json").read_text())
    ray = doc["rays"][0]
    assert ray["hi"] is None
    lo = _dec_interval(ray["lo"])
    assert abs(lo.mid() - 0.2) <= 1e-12 and lo.width() <= 1e-12
