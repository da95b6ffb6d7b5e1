"""Layer timing from outside the program.

A traced run replaces selected functions of `speccert` by thin wrappers
that record a span (label, start, end, parent) or bump a counter, then
puts the originals back.  Several modules bind functions by name at import
(`from .finite import cluster_disks`), so each name is wrapped in the
module that looks it up.  Spans are kept in memory and written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass

# (object path, attribute, label, kind).  kind "span" records a timed span;
# kind "count" only counts calls, for methods called too often to time.
WRAPS = [
    ("speccert.cli", "main", "cli.main", "span"),
    ("speccert.cli", "load_solution", "cli.load", "span"),
    ("speccert.cli", "certify", "pipeline.certify", "span"),
    ("speccert.pipeline", "compute_bounds", "homotopy.bounds", "span"),
    ("speccert.pipeline", "inflate_disks", "homotopy.inflate", "span"),
    ("speccert.homotopy", "zu_base_bounds", "homotopy.zu", "span"),
    ("speccert.homotopy", "window_dist_inf", "homotopy.window_dist", "span"),
    ("speccert.models", "rigorous_L2_of_reciprocal", "models.kappa", "span"),
    ("speccert.models.Model", "symbol_at", "models.symbol_at", "count"),
    ("speccert.radial", "bb_inf", "radial.bb_inf", "span"),
    ("speccert.models", "integrate_radial", "radial.integrate", "span"),
    ("speccert.homotopy", "radial_inf", "radial.radial_inf", "span"),
    ("speccert.models", "radial_inf", "radial.radial_inf", "span"),
    ("speccert.pipeline", "kernel_from_state", "finite.kernel", "span"),
    ("speccert.finite", "kernel_from_state", "finite.kernel", "span"),
    ("speccert.pipeline", "assemble_jacobian", "finite.assemble", "span"),
    ("speccert.finite", "assemble_jacobian", "finite.assemble", "span"),
    ("speccert.finite", "conv_block", "finite.conv_block", "span"),
    ("speccert.homotopy", "conv_block", "finite.conv_block", "span"),
    ("speccert.finite", "symbol_diag", "finite.symbol_diag", "span"),
    ("speccert.homotopy", "symbol_diag", "finite.symbol_diag", "span"),
    ("speccert.pipeline", "build_pseudo_diag", "finite.pseudo_diag", "span"),
    ("speccert.finite", "build_pseudo_diag", "finite.pseudo_diag", "span"),
    ("speccert.pipeline", "gershgorin_disks", "finite.disks", "span"),
    ("speccert.finite", "gershgorin_disks", "finite.disks", "span"),
    ("speccert.pipeline", "cluster_disks", "finite.cluster", "span"),
    ("speccert.finite", "cluster_disks", "finite.cluster", "span"),
    ("speccert.imatrix.IMatrix", "__matmul__", "imatrix.matmul", "span"),
    ("speccert.finite", "verified_inverse", "imatrix.inverse", "span"),
    ("speccert.imatrix", "op_norm2_bound", "imatrix.norm", "span"),
    ("speccert.finite", "op_norm2_bound", "imatrix.norm", "span"),
    ("speccert.homotopy", "op_norm2_bound", "imatrix.norm", "span"),
    ("speccert.interval.ComplexBox", "mig", "interval.mig", "count"),
    ("speccert.finite", "conv", "fourier.conv", "span"),
    ("speccert.homotopy", "conv", "fourier.conv", "span"),
    ("speccert.serialize", "certificate_to_doc", "serialize.encode", "span"),
    ("speccert.serialize", "dumps", "serialize.encode", "span"),
]

CERTIFY = ("sh1d-certify",)
ALL = ("sh1d-certify", "sh2d-disks", "sh1d-family")


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric, as a value per operation of the traced pass.

    how: "time" (wall time inside the label, outermost spans only),
    "self" (span time minus the time of its child spans), "calls" (spans
    or counted calls) or "counter" (a quantity added up by a wrapper).
    where: the workloads whose traced run must report it as nonzero.
    """

    name: str
    how: str
    label: str
    where: tuple


LAYER_METRICS = [
    LayerMetric("cli.main_s", "time", "cli.main", CERTIFY),
    LayerMetric("cli.load_s", "time", "cli.load", CERTIFY),
    LayerMetric("pipeline.certify_s", "time", "pipeline.certify", CERTIFY),
    LayerMetric("pipeline.certify_self_s", "self", "pipeline.certify", CERTIFY),
    LayerMetric("pipeline.shifts", "calls", "homotopy.bounds", CERTIFY),
    LayerMetric("homotopy.bounds_s", "time", "homotopy.bounds", CERTIFY),
    LayerMetric("homotopy.bounds_self_s", "self", "homotopy.bounds", CERTIFY),
    LayerMetric("homotopy.zu_s", "time", "homotopy.zu", CERTIFY),
    LayerMetric("homotopy.window_dist_s", "time", "homotopy.window_dist", CERTIFY),
    LayerMetric("homotopy.inflate_s", "time", "homotopy.inflate", CERTIFY),
    LayerMetric("models.kappa_s", "time", "models.kappa", CERTIFY),
    LayerMetric("models.kappa_calls", "calls", "models.kappa", CERTIFY),
    LayerMetric("models.symbol_evals", "calls", "models.symbol_at", ALL),
    LayerMetric("radial.bb_inf_s", "time", "radial.bb_inf", CERTIFY),
    LayerMetric("radial.bb_inf_calls", "calls", "radial.bb_inf", CERTIFY),
    LayerMetric("radial.integrate_s", "time", "radial.integrate", CERTIFY),
    LayerMetric("radial.integrate_calls", "calls", "radial.integrate", CERTIFY),
    LayerMetric("radial.radial_inf_s", "time", "radial.radial_inf", CERTIFY),
    LayerMetric("finite.kernel_s", "time", "finite.kernel", ("sh1d-certify", "sh2d-disks")),
    LayerMetric("finite.assemble_s", "time", "finite.assemble", ALL),
    LayerMetric("finite.conv_block_s", "time", "finite.conv_block", ALL),
    LayerMetric("finite.symbol_diag_s", "time", "finite.symbol_diag", ALL),
    LayerMetric("finite.pseudo_diag_s", "time", "finite.pseudo_diag", ALL),
    LayerMetric("finite.disks_s", "time", "finite.disks", ALL),
    LayerMetric("finite.disks_self_s", "self", "finite.disks", ALL),
    LayerMetric("finite.cluster_s", "time", "finite.cluster", ALL),
    LayerMetric("finite.disks", "counter", "finite.disk_count", ALL),
    LayerMetric("imatrix.matmul_s", "time", "imatrix.matmul", ALL),
    LayerMetric("imatrix.matmul_calls", "calls", "imatrix.matmul", ALL),
    LayerMetric("imatrix.matmul_gflop", "counter", "imatrix.gflop", ALL),
    LayerMetric("imatrix.inverse_s", "time", "imatrix.inverse", ALL),
    LayerMetric("imatrix.norm_s", "time", "imatrix.norm", ALL),
    LayerMetric("interval.mig_calls", "calls", "interval.mig", ALL),
    LayerMetric("fourier.conv_s", "time", "fourier.conv", ("sh1d-certify", "sh2d-disks")),
    LayerMetric("fourier.conv_calls", "calls", "fourier.conv", ("sh1d-certify", "sh2d-disks")),
    LayerMetric("serialize.encode_s", "time", "serialize.encode", CERTIFY),
    LayerMetric("serialize.bytes", "counter", "serialize.bytes", CERTIFY),
]

# The traced run also reports its own cost: traced pass minus untraced pass.
OVERHEAD_METRIC = "trace.overhead_s"

# An IMatrix product runs four real interval products of four BLAS
# matmuls each (midpoint, |A||B| and two radius terms), 2 m k n flop apiece.
_FLOP_PER_MKN = 4 * 4 * 2


def _resolve(path: str):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(mod), cls)


def _on_result(label: str, counts: Counter, args, out) -> None:
    if label == "imatrix.matmul":
        (m, k), n = args[0].shape, args[1].shape[1]
        counts["imatrix.gflop"] += _FLOP_PER_MKN * m * k * n / 1e9
    elif label == "finite.disks":
        counts["finite.disk_count"] += len(out.centers)
    elif label == "serialize.encode" and isinstance(out, str):
        counts["serialize.bytes"] += len(out.encode())


class Tracer:
    """Installs the wrappers, records spans and counts, restores on exit."""

    def __init__(self):
        self.spans = []          # [label, start, end, parent index or -1]
        self.calls = Counter()   # label -> calls of "count" wrappers
        self.counts = Counter()  # derived quantities (flop, disks, bytes)
        self._stack = []
        self._saved = []

    def _span(self, label, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            _on_result(label, counts, args, out)
            return out

        return wrapped

    def _count(self, label, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        return wrapped

    def __enter__(self):
        for path, attr, label, kind in WRAPS:
            owner = _resolve(path)
            fn = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if not callable(fn):
                self.__exit__(None, None, None)
                raise LookupError(
                    f"traced name {path}.{attr} does not exist; the layer "
                    "map in bench/tracing.py is out of date")
            self._saved.append((owner, attr, fn))
            make = self._span if kind == "span" else self._count
            setattr(owner, attr, make(label, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    # -- reduction -------------------------------------------------------

    def _totals(self):
        """Per label: outermost time, self time and span count."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for label, t0, t1, parent in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        outer, own, calls = Counter(), Counter(), Counter()
        for i, (label, t0, t1, parent) in enumerate(spans):
            calls[label] += 1
            own[label] += (t1 - t0) - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != label:
                p = spans[p][3]
            if p < 0:
                outer[label] += t1 - t0
        return outer, own, calls

    def metrics(self, n_ops: int) -> dict:
        outer, own, calls = self._totals()
        calls.update(self.calls)
        out = {}
        for lm in LAYER_METRICS:
            if lm.how == "time":
                v = outer[lm.label]
            elif lm.how == "self":
                v = own[lm.label]
            elif lm.how == "calls":
                v = calls[lm.label]
            else:
                v = self.counts[lm.label]
            out[lm.name] = v / n_ops
        return out

    def dump(self, path, meta: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta)
        doc["spans"] = [[lab, round(a - t0, 9), round(b - t0, 9), p]
                        for lab, a, b, p in self.spans]
        doc["calls"] = dict(self.calls)
        doc["counts"] = dict(self.counts)
        path.write_text(json.dumps(doc))


def missing_coverage(workload: str, values: dict) -> list:
    """Metrics this workload's traced run must produce but read 0."""
    return [lm.name for lm in LAYER_METRICS
            if workload in lm.where and not values.get(lm.name)]
