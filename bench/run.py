"""Stage-timed benchmark of speccert.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One workload runs per process, on one
thread.  The run sets itself up SETUP_REPEATS times (inputs, Newton
states, one warm-up operation), then repeats whole passes over the
workload's operations for about --seconds, then checks every output
against the oracle in bench/oracle.py.  End-to-end times are CPU seconds
scaled to a reference host speed by bench/hostspeed.py.  With --trace 1
it adds one pass with every layer wrapped (bench/tracing.py) and reports
per-layer metrics instead of the end-to-end ones.  The last line of standard output is the result as JSON.
Exit status 2 means the run could not start; no result is printed then.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
END_TO_END = ("setup_s", "op_s", "pass_s", "peak_rss_mb", "radius_p50")
# one BLAS thread: a second one mostly spins, and stalls whenever the host
# lends its core to another tenant
BLAS_THREADS = 1


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _blas_name() -> str:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def measure(ops, seconds: float, probe: hostspeed.Probe):
    """Whole passes, at least one; another pass starts only if, at the mean
    pass length so far, it ends within `seconds` of the start.  Times are
    CPU seconds outside the probe; the scale to reference CPU seconds
    comes from the probes taken during the passes."""
    passes = []          # (pass CPU seconds, [(op CPU seconds or None, outcome)])
    attempted = failed = 0
    since = probe.mark()
    t_start = time.perf_counter()
    while True:
        c_pass = probe.cpu()
        results = []
        for op in ops:
            attempted += 1
            c = probe.cpu()
            try:
                raw = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print(f"bench: operation failed: {exc!r}", file=sys.stderr)
                results.append((None, None))
                continue
            dt = probe.cpu() - c
            results.append((dt, op.collect(raw)))
        passes.append((probe.cpu() - c_pass, results))
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, attempted, failed, probe.scale(since)


def check(ops, passes, warm, oracle) -> list:
    """Oracle checks and their self-test on the first pass; identical
    digests on every later pass and for the warm-up operation."""
    errors = []
    first = passes[0][1]
    for i, (op, (_, outcome)) in enumerate(zip(ops, first)):
        if outcome is None:
            continue
        eig = oracle.eigenvalues(outcome.oracle_matrix())
        for name, errs in oracle.run_checks(outcome.enclosure, eig).items():
            errors += [f"op {i} {name}: {e}" for e in errs]
        errors += [f"op {i} self-test: {e}"
                   for e in oracle.self_test(outcome.enclosure, eig)]
        for k, (_, results) in enumerate(passes[1:], start=2):
            other = results[i][1]
            if other is not None and other.digest != outcome.digest:
                errors.append(f"op {i}: pass {k} digest differs from pass 1")
    warm_op, warm_outcome = warm
    for op, (_, outcome) in zip(ops, first):
        if op is warm_op and outcome is not None \
                and outcome.digest != warm_outcome.digest:
            errors.append("warm-up digest differs from pass 1")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # BLAS reads its thread count when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "speccert" / "__init__.py").is_file():
        return _fail(f"no program source under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(ROOT / "src"))

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        with hostspeed.Probe() as probe:
            import numpy as np
            import oracle
            import tracing
            import workloads

            import_s = probe.cpu()   # interpreter start-up and imports
            if args.workload not in workloads.WORKLOADS:
                return _fail(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
            layer_names = [m.name for m in tracing.LAYER_METRICS] \
                + [tracing.OVERHEAD_METRIC]
            if [m["name"] for m in spec["per_layer"]] != layer_names:
                return _fail("per_layer metrics of BENCHMARK.json differ from "
                             "bench/tracing.py")
            if sorted(m["name"] for m in spec["end_to_end"]) != sorted(END_TO_END):
                return _fail("end_to_end metrics of BENCHMARK.json differ "
                             "from bench/run.py")
            for lm in tracing.LAYER_METRICS:
                if not set(lm.where) <= set(workloads.WORKLOADS) or not lm.where:
                    return _fail(f"{lm.name}: no workload is expected to produce it")

            setups = []
            for _ in range(SETUP_REPEATS):
                c = probe.cpu()
                ops, warm = workloads.prepare(args.workload, args.seed, work)
                setups.append(probe.cpu() - c)
            setup_scale = probe.scale(0)
            setup_s = (import_s + statistics.median(setups)) * setup_scale

            passes, attempted, failed, scale = measure(ops, args.seconds, probe)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            probe_s = probe.probe_s(0)
            traced = []
            if args.trace:
                try:
                    with tracing.Tracer() as tracer:
                        traced, n, f, traced_scale = measure(ops, 0.0, probe)
                except LookupError as exc:
                    return _fail(str(exc))
                attempted += n
                failed += f
        if args.trace:
            layer = tracer.metrics(len(ops))
            layer[tracing.OVERHEAD_METRIC] = (
                traced[0][0] * traced_scale
                - statistics.median(p for p, _ in passes) * scale)
            missing = tracing.missing_coverage(args.workload, layer)
            if missing:
                return _fail(f"traced run reports 0 for {missing}; a traced "
                             "name no longer sits on the path it times")
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed})
            print(f"trace written to {trace_path.relative_to(ROOT)}")
        errors = check(ops, passes + traced, warm, oracle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # means over whole passes: a median would pick one operation size of
    # sh1d-family, which has only 2 or 3 samples in a run
    op_times = [dt for _, res in passes for dt, _ in res if dt is not None]
    radii = [o.enclosure.radius for _, o in passes[0][1] if o is not None]
    if not op_times or not radii:
        return _fail("no operation succeeded")
    end_to_end = {
        "setup_s": setup_s,
        "op_s": statistics.fmean(op_times) * scale,
        "pass_s": statistics.fmean(p for p, _ in passes) * scale,
        "peak_rss_mb": peak_rss_mb,
        "radius_p50": float(np.median(np.concatenate(radii))),
    }

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in chosen}

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es) "
          f"{'and 1 traced pass ' if args.trace else ''}"
          f"of {len(ops)} operation(s); BLAS {_blas_name()} with "
          f"{BLAS_THREADS} thread(s)")
    print("pass CPU times (s): " + " ".join(f"{p:.3f}" for p, _ in passes + traced))
    print(f"host speed probe: mean {probe_s * 1e3:.4f} ms over set-up and passes, "
          f"{hostspeed.REF_PROBE_S * 1e3:g} ms at reference speed; scale "
          f"{setup_scale:.4f} in set-up, {scale:.4f} in the passes")
    for i, (_, outcome) in enumerate(passes[0][1]):
        if outcome is not None:
            print(f"digest op {i}: {outcome.digest}")
    for e in errors:
        print(f"check failed: {e}")
    print(f"checks: {'passed' if not errors else f'{len(errors)} failed'}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
