"""pdcfield benchmark: one workload, untraced (end-to-end metrics) or
traced (per-layer metrics).

    python3 bench/run.py --workload ccd-fit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout of the repository.  The last line of
standard output is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is the full report, which is
also written to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 5

END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (metric, unit).  "_s" is self time per operation (set-up spans counted
# once); ".calls" is calls per operation (set-up calls counted once).
PER_LAYER = (
    ("config.load_config_file_s", "s"),
    ("config.with_overrides_s", "s"),
    ("config.with_overrides.calls", "count"),
    ("kernels.FieldKernels_s", "s"),
    ("kernels.FieldKernels.calls", "count"),
    ("kernels.thin_crystal_uv_s", "s"),
    ("kernels.thin_crystal_uv.calls", "count"),
    ("stimulated.stimulated_intensity_s", "s"),
    ("stimulated.stimulated_intensity.calls", "count"),
    ("stimulated.mpix_per_s", "Mpix/s"),
    ("stimulated.zeta_orders_s", "s"),
    ("background.background_intensity_s", "s"),
    ("background.background_intensity.calls", "count"),
    ("fitting.fit_parameters_s", "s"),
    ("fitting.ForwardModel.intensity.calls", "count"),
    ("fitting.iterations", "count"),
    ("fitting.evals_per_iteration", "ratio"),
    ("fitting.synthesize_image_s", "s"),
    ("plotio.write_csv_s", "s"),
    ("plotio.read_csv_s", "s"),
    ("cli.cmd_image_s", "s"),
    ("cli.cmd_fit_s", "s"),
    ("oracle.GridOperators_s", "s"),
    ("oracle.square_grid_blocks_s", "s"),
    ("oracle.GridWorkspace_s", "s"),
    ("oracle.solve_UV_ode_s", "s"),
    ("oracle.rk4_gflops", "GFLOP/s"),
    ("oracle.rk4_roofline_frac", "ratio"),
    ("oracle.series_UV_s", "s"),
    ("oracle.oracle_zeta2_s", "s"),
    ("oracle.oracle_zeta2.calls", "count"),
    ("oracle.oracle_background_s", "s"),
    ("oracle.oracle_background.calls", "count"),
    ("oracle.hyperbolic_s", "s"),
) + tuple((f"validate.{check}_s", "s") for check in (
    "check_spectrum_normalization", "check_prefactor_identity",
    "check_mismatch_symmetry", "check_kernel_magnitude", "check_pair_contraction",
    "check_diamond_algebra", "check_bogoliubov_constraint", "check_series_vs_ode",
    "check_hyperbolic_sums", "check_squeezed_kernels", "check_uv_product_symmetry",
    "check_zeta_orders_consistency", "check_idler_tca", "check_background_tca",
    "check_efficiency", "check_background_crossover",
)) + (
    ("machine.zgemm_gflops", "GFLOP/s"),
    # computed counts: they repeat exactly and involve no clock
    ("plotio.csv_bytes", "B"),
    ("stimulated.pixels_per_eval", "count"),
    ("fitting.evals_per_fit", "count"),
    ("kernels.FieldKernels_per_fit", "count"),
    ("oracle.rk4_gflop_per_step", "GFLOP"),
    ("oracle.taylor_order", "count"),
    # the workload's own figures, from the run's untraced operations, with
    # accuracy beside the times (0 where the workload has no such figure)
    ("image_s", "s"),
    ("fit_s", "s"),
    ("photons_rel_err", "ratio"),
    ("squeezing_abs_err", "1"),
    ("depth_s", "s"),
    ("constraint_defect", "1"),
    ("series_defect", "1"),
    ("validate_s", "s"),
    ("validate_margin", "ratio"),
    ("failed_frac", "ratio"),
    # the tracer itself
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
)


def _limit_blas_threads():
    """Use at most nproc BLAS threads; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        wanted = nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(wanted, nproc)))


def _child_import_s() -> float:
    """Seconds a fresh interpreter spends importing pdcfield."""
    code = ("import time; t = time.perf_counter(); import pdcfield; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _timing(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"value": statistics.median(values), "max": max(values), "n": n}
    if n >= 11:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def _run_ops(wl, seconds: float, runners) -> list[dict]:
    """Closed loop: whole operations, cycling through ``runners``, while the
    next one (predicted by the median so far) still fits in ``seconds``."""
    records = []
    start = time.perf_counter()
    k = 0
    while True:
        kind, runner = runners[k % len(runners)]
        t0 = time.perf_counter()
        try:
            raw = runner(k)
            op_s = time.perf_counter() - t0
            rec = wl.check(raw)
            del raw
        except Exception as exc:  # a failed operation is counted, never skipped
            op_s = time.perf_counter() - t0
            rec = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        rec.update(kind=kind, k=k, op_s=op_s)
        for part in wl.parts:
            rec.setdefault(part, op_s)
        records.append(rec)
        k += 1
        elapsed = time.perf_counter() - start
        predicted = statistics.median(r["op_s"] for r in records)
        if k >= len(runners) and elapsed + predicted > seconds:
            return records


def _layer_metrics(tracer, n_ops: int, zgemm: float, computed: dict, figures: dict,
                   overhead: float) -> dict:
    agg = defaultdict(lambda: {"self": 0.0, "total": 0.0, "calls": 0.0, "count": 0.0})
    in_fit = defaultdict(float)
    flops = rk4_self = 0.0
    root_self = root_total = 0.0
    for i, (span, self_s) in enumerate(zip(tracer.spans, tracer.self_times())):
        w = 1.0 if span.op == "setup" else 1.0 / n_ops
        a = agg[span.name]
        a["self"] += w * self_s
        a["total"] += w * (span.end - span.start)
        a["calls"] += w
        a["count"] += w * span.count
        if tracer.has_ancestor(i, "fitting.fit_parameters"):
            in_fit[span.name] += w
        if span.name == "oracle.solve_UV_ode":
            flops += span.count
            rk4_self += self_s
        if span.name == "op":
            root_self += self_s
            root_total += span.end - span.start

    def ratio(num, den):
        return num / den if den else 0.0

    fits = agg["fitting.fit_parameters"]["calls"]
    stim = agg["stimulated.stimulated_intensity"]
    m = {}
    for name, unit in PER_LAYER:
        if name.endswith(".calls"):
            m[name] = agg[name[:-len(".calls")]]["calls"]
        elif name.endswith("_s") and name != "oracle.hyperbolic_s":
            m[name] = agg[name[:-2]]["self"]
    m["oracle.hyperbolic_s"] = (agg["oracle.hyperbolic_matrix_uv"]["self"]
                                + agg["oracle.hyperbolic_uv_subblock"]["self"])
    m["stimulated.mpix_per_s"] = ratio(stim["count"], stim["total"]) / 1e6
    m["fitting.iterations"] = agg["fitting.fit_parameters"]["count"]
    m["fitting.evals_per_iteration"] = ratio(in_fit["fitting.ForwardModel.intensity"],
                                             m["fitting.iterations"])
    m["oracle.rk4_gflops"] = ratio(flops, rk4_self) / 1e9
    m["oracle.rk4_roofline_frac"] = m["oracle.rk4_gflops"] / zgemm
    m["machine.zgemm_gflops"] = zgemm
    m["plotio.csv_bytes"] = agg["plotio.write_csv"]["count"]
    m["stimulated.pixels_per_eval"] = ratio(stim["count"], stim["calls"])
    m["fitting.evals_per_fit"] = ratio(in_fit["fitting.ForwardModel.intensity"], fits)
    m["kernels.FieldKernels_per_fit"] = ratio(in_fit["kernels.FieldKernels"], fits)
    m["oracle.rk4_gflop_per_step"] = computed.get("rk4_flop_per_step", 0) / 1e9
    m["oracle.taylor_order"] = computed.get("taylor_order") or 0
    for name in ("image_s", "fit_s", "photons_rel_err", "squeezing_abs_err", "depth_s",
                 "constraint_defect", "series_defect", "validate_s", "validate_margin",
                 "failed_frac"):
        m[name] = figures.get(name, {}).get("value", 0.0)
    m["trace.overhead_frac"] = overhead
    m["trace.attributed_frac"] = 1.0 - ratio(root_self, root_total)
    return {name: {"value": float(m[name]), "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ccd-fit", "depth-17", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the measured operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="64x64 frame and 9x9x9 grid, for the self-test")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "pdcfield" / "__init__.py", ROOT / "configs" / "combined.cfg"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a checkout "
                  "of the pdcfield repository", file=sys.stderr)
            return 2

    _limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import machine
    import tracer as tracing
    from workloads import WORKLOADS

    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / ".work"))
    try:
        wl = WORKLOADS[args.workload](ROOT, work, args.seed % 2**32, args.toy)
        report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "toy": args.toy}
        tracer = tracing.Tracer()
        if args.trace:
            with tracer.patched():
                wl.setup()

            def traced_run(k):
                with tracer.patched():
                    return tracer.root(k, lambda: wl.run(k))

            runners = [("untraced", wl.run), ("traced", traced_run)]
        else:
            samples = []
            for _ in range(SETUP_REPS):
                import_s = _child_import_s()
                t0 = time.perf_counter()
                wl.setup()
                samples.append(import_s + time.perf_counter() - t0)
            setup = {"unit": "s"} | _timing(samples) | {"samples": samples}
            runners = [("untraced", wl.run)]

        records = _run_ops(wl, args.seconds, runners)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        host = machine.machine_block()
        good = [r for r in records if "error" not in r]
        accuracy = wl.accuracy(good) if good else {}
        computed = wl.computed(good) if good else {}
        failed = sum(not r["ok"] for r in records)

        def op_times(kind):
            return [r["op_s"] for r in records if r["kind"] == kind]

        workload_metrics = {
            part: {"unit": "s"} | _timing([r[part] for r in records if r["kind"] == "untraced"])
            for part in wl.parts
        }
        workload_metrics |= accuracy
        if not args.trace:
            workload_metrics["setup_s"] = setup
        workload_metrics["failed_frac"] = {"value": failed / len(records), "unit": "ratio"}
        workload_metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        report.update(machine=host, computed=computed, workload_metrics=workload_metrics,
                      records=records)

        if args.trace:
            untraced = statistics.median(op_times("untraced"))
            traced = statistics.median(op_times("traced"))
            overhead = (traced - untraced) / untraced
            report["tracing_overhead"] = {"untraced_op_s": untraced, "traced_op_s": traced,
                                          "overhead_frac": overhead}
            metrics = _layer_metrics(tracer, len(op_times("traced")), host["zgemm_gflops"],
                                     computed, workload_metrics, overhead)
            report["spans"] = tracer.dump()
        else:
            values = {"op_s": statistics.median(op_times("untraced")),
                      "setup_s": setup["value"], "peak_rss_mb": peak_rss_mb}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
                  "metrics": metrics}
        report["result"] = result

        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        path = out / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")
        report.pop("spans", None)
        print(json.dumps(report, default=str))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
