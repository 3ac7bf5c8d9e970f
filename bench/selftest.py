"""Self-test of the benchmark at toy size (64x64 frame, 9x9x9 grid).

    python3 bench/selftest.py

Runs every workload untraced and traced for one second and checks that
each run passes its correctness gate and prints every metric with the
unit BENCHMARK.json gives it, including the per-workload figures in the
report line.  Then checks that the benchmark refuses to run, without
printing a result, in a directory that holds only BENCHMARK.json and
the benchmark's files.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# figures each workload reports in its report line, with their units
FIGURES = {
    "ccd-fit": {"image_s": "s", "fit_s": "s", "photons_rel_err": "ratio",
                "squeezing_abs_err": "1"},
    "depth-17": {"depth_s": "s", "constraint_defect": "1", "series_defect": "1"},
    "validate": {"validate_s": "s", "validate_margin": "ratio"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}


def fail(message: str):
    print(f"FAIL: {message}")
    sys.exit(1)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((cwd / "BENCHMARK.json").read_text(encoding="utf-8"))
    return subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", "5", "--seconds", "1",
                           "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, unit in {**COMMON, **{k: v for f in FIGURES.values() for k, v in f.items()}}.items():
        if declared.get(name) != unit:
            fail(f"BENCHMARK.json lacks {name} [{unit}]")
    if [w["name"] for w in spec["workloads"]] != list(FIGURES):
        fail("BENCHMARK.json workloads differ from ccd-fit, depth-17, validate")

    for workload in FIGURES:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run(ROOT, workload, trace)
            if done.returncode != 0:
                fail(f"{workload} trace {trace} exited {done.returncode}:\n{done.stderr}")
            lines = done.stdout.strip().splitlines()
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace {trace}: correctness gate failed: {report['records']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            if got != want:
                fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(got) ^ set(want))}")
            figures = {**FIGURES[workload], **COMMON}
            if trace:
                del figures["setup_s"]  # set-up is timed by the untraced run only
            for name, unit in figures.items():
                entry = report["workload_metrics"].get(name)
                if entry is None or entry["unit"] != unit:
                    fail(f"{workload} trace {trace}: report lacks {name} [{unit}]")
            print(f"ok  {workload} trace {trace}: {result['attempted']} operations")

    (BENCH / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        done = run(bare, "ccd-fit", 0)
        if done.returncode == 0 or done.stdout.strip():
            fail("benchmark ran without the repository beside it")
        print("ok  refuses to run without the repository")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
