"""The three benchmark workloads.

Each is a closed loop with one client: the next operation starts only
after the previous one has returned.  ``setup`` builds the reusable
state that is timed as set-up; ``run`` is one timed operation; ``check``
(untimed) tests its outputs against the acceptance gates and returns
the record of its parts' times and its accuracy figures.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
import time
from pathlib import Path

import numpy as np

# modules, not names: the traced run patches functions on their modules
from pdcfield import cli, config, kernels, oracle, validate

TRUE_PHOTONS = 4.0     # configs/combined.cfg: [seed] photons
TRUE_SQUEEZING = 1.0   # configs/combined.cfg: [crystal] squeezing
PHOTONS_GATE = 0.05    # acceptance criterion 8
CONSTRAINT_GATE = 1e-6 # acceptance criterion 1
SERIES_GATE = 1e-5     # acceptance criterion 1
VALIDATE_CHECKS = 16


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """``pdcfield <argv>`` in process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class CcdFit:
    """Synthesize a Poisson CCD frame with ``pdcfield image`` and recover
    (seed photons, squeezing) from its CSV with ``pdcfield fit``."""

    name = "ccd-fit"
    parts = ("image_s", "fit_s")

    def __init__(self, root: Path, work: Path, seed: int, toy: bool):
        self.config = str(root / "configs" / "combined.cfg")
        self.work = str(work)
        self.seed = seed
        self.pixels = 64 if toy else 512

    def setup(self):
        # each command reloads the file; parsing it here times that as set-up
        self.cfg = config.load_config_file(self.config)

    def frame_seed(self, k: int) -> int:
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def run(self, k: int) -> dict:
        for stale in ("image.csv", "fit.csv"):
            (Path(self.work) / stale).unlink(missing_ok=True)
        side = str(self.pixels)
        t0 = time.perf_counter()
        code_img, _ = _run_cli([
            "--outdir", self.work, "image", "--config", self.config, "--nx", side,
            "--ny", side, "--noise", "poisson", "--exposure", "40",
            "--seed", str(self.frame_seed(k)),
        ])
        t1 = time.perf_counter()
        code_fit, out = _run_cli([
            "--outdir", self.work, "fit", "--config", self.config,
            "--image", str(Path(self.work) / "image.csv"), "--exposure", "40",
            "--init", "seed_photons=3,squeezing=0.8",
        ])
        t2 = time.perf_counter()
        return {"image_s": t1 - t0, "fit_s": t2 - t1, "codes": (code_img, code_fit),
                "stdout": out}

    def check(self, raw: dict) -> dict:
        code_img, code_fit = raw["codes"]
        match = re.search(r"status: (\w+) after (\d+) iterations", raw["stdout"])
        with open(Path(self.work) / "fit.csv", newline="", encoding="ascii") as fh:
            fitted = {row["parameter"]: float(row["value"]) for row in csv.DictReader(fh)}
        photons_err = abs(fitted["seed_photons"] - TRUE_PHOTONS) / TRUE_PHOTONS
        ok = (code_img == 0 and code_fit == 0 and match is not None
              and match.group(1) == "converged" and photons_err < PHOTONS_GATE)
        return {
            "ok": ok,
            "image_s": raw["image_s"],
            "fit_s": raw["fit_s"],
            "photons_rel_err": photons_err,
            "squeezing_abs_err": abs(fitted["squeezing"] - TRUE_SQUEEZING),
            "status": match.group(1) if match else None,
            "iterations": int(match.group(2)) if match else None,
            "csv_bytes": (Path(self.work) / "image.csv").stat().st_size,
        }

    def accuracy(self, records: list[dict]) -> dict:
        return {name: {"value": float(np.mean([r[name] for r in records])), "unit": unit}
                for name, unit in (("photons_rel_err", "ratio"), ("squeezing_abs_err", "1"))}

    def computed(self, records: list[dict]) -> dict:
        return {
            "pixels_per_evaluation": self.pixels**2,
            "csv_bytes_per_frame": records[-1]["csv_bytes"],
            "fit_iterations": [r["iterations"] for r in records],
        }


class Depth17:
    """Acceptance criterion 1: RK4 depth integration and the order-4
    series of the Bogoliubov kernels on a prepared GridWorkspace."""

    name = "depth-17"
    parts = ("depth_s",)

    def __init__(self, root: Path, work: Path, seed: int, toy: bool):
        self.k_count = 9 if toy else 17

    def setup(self):
        cfg = validate.thin_reference_config(0.2)
        self.kern = kernels.FieldKernels(cfg)
        self.grid = oracle.build_grid(
            6.0 / cfg.pump.waist, self.k_count, self.kern.q.omega_deg,
            4.0 * cfg.pump.bandwidth, 9, cfg=cfg,
        )
        self.workspace = oracle.GridWorkspace(self.kern, self.grid)

    def run(self, k: int) -> dict:
        sol = oracle.solve_UV_ode(self.kern, self.grid, steps=64, workspace=self.workspace)
        series = oracle.series_UV(self.kern, self.grid, order=4, z_nodes=9,
                                  workspace=self.workspace)
        return {"solution": sol, "series": series}

    def check(self, raw: dict) -> dict:
        sol, (su, sv) = raw["solution"], raw["series"]
        series_defect = max(
            float(np.max(np.abs(a.to_weighted().matrix - b.to_weighted().matrix)))
            for a, b in ((su, sol.forward), (sv, sol.conjugate))
        )
        return {
            "ok": sol.constraint_defect < CONSTRAINT_GATE and series_defect < SERIES_GATE,
            "constraint_defect": sol.constraint_defect,
            "series_defect": series_defect,
            "blocks": sol.info["blocks"],
            "steps": sol.info["steps"],
        }

    def accuracy(self, records: list[dict]) -> dict:
        return {name: {"value": max(r[name] for r in records), "unit": "1"}
                for name in ("constraint_defect", "series_defect")}

    def computed(self, records: list[dict]) -> dict:
        blocks = records[-1]["blocks"]
        provider = self.workspace.provider
        coeffs = getattr(provider, "coeffs", None)
        return {
            "modes": self.grid.size,
            "blocks": blocks,
            "rk4_steps": records[-1]["steps"],
            "rk4_flop_per_step": 64 * sum(d**3 for d in blocks),
            "provider": type(provider).__name__,
            "taylor_order": len(coeffs) - 1 if coeffs is not None else None,
        }


class Validate:
    """``pdcfield validate`` on configs/combined.cfg: the 16-check table."""

    name = "validate"
    parts = ("validate_s",)

    def __init__(self, root: Path, work: Path, seed: int, toy: bool):
        self.config = str(root / "configs" / "combined.cfg")
        self.work = str(work)

    def setup(self):
        # each command reloads the file; parsing it here times that as set-up
        self.cfg = config.load_config_file(self.config)

    def run(self, k: int) -> dict:
        (Path(self.work) / "validate.csv").unlink(missing_ok=True)
        code, out = _run_cli(["--outdir", self.work, "validate", "--config", self.config,
                              "--no-svg"])
        return {"code": code, "stdout": out}

    def check(self, raw: dict) -> dict:
        with open(Path(self.work) / "validate.csv", encoding="ascii") as fh:
            rows = [line.rstrip("\n").rsplit(",", 4) for line in fh][1:]
        passed = sum(float(row[3]) == 1.0 for row in rows)
        return {
            "ok": (raw["code"] == 0 and passed == len(rows) == VALIDATE_CHECKS
                   and f"{VALIDATE_CHECKS}/{VALIDATE_CHECKS} checks passed" in raw["stdout"]),
            "passed": passed,
            "validate_margin": max(float(row[1]) / float(row[2]) for row in rows),
        }

    def accuracy(self, records: list[dict]) -> dict:
        return {"validate_margin": {"value": max(r["validate_margin"] for r in records),
                                    "unit": "ratio"}}

    def computed(self, records: list[dict]) -> dict:
        return {"checks": VALIDATE_CHECKS, "passed": [r["passed"] for r in records]}


WORKLOADS = {cls.name: cls for cls in (CcdFit, Depth17, Validate)}
