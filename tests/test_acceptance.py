"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import os
import time

import numpy as np
import pytest

from pdcfield.config import with_overrides
from pdcfield.kernels import FieldKernels
from pdcfield.stimulated import zeta_orders, efficiency_f, stimulated_intensity
from pdcfield.background import background_radial, background_peak_value, RADIAL_CROSSOVER
from pdcfield.fitting import ForwardModel, synthesize_image, fit_parameters
from pdcfield.validate import (
    check_background_tca,
    check_bogoliubov_constraint,
    check_idler_tca,
    check_pair_contraction,
    check_prefactor_identity,
    check_series_vs_ode,
)


def _report(num, passed, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_bogoliubov_constraint():
    # depth-integrated kernels on the default-size grid: constraint defect
    # below 1e-6, order-4 series within 1e-5, within the runtime budget
    t0 = time.perf_counter()
    res, sol, workspace = check_bogoliubov_constraint(
        squeezing=0.2, k_count=17, omega_count=9
    )
    series_res = check_series_vs_ode(sol, workspace)
    elapsed = time.perf_counter() - t0
    ok = res.passed and series_res.passed and elapsed < 60.0
    _report(
        1,
        ok,
        f"constraint defect {res.value:.2e} (tol 1e-6), series vs depth "
        f"integration {series_res.value:.2e} (tol 1e-5), runtime {elapsed:.0f}s "
        f"(< 60s) on a 17x17x9 grid at gain 0.2, {res.note}",
    )


@pytest.mark.skipif(
    not os.environ.get("PDCFIELD_SLOW"),
    reason="set PDCFIELD_SLOW=1 for the gain-0.5 stress variant",
)
def test_criterion_1_stress_gain():
    res, _, _ = check_bogoliubov_constraint(squeezing=0.5, k_count=17, omega_count=9)
    _report("1b", res.passed, f"constraint defect at gain 0.5: {res.value:.2e}")


def test_criterion_2_kernel_closed_forms(combined_cfg):
    pair = check_pair_contraction()
    ident = check_prefactor_identity(combined_cfg)
    _report(
        2,
        pair.passed and ident.passed,
        f"pair contraction vs closed form {pair.value:.2e} (tol 1e-4) at 3 pairs, "
        f"prefactor identity {ident.value:.2e} (tol 1e-12)",
    )


def test_criterion_3_thin_crystal_error(combined_cfg, collinear_cfg):
    idler = check_idler_tca(combined_cfg, n_points=25)
    background = check_background_tca(collinear_cfg)
    _report(
        3,
        idler.passed and background.passed,
        f"idler closed form vs depth quadrature L2 {idler.value:.3%} (tol 5%), "
        f"background at r in {{0, R, 2R}} worst {background.value:.3%} (tol 5%)",
    )


def test_criterion_4_efficiency_function():
    limit_err = abs(efficiency_f(0.0, 0.0) - 1.0)
    a = np.arange(-5.0, 5.0, 1e-4)
    vals = efficiency_f(a, 0.4)
    peak = a[np.argmax(vals)]
    bracket_ok = -0.45 <= peak <= -0.33
    formula_peak = -6 * 0.4 / (6 + 0.4**2)
    scan = efficiency_f(np.linspace(-40, 40, 20001), 0.4)
    nonneg = bool(np.all(scan >= 0.0))
    ok = limit_err < 1e-6 and bracket_ok and nonneg
    _report(
        4,
        ok,
        f"f(0,0)-1 = {limit_err:.1e} (tol 1e-6); argmax {peak:.4f} in "
        f"[-0.45,-0.33] around {formula_peak:.4f}; non-negative on dense scan: {nonneg}",
    )


def test_criterion_5_background_shapes(collinear_cfg, ring_cfg):
    r = np.linspace(0.0, 2.5e-3, 6001)
    col = FieldKernels(collinear_cfg)
    vals_col = background_radial(col, r)
    central_max = np.argmax(vals_col) == 0

    ring = FieldKernels(ring_cfg)
    rq = ring.q
    vals_ring = background_radial(ring, r)
    i_max = int(np.argmax(vals_ring))
    dip = vals_ring[0] < vals_ring[i_max] and np.all(np.diff(vals_ring[:30]) > 0)
    annular = abs(r[i_max] ** 2 - rq.ring_radius**2) <= 1.5 * rq.radial_scale**2

    limit = background_peak_value(ring)
    at_ring = background_radial(ring, rq.ring_radius)
    edge = math.sqrt(rq.ring_radius**2 + RADIAL_CROSSOVER * rq.radial_scale**2)
    near = background_radial(ring, edge * (1 + 1e-9))  # direct branch
    limit_err = max(abs(at_ring - limit), abs(near - limit)) / limit
    ok = central_max and dip and annular and limit_err < 1e-4
    _report(
        5,
        ok,
        f"collinear central max: {central_max}; ring dip+annulus at 8 mrad: "
        f"{dip and annular}; ring-radius value vs derived limit {limit_err:.1e} "
        f"(tol 1e-4 across the series/direct crossover)",
    )


def test_criterion_6_order_broadening(orders_cfg):
    kern = FieldKernels(orders_cfg)
    q = kern.q
    terms = zeta_orders(kern, 4)
    x = np.linspace(-1.5e-3, 1.5e-3, 6001)
    K = np.stack([x, np.zeros_like(x)], axis=-1) * (
        q.k_deg / orders_cfg.detector.focal_length
    )
    x_shift = orders_cfg.seed.shift[0] * orders_cfg.detector.focal_length / q.k_deg
    widths, centers_ok = [], True
    cell = x[1] - x[0]
    for t in terms:
        prof = np.abs(t(K, q.omega_deg)) ** 2
        center = float(np.sum(prof * x) / np.sum(prof))
        widths.append(math.sqrt(np.sum(prof * (x - center) ** 2) / np.sum(prof)))
        target = x_shift if t.branch == "signal" else -x_shift
        if abs(center - target) > cell:
            centers_ok = False
    increasing = all(b > a for a, b in zip(widths, widths[1:]))
    ok = increasing and centers_ok and abs(x_shift - 0.3e-3) < 1e-9
    _report(
        6,
        ok,
        f"RMS widths strictly increase for orders 0..4: {increasing} "
        f"({', '.join(f'{w * 1e6:.1f}um' for w in widths)}); odd/even orders "
        f"centered at -/+{x_shift * 1e3:.1f} mm: {centers_ok}",
    )


def test_criterion_7_combined_field(combined_cfg):
    x = np.linspace(-1.4e-3, -0.6e-3, 401)  # idler side, 2 um pixels
    X0 = np.stack([x, np.zeros_like(x)], axis=-1)
    peaks, locs = [], []
    for g in (0.8, 1.0, 1.2):
        kern = FieldKernels(with_overrides(combined_cfg, g_factor=g))
        total = stimulated_intensity(kern, X0) + background_radial(kern, np.abs(x))
        peaks.append(float(np.max(total)))
        locs.append(float(x[np.argmax(total)]))
    tallest_at_1 = peaks[1] > peaks[0] and peaks[1] > peaks[2]

    kern = FieldKernels(with_overrides(combined_cfg, g_factor=1.0))
    backg = background_radial(kern, np.abs(x))
    ring_loc = float(x[np.argmax(backg)])
    pixel = x[1] - x[0]
    coincide = abs(locs[1] - ring_loc) <= pixel * (1 + 1e-9)
    ok = tallest_at_1 and coincide
    _report(
        7,
        ok,
        f"idler peaks for G=0.8,1.0,1.2: {peaks[0]:.4g}, {peaks[1]:.4g}, "
        f"{peaks[2]:.4g} (max at G=1: {tallest_at_1}); peak at {locs[1] * 1e3:.4f} mm "
        f"vs background ring {ring_loc * 1e3:.4f} mm (within one 2 um pixel: {coincide})",
    )


def test_criterion_8_metrology_round_trip(combined_cfg):
    t0 = time.time()
    model = ForwardModel(combined_cfg)
    x = np.linspace(-1.4e-3, 1.4e-3, 96)
    y = np.linspace(-0.35e-3, 0.35e-3, 24)

    clean = synthesize_image(model, x, y, noise="none", exposure=1.0)
    exposure = 2.0e4 / float(np.sum(clean.values))  # >= 1e4 total counts
    clean = synthesize_image(model, x, y, noise="none", exposure=exposure)
    fit = fit_parameters(
        model, clean, init={"seed_photons": 2.0, "squeezing": 0.5}
    )
    noiseless_ok = (
        fit.converged
        and abs(fit.parameters["seed_photons"] - 4.0) / 4.0 < 1e-4
        and abs(fit.parameters["squeezing"] - 1.0) < 1e-4
    )

    estimates = []
    total_counts = None
    for seed in range(20):
        img = synthesize_image(model, x, y, noise="poisson", seed=seed, exposure=exposure)
        total_counts = float(np.sum(img.values))
        res = fit_parameters(
            model, img, init={"seed_photons": 3.0, "squeezing": 0.8}
        )
        estimates.append(res.parameters["seed_photons"])
    mean_est = float(np.mean(estimates))
    poisson_ok = abs(mean_est - 4.0) / 4.0 < 0.05 and total_counts >= 1e4
    elapsed = time.time() - t0
    ok = noiseless_ok and poisson_ok and elapsed < 300.0
    _report(
        8,
        ok,
        f"noiseless recovery ({fit.parameters['seed_photons']:.6f}, "
        f"{fit.parameters['squeezing']:.6f}) vs (4, 1) at 1e-4; Poisson mean "
        f"photon estimate {mean_est:.3f} over 20 seeds at ~{total_counts:.0f} "
        f"counts (tol 5%); runtime {elapsed:.0f}s (< 300s)",
    )
