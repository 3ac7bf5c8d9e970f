import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdcfield.config import with_overrides, seed_shift
from pdcfield.kernels import FieldKernels
from pdcfield.stimulated import (
    zeta_orders,
    zeta_branches,
    zeta2_tca,
    idler_modulation,
    idler_kappa,
    efficiency_f,
    optimal_seed_geometry,
    stimulated_intensity,
    intensity_coefficients,
    coefficient_intensity,
    SERIES_CROSSOVER,
)
from pdcfield.validate import thin_reference_config


def _f_series(a, beta):
    return (
        (1.0 + beta**2 / 4.0)
        - (beta / 6.0) * a
        - (1.0 / 12.0 + beta**2 / 72.0) * a**2
        + (beta / 90.0) * a**3
        + (1.0 / 360.0 + beta**2 / 2880.0) * a**4
    )


def test_zero_gain_leaves_seed(orders_cfg):
    cfg = with_overrides(orders_cfg, squeezing=0.0)
    kern = FieldKernels(cfg)
    q = kern.q
    terms = zeta_orders(kern, 5)
    K = np.array([[0.0, 0.0], [cfg.seed.shift[0], 0.0]])
    for t in terms[1:]:
        assert np.all(t(K, q.omega_deg) == 0.0)
    signal, idler = zeta_branches(terms, K, q.omega_deg)
    assert np.all(idler == 0.0)
    assert np.allclose(signal, kern.seed_profile(K, q.omega_deg))


def test_order_widths(orders_cfg):
    kern = FieldKernels(orders_cfg)
    terms = zeta_orders(kern, 2)
    # first even and odd widths from the closed expressions, frozen values
    assert terms[2].width == pytest.approx(0.45749e-3, rel=1e-4)
    assert terms[1].width == pytest.approx(0.51450e-3, rel=1e-4)
    wp, wx = orders_cfg.pump.waist, orders_cfg.seed.waist
    assert terms[2].width == pytest.approx(wx * wp / math.sqrt(wp**2 + 2 * wx**2))


def test_order_bandwidths(orders_cfg):
    kern = FieldKernels(orders_cfg)
    terms = zeta_orders(kern, 2)
    # equal pump/seed bandwidths: first even order grows by sqrt(3)
    assert kern.q.bandwidth_ratio == pytest.approx(1.0)
    assert terms[2].bandwidth == pytest.approx(
        math.sqrt(3.0) * orders_cfg.seed.bandwidth
    )


def test_order_monotone_structure(orders_cfg):
    kern = FieldKernels(orders_cfg)
    terms = zeta_orders(kern, 6)
    widths = [t.width for t in terms]
    bws = [t.bandwidth for t in terms]
    assert all(a > b for a, b in zip(widths, widths[1:]))
    assert all(a < b for a, b in zip(bws, bws[1:]))
    for t in terms:
        assert t.branch == ("signal" if t.order % 2 == 0 else "idler")


def test_odd_order_phase(orders_cfg):
    phase = 0.4
    cfg = with_overrides(orders_cfg)
    cfg = cfg.__class__(
        pump=cfg.pump.__class__(
            omega=cfg.pump.omega, bandwidth=cfg.pump.bandwidth,
            waist=cfg.pump.waist, phase=phase,
        ),
        seed=cfg.seed, crystal=cfg.crystal, detector=cfg.detector,
    )
    kern = FieldKernels(cfg)
    terms = zeta_orders(kern, 5)
    for t in terms:
        if t.branch == "signal":
            assert np.angle(t.prefactor) == pytest.approx(0.0, abs=1e-12)
        else:
            # total field subtracts the idler branch: the net factor on odd
            # orders is -i exp(-i phase) relative to the even ones
            net = -t.prefactor / abs(t.prefactor)
            assert net == pytest.approx(-1j * np.exp(-1j * phase), rel=1e-12)


def test_order_gain_scaling(orders_cfg):
    k1 = FieldKernels(with_overrides(orders_cfg, squeezing=0.8))
    k2 = FieldKernels(with_overrides(orders_cfg, squeezing=1.6))
    t1 = zeta_orders(k1, 5)
    t2 = zeta_orders(k2, 5)
    for a, b in zip(t1, t2):
        assert abs(b.prefactor) / abs(a.prefactor) == pytest.approx(
            2.0**a.order, rel=1e-12
        )


def test_order_centers(orders_cfg):
    kern = FieldKernels(orders_cfg)
    q = kern.q
    shift = np.asarray(seed_shift(orders_cfg, q))
    for t in zeta_orders(kern, 4):
        expected = shift if t.branch == "signal" else -shift
        assert np.allclose(t.center, expected)


def test_idler_tca_zero_seed(orders_cfg):
    cfg = with_overrides(orders_cfg, seed_photons=0.0)
    kern = FieldKernels(cfg)
    vals = zeta2_tca(kern, np.array([[0.0, 0.0], [1e4, 0.0]]), kern.q.omega_deg)
    assert np.all(vals == 0.0)


def test_idler_tca_matches_first_order_in_thin_limit():
    # with negligible mismatch and depth parameter, the detailed idler form
    # must reduce to the first thin-crystal order
    kern = FieldKernels(thin_reference_config(0.3))
    q = kern.q
    assert q.idler_beta < 1e-4
    term1 = zeta_orders(kern, 1)[1]
    K = np.array([[0.0, 0.0], [100.0, -50.0], [300.0, 0.0]])
    ratio = zeta2_tca(kern, K, q.omega_deg) / term1(K, q.omega_deg)
    assert np.allclose(np.abs(ratio), 1.0, atol=1e-4)


def test_idler_tca_peak_location(combined_cfg):
    kern = FieldKernels(combined_cfg)
    q = kern.q
    shift = np.asarray(seed_shift(combined_cfg, q))
    kx = np.linspace(-2.0, 0.0, 1601) * (q.k_deg * 1.5e-3 / 0.1)
    K = np.stack([kx, np.zeros_like(kx)], axis=-1)
    mag = np.abs(zeta2_tca(kern, K, q.omega_deg))
    cell = kx[1] - kx[0]
    assert abs(kx[np.argmax(mag)] - (-shift[0])) <= cell


def test_idler_modulation_matches_efficiency():
    rng = np.random.default_rng(21)
    a = np.concatenate([rng.uniform(-10, 10, 200), [1e-4, -1e-4, 0.0]])
    for beta in (0.0, 0.4, 2.0):
        f = efficiency_f(a, beta)
        g = idler_modulation(a, beta)
        assert np.allclose(np.abs(g) ** 2, f, rtol=1e-10, atol=1e-12)


def _idler_modulation_complex(kappa, beta):
    """The modulation in complex arithmetic, as the package wrote it before it
    took sin k and cos k from k/2: a complex exp on the direct branch and
    boolean-mask copies for both branches."""
    kappa = np.asarray(kappa, dtype=float)
    out = np.empty(kappa.shape, dtype=complex)
    small = np.abs(kappa) < SERIES_CROSSOVER
    k = kappa[~small]
    one_minus = 2.0 * np.sin(0.5 * k) ** 2 + 1j * np.sin(k)
    out[~small] = (k - beta) * one_minus / k**2 + 1j * beta * np.exp(-1j * k) / k
    k = kappa[small]
    out[small] = (
        (1j + beta / 2.0)
        + k * (0.5 - 1j * beta / 3.0)
        + k**2 * (-1j / 6.0 - beta / 8.0)
        + k**3 * (-1.0 / 24.0 + 1j * beta / 30.0)
        + k**4 * (1j / 120.0 + beta / 144.0)
    )
    return out


@pytest.mark.parametrize("beta", [0.0, 0.4, 1.0, 3.0])
def test_idler_modulation_matches_complex_form(beta):
    # dense over [-100, 100], on both sides of the series seam at +-1e-3, on
    # a log scale across it, and at the removable singularity itself
    seam = SERIES_CROSSOVER * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    near = np.geomspace(1e-6, 1e-2, 2001)
    kappa = np.concatenate([np.linspace(-100.0, 100.0, 200001), seam, -seam, near, -near, [0.0]])
    got = idler_modulation(kappa.reshape(-1, 1), beta).ravel()
    want = _idler_modulation_complex(kappa, beta)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    assert idler_modulation(0.0, beta).shape == ()
    assert idler_modulation(0.0, beta) == 1j + beta / 2.0


def test_coefficient_intensity_non_negative_where_fields_cancel():
    # c0 + c1 xi = 0 exactly: the expanded sum rounds on both sides of 0,
    # within eps of the coefficient bound, and the value is clipped at 0
    rng = np.random.default_rng(5)
    c0 = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    xi = 0.7
    q = intensity_coefficients([[c0, -c0 / xi]])
    value, slope = coefficient_intensity(q, xi, derivative=True)
    bound = (2.0 * np.abs(c0)) ** 2
    assert np.all(value >= 0.0)
    assert np.all(value <= 1e-15 * bound)
    assert np.array_equal(coefficient_intensity(q, xi), value)
    assert np.allclose(slope, 0.0, atol=1e-14 * np.max(bound))


def test_efficiency_zero_beta_limit():
    assert efficiency_f(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    a = np.array([1e-3, 1e-2, 0.5])
    assert np.allclose(efficiency_f(a, 0.0), 2 * (1 - np.cos(a)) / a**2, rtol=1e-9)


def test_efficiency_limit_beta_04():
    # numerical limit by extrapolation over a = 1e-3 .. 1e-6; the raw
    # expression cancels catastrophically in doubles, so the oracle is
    # evaluated in extended precision
    import mpmath as mp

    mp.mp.dps = 40
    beta = mp.mpf("0.4")

    def f_exact(a):
        a = mp.mpf(a)
        return (
            beta**2 / a**2
            + 2 * (a - beta) * beta * mp.sin(a) / a**3
            + 2 * (a - beta) ** 2 * (1 - mp.cos(a)) / a**4
        )

    aa = [mp.mpf("1e-3"), mp.mpf("1e-4"), mp.mpf("1e-5"), mp.mpf("1e-6")]
    vals = [f_exact(a) for a in aa]
    # Richardson: the expansion is linear in a at leading order
    limit = float(vals[-1] + (vals[-1] - vals[-2]) / 9.0)
    assert efficiency_f(0.0, 0.4) == pytest.approx(limit, abs=1e-6)
    assert efficiency_f(0.0, 0.4) == pytest.approx(1.04, abs=1e-6)


def test_efficiency_argmax_bracket():
    a = np.arange(-5.0, 5.0, 1e-3)
    vals = efficiency_f(a, 0.4)
    peak = a[np.argmax(vals)]
    assert -0.45 <= peak <= -0.33
    assert peak == pytest.approx(-6 * 0.4 / (6 + 0.4**2), abs=5e-2)


def test_efficiency_nonnegative():
    rng = np.random.default_rng(3)
    a = rng.uniform(-40, 40, 5000)
    for beta in (0.0, 0.3, 1.0, 4.0):
        assert np.all(efficiency_f(a, beta) >= 0.0)


def test_efficiency_series_seam():
    for beta in (0.0, 0.4, 2.0):
        for sign in (1.0, -1.0):
            edge = sign * SERIES_CROSSOVER
            below = efficiency_f(edge * (1 - 1e-9), beta)
            above = efficiency_f(edge * (1 + 1e-9), beta)
            assert abs(above - below) / above < 1e-8
        # the series evaluated just outside its range still agrees
        a0 = 2e-3
        assert abs(_f_series(a0, beta) - efficiency_f(a0, beta)) / efficiency_f(
            a0, beta
        ) < 1e-8


@settings(max_examples=200, deadline=None, derandomize=True)
@given(beta=st.floats(min_value=0.0, max_value=1e6), sign=st.sampled_from([1.0, -1.0]))
def test_efficiency_continuous_across_series_seam(beta, sign):
    # |a| < SERIES_CROSSOVER takes the series, the edge itself the direct
    # form; over beta in [0, 1e6] the widest jump is 7e-13 relative, near 2.4
    edge = sign * SERIES_CROSSOVER
    series_side = efficiency_f(np.nextafter(edge, 0.0), beta)
    direct_side = efficiency_f(edge, beta)
    assert abs(direct_side - series_side) <= 1e-11 * direct_side


def test_efficiency_matches_series_near_crossover():
    # just outside the series range the closed form of f cancels (9e-10
    # relative at beta 2 on these points); the squared idler modulation
    # does not
    band = np.linspace(1e-3, 5e-3, 401)[1:]
    a = np.concatenate([band, -band])
    for beta in (0.4, 2.0):
        series = _f_series(a, beta)
        assert np.max(np.abs(efficiency_f(a, beta) - series) / series) < 1e-11


def test_efficiency_rejects_negative_beta():
    with pytest.raises(ValueError):
        efficiency_f(0.1, -0.5)


def test_optimal_geometry(combined_cfg):
    kern = FieldKernels(combined_cfg)
    q = kern.q
    geo = optimal_seed_geometry(kern)
    beta = q.idler_beta
    assert geo["a_peak"] == pytest.approx(-6 * beta / (6 + beta**2))
    assert geo["x_peak"] == pytest.approx(
        math.sqrt(q.ring_radius**2 - 0.5 * q.radial_scale**2)
    )
    # the mismatch at the nominal peak tilt reproduces a_peak
    kappa = idler_kappa(
        kern, -np.array([geo["k_shift_opt"], 0.0])
    )
    # K_b at the idler peak doubles the tilt through the combined waist
    assert geo["k_shift_opt"] ** 2 == pytest.approx(
        q.kz_deg * q.angular_mismatch + q.kz_deg * geo["a_peak"] / combined_cfg.crystal.length,
        rel=1e-12,
    )


def test_idler_peak_height_maximized_at_optimal_tilt(combined_cfg):
    # scanning the seed tilt at fixed geometry, the on-peak idler intensity
    # is largest where the mismatch argument sits at the efficiency optimum
    kern0 = FieldKernels(combined_cfg)
    a_peak = optimal_seed_geometry(kern0)["a_peak"]
    gs = np.linspace(0.6, 1.4, 161)
    heights, kappas = [], []
    for g in gs:
        cfg = with_overrides(combined_cfg, g_factor=g)
        kern = FieldKernels(cfg)
        shift = np.asarray(seed_shift(cfg, kern.q))
        height = np.abs(zeta2_tca(kern, -shift, kern.q.omega_deg)) ** 2
        heights.append(float(height))
        kappas.append(float(idler_kappa(kern, -shift)))
    best = int(np.argmax(heights))
    assert abs(kappas[best] - a_peak) < 0.05


def test_no_real_peak_when_collinear(collinear_cfg):
    kern = FieldKernels(collinear_cfg)
    geo = optimal_seed_geometry(kern)
    assert geo["x_peak"] is None


def test_stimulated_zero_gain_image(orders_cfg):
    cfg = with_overrides(orders_cfg, squeezing=0.0)
    kern = FieldKernels(cfg)
    q = kern.q
    x = np.linspace(-1e-3, 1e-3, 2001)
    X0 = np.stack([x, np.zeros_like(x)], axis=-1)
    vals = stimulated_intensity(kern, X0, model="orders")
    x_shift = cfg.seed.shift[0] * cfg.detector.focal_length / q.k_deg
    assert abs(x[np.argmax(vals)] - x_shift) <= x[1] - x[0]
    # Gaussian image of the seed: intensity RMS width f / (k w_xi)
    w = np.sqrt(np.sum(vals * (x - x_shift) ** 2) / np.sum(vals))
    assert w == pytest.approx(
        cfg.detector.focal_length / (q.k_deg * cfg.seed.waist), rel=1e-3
    )


def test_orders_broadening(orders_cfg):
    kern = FieldKernels(orders_cfg)
    q = kern.q
    terms = zeta_orders(kern, 5)
    x = np.linspace(-1.2e-3, 1.2e-3, 4001)
    K = np.stack([x, np.zeros_like(x)], axis=-1) * (
        q.k_deg / orders_cfg.detector.focal_length
    )
    widths = []
    for t in terms[:5]:
        prof = np.abs(t(K, q.omega_deg)) ** 2
        center = np.sum(prof * x) / np.sum(prof)
        widths.append(math.sqrt(np.sum(prof * (x - center) ** 2) / np.sum(prof)))
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_separate_equals_coherent_when_separated(orders_cfg):
    kern = FieldKernels(orders_cfg)
    x = np.linspace(-1.2e-3, 1.2e-3, 1201)
    X0 = np.stack([x, np.zeros_like(x)], axis=-1)
    coh = stimulated_intensity(kern, X0, mode="coherent", model="orders")
    sep = stimulated_intensity(kern, X0, mode="separate", model="orders")
    assert np.max(np.abs(coh - sep)) <= 1e-6 * np.max(sep)


def test_modulation_series_seam():
    for beta in (0.0, 0.5, 2.0):
        lo = idler_modulation(SERIES_CROSSOVER * (1 - 1e-9), beta)
        hi = idler_modulation(SERIES_CROSSOVER * (1 + 1e-9), beta)
        assert abs(hi - lo) / abs(hi) < 1e-8
