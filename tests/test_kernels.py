import math

import numpy as np
import pytest

from pdcfield.config import PumpConfig, ExperimentConfig
from pdcfield.kernels import FieldKernels, gaussian_spectrum
from pdcfield.validate import narrowband_reference_config, numeric_pair_contraction

C = 299792458.0


def test_spectrum_peak_value():
    # solving the power normalization for a Gaussian gives sqrt(2 sqrt(pi)/bw)
    for bw in (1e9, 5e11):
        assert gaussian_spectrum(0.0, bw) == pytest.approx(
            math.sqrt(2.0 * math.sqrt(math.pi) / bw), rel=1e-14
        )


def test_spectrum_even():
    x = np.linspace(0, 4e12, 101)
    assert np.allclose(gaussian_spectrum(x, 5e11), gaussian_spectrum(-x, 5e11))


def test_spectrum_quadrature_normalization():
    bw = 7.3e11
    x = np.linspace(-8 * bw, 8 * bw, 40001)
    total = np.trapezoid(gaussian_spectrum(x, bw) ** 2, x)
    assert total == pytest.approx(2.0 * math.pi, rel=1e-6)


def test_spectrum_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        gaussian_spectrum(0.0, 0.0)


def test_pump_norm_is_photon_number(combined_cfg):
    kern = FieldKernels(combined_cfg)
    p = combined_cfg.pump
    # norm over the mode measure, numerically, exploiting separability
    kx = np.linspace(-8 / p.waist, 8 / p.waist, 4001)
    gk = np.trapezoid(np.exp(-0.5 * p.waist**2 * kx**2), kx)
    om = np.linspace(p.omega - 8 * p.bandwidth, p.omega + 8 * p.bandwidth, 4001)
    gw = np.trapezoid(gaussian_spectrum(om - p.omega, p.bandwidth) ** 2, om)
    amp = kern.q.pump_amplitude
    norm = 2 * math.pi * amp**2 * p.waist**2 * gk**2 * gw / (2 * math.pi) ** 3
    assert norm == pytest.approx(amp**2, rel=1e-8)


def test_seed_profile_values(combined_cfg):
    from pdcfield.config import seed_shift

    kern = FieldKernels(combined_cfg)
    s = combined_cfg.seed
    q = kern.q
    shift = np.asarray(seed_shift(combined_cfg, q))
    peak = kern.seed_profile(shift, q.omega_deg)
    assert peak == pytest.approx(
        math.sqrt(2 * math.pi) * s.amplitude * s.waist * gaussian_spectrum(0.0, s.bandwidth)
    )


def test_mismatch_collinear_zero(collinear_cfg):
    kern = FieldKernels(collinear_cfg)
    q = kern.q
    val = kern.phase_mismatch(np.zeros(2), np.zeros(2), q.omega_deg, q.omega_deg)
    assert abs(val) < 1e-12


def test_mismatch_opposite_shift(combined_cfg):
    # symbolic simplification of the four terms at equal frequencies:
    # |K|^2 / k_z - chi
    kern = FieldKernels(combined_cfg)
    q = kern.q
    k = np.array([3.2e4, -1.1e4])
    val = kern.phase_mismatch(k, -k, q.omega_deg, q.omega_deg)
    expected = (k @ k) / q.kz_deg - q.angular_mismatch
    assert val == pytest.approx(expected, rel=1e-12)


def test_mismatch_swap_symmetry(combined_cfg):
    kern = FieldKernels(combined_cfg)
    q = kern.q
    rng = np.random.default_rng(5)
    K1 = rng.normal(scale=1e4, size=(128, 2))
    K2 = rng.normal(scale=1e4, size=(128, 2))
    w1 = q.omega_deg * (1 + 1e-4 * rng.standard_normal(128))
    w2 = q.omega_deg * (1 + 1e-4 * rng.standard_normal(128))
    a = kern.phase_mismatch(K1, K2, w1, w2)
    b = kern.phase_mismatch(K2, K1, w2, w1)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_bilinear_magnitude_depth_independent(combined_cfg):
    kern = FieldKernels(combined_cfg)
    q = kern.q
    rng = np.random.default_rng(9)
    K1 = rng.normal(scale=5e3, size=(64, 2))
    K2 = rng.normal(scale=5e3, size=(64, 2))
    w1 = q.omega_deg + combined_cfg.pump.bandwidth * rng.standard_normal(64)
    w2 = q.omega_deg + combined_cfg.pump.bandwidth * rng.standard_normal(64)
    h0 = np.abs(kern.bilinear_kernel(K1, K2, w1, w2, 0.0))
    hz = np.abs(kern.bilinear_kernel(K1, K2, w1, w2, combined_cfg.crystal.length))
    assert np.max(np.abs(hz - h0) / h0) < 1e-12
    assert np.allclose(h0, kern.bilinear_magnitude(K1, K2, w1, w2))


def test_bilinear_kernel_at_zero_depth_skips_the_phase(combined_cfg, monkeypatch):
    kern = FieldKernels(combined_cfg)
    rng = np.random.default_rng(4)
    K1 = rng.normal(scale=1e4, size=(5, 1, 2))
    K2 = rng.normal(scale=1e4, size=(1, 7, 2))
    w1 = kern.q.omega_deg + rng.normal(scale=1e11, size=(5, 1))
    w2 = kern.q.omega_deg + rng.normal(scale=1e11, size=(1, 7))
    ref = kern.pair_phase * kern.bilinear_magnitude(K1, K2, w1, w2)
    # the full formula: exp(0) = 1, so the values are those without the phase
    phased = ref * np.exp(1j * 0.0 * kern.phase_mismatch(K1, K2, w1, w2))
    assert np.array_equal(phased, ref)
    assert np.array_equal(kern.bilinear_kernel(K1, K2, w1, w2, np.zeros((5, 7))), ref)
    assert not np.allclose(kern.bilinear_kernel(K1, K2, w1, w2, 1e-3), ref, atol=0.0)

    def fail(*args):
        raise AssertionError("phase_mismatch evaluated at zero depth")

    monkeypatch.setattr(kern, "phase_mismatch", fail)
    for z in (0.0, 0, -0.0, np.zeros(())):
        h0 = kern.bilinear_kernel(K1, K2, w1, w2, z)
        assert h0.shape == (5, 7)
        assert h0.tobytes() == ref.tobytes()
    assert np.shape(kern.bilinear_kernel(K1[0, 0], K2[0, 0], w1[0, 0], w2[0, 0])) == ()


def test_bilinear_symmetric(combined_cfg):
    kern = FieldKernels(combined_cfg)
    q = kern.q
    rng = np.random.default_rng(13)
    K1 = rng.normal(scale=5e3, size=(64, 2))
    K2 = rng.normal(scale=5e3, size=(64, 2))
    w1 = q.omega_deg + 3e11 * rng.standard_normal(64)
    w2 = q.omega_deg + 3e11 * rng.standard_normal(64)
    z = 0.4 * combined_cfg.crystal.length
    a = kern.bilinear_kernel(K1, K2, w1, w2, z)
    b = kern.bilinear_kernel(K2, K1, w2, w1, z)
    assert np.max(np.abs(a - b) / np.abs(a)) < 1e-12


def test_prefactor_identity(combined_cfg):
    # kernel scale x order gain equals crystal length x pair amplitude,
    # with every factor evaluated from its own defining formula
    cfg = combined_cfg
    q = cfg.derive()
    amp = q.pump_amplitude
    p, x = cfg.pump, cfg.crystal
    m0 = math.pi**1.25 * p.waist**2 / math.sqrt(p.bandwidth)
    m1 = (
        4 * math.sqrt(2) * x.length * amp * x.cross_section
        * math.sqrt(p.omega * p.bandwidth) / (math.pi**0.75 * C**2 * p.waist)
    )
    pair_amp = 4 * math.sqrt(2 * math.pi * p.omega) * amp * x.cross_section * p.waist / C**2
    assert m0 * m1 == pytest.approx(x.length * pair_amp, rel=1e-12)
    assert q.kernel_prefactor * q.order_gain == pytest.approx(x.length * pair_amp, rel=1e-12)


def test_contracted_order_one_matches_pair_kernel():
    cfg = narrowband_reference_config()
    cfg = ExperimentConfig(
        pump=PumpConfig(
            omega=cfg.pump.omega, bandwidth=cfg.pump.bandwidth,
            waist=cfg.pump.waist, phase=0.7,
        ),
        seed=cfg.seed, crystal=cfg.crystal, detector=cfg.detector,
    )
    kern = FieldKernels(cfg)
    q = kern.q
    rng = np.random.default_rng(2)
    K1 = rng.normal(scale=1e3, size=(16, 2))
    K2 = rng.normal(scale=1e3, size=(16, 2))
    w1 = q.omega_deg + 0.3 * cfg.pump.bandwidth * rng.standard_normal(16)
    w2 = q.omega_deg + 0.3 * cfg.pump.bandwidth * rng.standard_normal(16)
    term = kern.contracted_kernel(1)
    direct = cfg.crystal.length * kern.bilinear_kernel(K1, K2, w1, w2, 0.0)
    # equal up to the factored pump phase
    ratio = term(K1, K2, w1, w2) / direct
    assert np.max(np.abs(ratio - np.exp(1j * cfg.pump.phase))) < 1e-9


def test_contracted_parity_mismatch():
    kern = FieldKernels(narrowband_reference_config())
    with pytest.raises(ValueError):
        kern.contracted_kernel(2, parity="odd")
    with pytest.raises(ValueError):
        kern.contracted_kernel(0)


def test_contracted_prefactor_ratio():
    kern = FieldKernels(narrowband_reference_config())
    q = kern.q
    for m in (1, 2, 3, 5):
        a = kern.contracted_kernel(m)
        b = kern.contracted_kernel(m + 1)
        expected = q.order_gain / ((m + 1) * (1 + 1 / m) ** 1.25)
        assert abs(b.prefactor) / abs(a.prefactor) == pytest.approx(expected, rel=1e-12)


def test_pair_contraction_vs_order_two():
    # numeric conj(H) <> H over the shared mode against the closed form
    cfg = narrowband_reference_config()
    kern = FieldKernels(cfg)
    q = kern.q
    term = kern.contracted_kernel(2)
    rng = np.random.default_rng(4)
    for _ in range(2):
        K1 = rng.normal(scale=0.8 / cfg.pump.waist, size=2)
        K3 = rng.normal(scale=0.8 / cfg.pump.waist, size=2)
        w1 = q.omega_deg + 0.5 * cfg.pump.bandwidth * rng.standard_normal()
        w3 = q.omega_deg + 0.5 * cfg.pump.bandwidth * rng.standard_normal()
        numeric = numeric_pair_contraction(kern, K1, K3, w1, w3)
        closed = term(K1, K3, w1, w3) * 2.0 / cfg.crystal.length**2
        assert abs(numeric - closed) / abs(closed) < 1e-4


def test_thin_crystal_uv_zero_gain():
    cfg = narrowband_reference_config(squeezing=0.0)
    kern = FieldKernels(cfg)
    u, v, info = kern.thin_crystal_uv(np.zeros(2), np.zeros(2), kern.q.omega_deg, kern.q.omega_deg)
    assert u == 0.0  # forward kernel reduces to the bare identity
    assert v == 0.0


def test_thin_crystal_v_phase():
    phase = 0.9
    base = narrowband_reference_config(squeezing=0.4)
    cfg = ExperimentConfig(
        pump=PumpConfig(
            omega=base.pump.omega, bandwidth=base.pump.bandwidth,
            waist=base.pump.waist, phase=phase,
        ),
        seed=base.seed, crystal=base.crystal, detector=base.detector,
    )
    kern = FieldKernels(cfg)
    q = kern.q
    k = np.array([800.0, -300.0])
    _, v, _ = kern.thin_crystal_uv(k, -k, q.omega_deg, q.omega_deg)
    # phase factor exp(-i phase) * (-i) in front of a positive series
    expected_phase = np.exp(-1j * phase) * (-1j)
    assert np.angle(v / expected_phase) == pytest.approx(0.0, abs=1e-12)


def termwise_thin_crystal_uv(kern, K1, K2, omega1, omega2, n_max=32, tol=1e-10):
    """Reference sums: one contracted_kernel(m) evaluation per order."""
    info = {"u_order": 0, "v_order": 0, "u_last": 0.0, "v_last": 0.0}
    sums = {"u": 0.0, "v": 0.0}
    for key, first, weight in (("u", 2, 1.0), ("v", 1, 2.0)):
        running_peak = 0.0
        for n in range(1, n_max + 1):
            term = kern.contracted_kernel(2 * n - 2 + first)
            contrib_peak = weight * 4.0**-n * term.peak_magnitude
            if n > 1 and contrib_peak < tol * max(running_peak, 1.0e-300):
                break
            sums[key] = sums[key] + weight * 4.0**-n * term(K1, K2, omega1, omega2)
            running_peak += contrib_peak
            info[f"{key}_order"] = term.order
            info[f"{key}_last"] = contrib_peak
    return sums["u"], np.exp(-1j * kern.cfg.pump.phase) * sums["v"], info


def test_thin_crystal_uv_matches_termwise_sum():
    base = narrowband_reference_config(squeezing=0.4)
    cfg = ExperimentConfig(
        pump=PumpConfig(
            omega=base.pump.omega, bandwidth=base.pump.bandwidth,
            waist=base.pump.waist, phase=1.3,
        ),
        seed=base.seed, crystal=base.crystal, detector=base.detector,
    )
    kern = FieldKernels(cfg)
    q = kern.q
    rng = np.random.default_rng(9)
    K = rng.normal(scale=1.5 / cfg.pump.waist, size=(2, 40, 2))
    w = q.omega_deg + cfg.pump.bandwidth * rng.standard_normal((2, 40))
    cases = [
        (K[0, 0], K[1, 0], w[0, 0], w[1, 0]),                             # scalar
        (K[0][:, None], K[1][None, :], w[0][:, None], w[1][None, :]),      # (N,1)/(1,N)
        (K[0], K[1], w[0], w[1]),                                          # full arrays
        # K and omega on separate broadcast axes: the factors stay on theirs
        (K[0, :6, None, None, None], K[1, None, None, :7, None],
         w[0, None, :5, None, None], w[1, None, None, None, :4]),
    ]
    for K1, K2, w1, w2 in cases:
        u, v, info = kern.thin_crystal_uv(K1, K2, w1, w2)
        u_ref, v_ref, info_ref = termwise_thin_crystal_uv(kern, K1, K2, w1, w2)
        assert np.shape(u) == np.shape(u_ref) and np.shape(v) == np.shape(v_ref)
        assert np.max(np.abs(u - u_ref)) <= 1e-13 * np.max(np.abs(u_ref))
        assert np.max(np.abs(v - v_ref)) <= 1e-13 * np.max(np.abs(v_ref))
        assert info == info_ref


def test_thin_crystal_truncation_info():
    kern = FieldKernels(narrowband_reference_config(squeezing=0.3))
    q = kern.q
    _, _, info = kern.thin_crystal_uv(np.zeros(2), np.zeros(2), q.omega_deg, q.omega_deg)
    assert info["u_order"] >= 4
    assert info["v_order"] >= 3
    assert info["u_last"] >= 0.0
