import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from pdcfield.config import with_overrides
from pdcfield.kernels import FieldKernels
from pdcfield.background import (
    hh_contraction,
    background_intensity,
    background_radial,
    background_peak_value,
    background_prefactor,
    RADIAL_CROSSOVER,
)
from pdcfield.validate import narrowband_reference_config
from pdcfield import oracle


def _background_radial_masked(kern, r):
    """The radial background as the package wrote it before it took sin v
    from v/2: boolean-mask copies for both branches."""
    q = kern.q
    r = np.asarray(r, dtype=float)
    R2 = q.radial_scale**2
    u = r**2 - q.ring_radius**2
    v = u * q.crystal_beta / R2
    omega_3 = background_prefactor(kern)
    out = np.empty(r.shape, dtype=float)
    small = np.abs(u) < RADIAL_CROSSOVER * R2
    uu, vv = u[~small], v[~small]
    direct = omega_3 * (
        q.crystal_beta * np.sin(vv) / uu**2
        + 4.0 * (uu - R2) * np.sin(0.5 * vv) ** 2 / uu**3
    )
    out[~small] = np.maximum(direct, 0.0)
    vv = v[small]
    out[small] = (omega_3 * q.crystal_beta**2 / R2**2) * (
        1.0
        - q.crystal_beta * vv / 12.0
        - vv**2 / 12.0
        + q.crystal_beta * vv**3 / 180.0
        + vv**4 / 360.0
    )
    return out


@pytest.mark.parametrize("cfg_name", ["ring_cfg", "collinear_cfg"])
def test_background_radial_matches_masked_form(request, cfg_name):
    # r^2 - r0^2 on a log scale from 1e-6 to 100 R^2 on both sides of the
    # ring (|v| < 1, short of the first zero), across the series seam at
    # 1e-3 R^2 and at the ring itself
    kern = FieldKernels(request.getfixturevalue(cfg_name))
    q = kern.q
    R2 = q.radial_scale**2
    scaled = np.concatenate([np.geomspace(1e-6, 100.0, 4001),
                             RADIAL_CROSSOVER * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])])
    r_sq = q.ring_radius**2 + np.concatenate([scaled, -scaled, [0.0]]) * R2
    r = np.sqrt(r_sq[r_sq >= 0.0])
    got = background_radial(kern, r.reshape(-1, 1)).ravel()
    want = _background_radial_masked(kern, r)
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_zero_gain_zero_background(ring_cfg):
    kern = FieldKernels(with_overrides(ring_cfg, squeezing=0.0))
    r = np.linspace(0, 2e-3, 101)
    assert np.all(background_radial(kern, r) == 0.0)


def test_value_at_ring_radius(ring_cfg):
    kern = FieldKernels(ring_cfg)
    q = kern.q
    # the singular parts cancel; the limit evaluates to the derived constant
    expected = (
        2.0
        * q.detector_gain
        * math.pi**1.5
        * q.squeezing**2
        * ring_cfg.pump.waist**2
        / ring_cfg.pump.bandwidth
    )
    assert background_peak_value(kern) == pytest.approx(expected, rel=1e-12)
    assert background_radial(kern, q.ring_radius) == pytest.approx(expected, rel=1e-12)


def test_numerical_limit_at_ring_radius(ring_cfg):
    # extended-precision evaluation of the raw expression approaching the
    # ring radius, against the implementation's series value
    import mpmath as mp

    mp.mp.dps = 50
    kern = FieldKernels(ring_cfg)
    q = kern.q
    b0 = mp.mpf(q.crystal_beta)
    R2 = mp.mpf(q.radial_scale) ** 2
    om3 = mp.mpf(background_prefactor(kern))

    def raw(u):
        v = u * b0 / R2
        return om3 * (b0 * mp.sin(v) / u**2 + 2 * (u - R2) * (1 - mp.cos(v)) / u**3)

    vals = [raw(R2 * mp.mpf(s)) for s in ("1e-2", "1e-3", "1e-4")]
    limit = float(vals[-1] + (vals[-1] - vals[-2]) / 9.0)
    assert background_radial(kern, q.ring_radius) == pytest.approx(limit, rel=1e-4)


def test_crossover_continuity(ring_cfg):
    kern = FieldKernels(ring_cfg)
    q = kern.q
    for side in (1.0, -1.0):
        u = side * RADIAL_CROSSOVER * q.radial_scale**2
        r_edge = math.sqrt(q.ring_radius**2 + u)
        lo = background_radial(kern, r_edge * (1 - 1e-9))
        hi = background_radial(kern, r_edge * (1 + 1e-9))
        assert abs(hi - lo) / hi < 1e-8


def test_ring_shape(ring_cfg):
    kern = FieldKernels(ring_cfg)
    q = kern.q
    r = np.linspace(0.0, 2e-3, 4001)
    vals = background_radial(kern, r)
    r_max = r[np.argmax(vals)]
    # central dip with an annular maximum near the ring radius
    assert vals[0] < vals.max()
    assert np.all(np.diff(vals[:40]) > 0)  # local minimum at the center
    assert abs(r_max**2 - q.ring_radius**2) < 1.5 * q.radial_scale**2


def test_collinear_single_peak(collinear_cfg):
    kern = FieldKernels(collinear_cfg)
    r = np.linspace(0.0, 2e-3, 4001)
    vals = background_radial(kern, r)
    assert np.argmax(vals) == 0
    # broadened central lobe decays monotonically until the first null
    q = kern.q
    first_null = math.sqrt(2 * math.pi * q.radial_scale**2 / q.crystal_beta)
    inside = r < 0.98 * first_null
    assert np.all(np.diff(vals[inside]) <= 0)


def test_nonnegative_scan(ring_cfg):
    kern = FieldKernels(ring_cfg)
    q = kern.q
    r = np.linspace(0.0, 4 * q.ring_radius + 8 * q.radial_scale, 30001)
    assert np.all(background_radial(kern, r) >= 0.0)


def test_rotational_symmetry(ring_cfg):
    kern = FieldKernels(ring_cfg)
    rng = np.random.default_rng(17)
    radii = rng.uniform(0, 1.5e-3, 16)
    angles = rng.uniform(0, 2 * math.pi, 16)
    pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1)
    assert np.allclose(
        background_intensity(kern, pts), background_radial(kern, radii), rtol=1e-12
    )


def test_gain_squared_scaling(ring_cfg):
    k1 = FieldKernels(with_overrides(ring_cfg, squeezing=0.7))
    k2 = FieldKernels(with_overrides(ring_cfg, squeezing=1.4))
    r = np.array([0.0, 0.4e-3, 0.8e-3])
    assert np.allclose(
        background_radial(kern=k2, r=r), 4.0 * background_radial(kern=k1, r=r)
    )


def test_hh_real_positive_on_diagonal(ring_cfg):
    kern = FieldKernels(ring_cfg)
    q = kern.q
    z = 0.4 * ring_cfg.crystal.length
    val = complex(hh_contraction(kern, np.zeros(2), np.zeros(2), q.omega_deg, q.omega_deg, z, z))
    assert val.imag == pytest.approx(0.0, abs=1e-12 * abs(val))
    assert val.real > 0


def test_hh_hermiticity(ring_cfg):
    kern = FieldKernels(ring_cfg)
    q = kern.q
    rng = np.random.default_rng(23)
    L = ring_cfg.crystal.length
    for _ in range(8):
        K1 = rng.normal(scale=1.5 / ring_cfg.pump.waist, size=2)
        K3 = rng.normal(scale=1.5 / ring_cfg.pump.waist, size=2)
        w1 = q.omega_deg + 0.7 * ring_cfg.pump.bandwidth * rng.standard_normal()
        w3 = q.omega_deg + 0.7 * ring_cfg.pump.bandwidth * rng.standard_normal()
        z1, z2 = rng.uniform(0, L, 2)
        a = complex(hh_contraction(kern, K1, K3, w1, w3, z1, z2))
        b = complex(hh_contraction(kern, K3, K1, w3, w1, z2, z1))
        assert abs(a - np.conj(b)) / abs(a) < 1e-10


def test_hh_against_brute_force():
    from pdcfield.validate import numeric_pair_contraction

    cfg = narrowband_reference_config()
    kern = FieldKernels(cfg)
    q = kern.q
    L = cfg.crystal.length
    rng = np.random.default_rng(29)
    for _ in range(3):
        K1 = rng.normal(scale=0.8 / cfg.pump.waist, size=2)
        K3 = rng.normal(scale=0.8 / cfg.pump.waist, size=2)
        w1 = q.omega_deg + 0.4 * cfg.pump.bandwidth * rng.standard_normal()
        w3 = q.omega_deg + 0.4 * cfg.pump.bandwidth * rng.standard_normal()
        z1, z2 = rng.uniform(0, L, 2)
        closed = complex(hh_contraction(kern, K1, K3, w1, w3, z1, z2))
        numeric = numeric_pair_contraction(kern, K1, K3, w1, w3, z1=z1, z2=z2)
        assert abs(closed - numeric) / abs(numeric) < 1e-4


def test_background_vs_oracle_quadrature(collinear_cfg):
    kern = FieldKernels(collinear_cfg)
    q = kern.q
    for radius in (0.0, q.radial_scale):
        closed = background_radial(kern, radius)
        exact, err = oracle.oracle_background(kern, radius)
        assert err < 1e-12
        assert abs(closed - exact) / abs(exact) < 0.05


def test_oracle_background_against_adaptive_quadrature(collinear_cfg):
    kern = FieldKernels(collinear_cfg)
    q = kern.q
    L = collinear_cfg.crystal.length
    for radius in (0.0, q.radial_scale):
        K0 = np.array([q.k_deg * radius / collinear_cfg.detector.focal_length, 0.0])

        def integrand(z2, z1):
            return float(np.real(hh_contraction(kern, K0, K0, q.omega_deg, q.omega_deg, z1, z2)))

        reference = 0.25 * q.detector_gain * dblquad(
            integrand, 0.0, L, 0.0, L, epsabs=0.0, epsrel=1e-12
        )[0]
        value, _ = oracle.oracle_background(kern, radius)
        assert abs(value - reference) / abs(reference) < 1e-10
