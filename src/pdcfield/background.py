"""Spontaneous down-conversion background: the contraction of two pair
kernels and the closed-form far-field intensity it produces.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import FieldKernels, gaussian_spectrum, _norm_sq

# Series evaluation below |r^2 - r0^2| < RADIAL_CROSSOVER * R^2; the two
# branches are asserted continuous to 1e-8 in the tests.
RADIAL_CROSSOVER = 1e-3


def hh_contraction(kern: FieldKernels, K1, K3, omega1, omega3, z1, z2):
    """Contraction of two pair kernels over the shared intermediate mode.

    Slowly varying frequency factors are evaluated at the mean of the two
    outer frequencies, which keeps the expression exactly Hermitian under
    (k1, z1) <-> (k3, z2) together with conjugation; the spectral factor
    confines the result to |omega1 - omega3| of order the pump bandwidth.
    """
    cfg, q = kern.cfg, kern.q
    p = cfg.pump
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    omega1 = np.asarray(omega1, dtype=float)
    omega3 = np.asarray(omega3, dtype=float)
    om = 0.5 * (omega1 + omega3)
    om_c = p.omega - om

    kz_s = kern.kz(om)
    kz_c = kern.kz(om_c)
    kp = q.k_pump
    dz = z1 - z2
    sz = z1 + z2

    tau = 1.0 + 1j * dz * kz_s / (p.waist**2 * kp * kz_c)
    omega_2 = (
        16.0
        * math.pi**1.25
        * 2.0**0.75
        * q.squeezing**2
        * p.waist**2
        * om
        * om_c
        / (cfg.crystal.length**2 * p.omega**2 * math.sqrt(p.bandwidth) * tau)
    )
    r1 = (
        p.waist**2 / 8.0
        + 1j * dz * kz_c / (8.0 * kp * kz_s)
        + sz**2 / (8.0 * p.waist**2 * kp**2 * tau)
    )
    r2 = 1j * dz * kp / (8.0 * kz_s * kz_c * tau)
    r3 = 1j * sz / (4.0 * kz_s * tau)
    r4 = 0.5j * dz * (kern.chi(om_c) + kern.chi(om))

    K1 = np.asarray(K1, dtype=float)
    K3 = np.asarray(K3, dtype=float)
    return (
        omega_2
        * gaussian_spectrum(omega1 - omega3, math.sqrt(2.0) * p.bandwidth)
        * np.exp(
            -r1 * _norm_sq(K1 - K3)
            - r2 * _norm_sq(K1 + K3)
            - r3 * (_norm_sq(K1) - _norm_sq(K3))
            + r4
        )
    )


def background_prefactor(kern: FieldKernels) -> float:
    """Overall photon-count scale of the background intensity."""
    q = kern.q
    return (
        2.0
        * q.detector_gain
        * math.pi**1.5
        * q.squeezing**2
        * kern.cfg.pump.waist**2
        * q.radial_scale**4
        / (q.crystal_beta**2 * kern.cfg.pump.bandwidth)
    )


def background_peak_value(kern: FieldKernels) -> float:
    """Closed-form value at r = ring radius (the removable-singularity limit)."""
    q = kern.q
    return background_prefactor(kern) * q.crystal_beta**2 / q.radial_scale**4


def background_intensity(kern: FieldKernels, X0):
    """Mean photon count of the spontaneous background at output plane
    positions X0 of shape (..., 2).  Rotationally symmetric; scales as
    the squared gain parameter.
    """
    return background_radial(kern, np.sqrt(_norm_sq(np.asarray(X0, dtype=float))))


def background_radial(kern: FieldKernels, r):
    """Background intensity as a function of output-plane radius [m]."""
    q = kern.q
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    R2 = q.radial_scale**2
    u = r * r - q.ring_radius**2
    omega_3 = background_prefactor(kern)

    # omega_3 (beta sin v / u^2 + 4 (u - R^2) sin^2(v/2) / u^3), v = beta u / R^2, from one sin
    # and one cos of v/2; u = 0 takes the series below
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / u
        half_v = (0.5 * q.crystal_beta / R2) * u
        half_sin = np.sin(half_v)
        sin_v = 2.0 * half_sin * np.cos(half_v)
        direct = (omega_3 * inv * inv) * (q.crystal_beta * sin_v
                                          + 4.0 * (u - R2) * (half_sin * half_sin) * inv)
    # the truncated depth expansion can undershoot zero by O((R^2/u)^2) of
    # the peak near the pattern zeros; the exact intensity is non-negative
    out = np.maximum(direct, 0.0)
    small = np.flatnonzero(np.abs(u) < RADIAL_CROSSOVER * R2)
    vv = u.flat[small] * (q.crystal_beta / R2)
    out.flat[small] = (omega_3 * q.crystal_beta**2 / R2**2) * (
        1.0
        - q.crystal_beta * vv / 12.0
        - vv**2 / 12.0
        + q.crystal_beta * vv**3 / 180.0
        + vv**4 / 360.0
    )
    return float(out[0]) if scalar else out
