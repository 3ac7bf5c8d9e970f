"""Stimulated output field: per-order amplitudes in the thin-crystal limit,
the leading-order idler closed form, the frequency-conversion efficiency
curve and the far-field intensity of the seeded process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import seed_shift
from .kernels import FieldKernels, gaussian_spectrum, _norm_sq

# Crossover between direct evaluation and the small-argument series for the
# removable singularities below; continuity at the seam is asserted in tests.
SERIES_CROSSOVER = 1e-3


@dataclass(frozen=True)
class OrderTerm:
    """A single interaction order of the transformed seed amplitude.

    ``order`` is the power of the gain parameter carried by the term.  Even
    orders build the amplified signal centered at ``+center``; odd orders
    build the phase-conjugated idler at ``-center``.  The total transformed
    amplitude subtracts the odd branch from the even one.
    """

    order: int
    branch: str                      # 'signal' (even) or 'idler' (odd)
    width: float                     # Gaussian width in K [m]
    bandwidth: float                 # spectral bandwidth [rad/s]
    prefactor: complex
    center: tuple[float, float]      # K location of the peak [1/m]
    omega_center: float

    def __call__(self, K, omega):
        spectral = gaussian_spectrum(np.asarray(omega) - self.omega_center, self.bandwidth)
        return (self.prefactor * spectral) * np.exp(
            -0.25 * self.width**2 * _norm_sq(K, self.center))


def zeta_orders(kern: FieldKernels, m_max: int) -> list[OrderTerm]:
    """Per-order terms of the transformed seed amplitude, orders 0..m_max.

    Widths shrink and bandwidths grow with the order; each order carries one
    more power of the gain parameter.  Order 0 is the seed itself.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    cfg, q = kern.cfg, kern.q
    s, p = cfg.seed, cfg.pump
    shift = seed_shift(cfg, q)
    xi0 = s.amplitude * np.exp(1j * s.phase)
    terms = []
    for j in range(m_max + 1):
        width = s.waist * p.waist / math.sqrt(p.waist**2 + j * s.waist**2)
        bw = s.bandwidth * math.sqrt(1.0 + j * q.bandwidth_ratio)
        scale = (
            math.sqrt(2.0 * math.pi)
            * width**2
            * (2.0 * q.squeezing) ** j
            * math.sqrt(s.bandwidth / bw)
            / (math.factorial(j) * s.waist)
        )
        if j % 2 == 0:
            prefactor = scale * xi0
            center = (shift[0], shift[1])
            branch = "signal"
        else:
            prefactor = scale * 1j * np.conj(xi0) * np.exp(-1j * p.phase)
            center = (-shift[0], -shift[1])
            branch = "idler"
        terms.append(
            OrderTerm(
                order=j,
                branch=branch,
                width=width,
                bandwidth=bw,
                prefactor=complex(prefactor),
                center=center,
                omega_center=q.omega_deg,
            )
        )
    return terms


def zeta_branches(terms, K, omega):
    """Signal and idler branch amplitudes; the total field is their difference."""
    shape = np.broadcast_shapes(_norm_sq(K).shape, np.shape(omega))
    signal = np.zeros(shape, dtype=complex)
    idler = np.zeros(shape, dtype=complex)
    for t in terms:
        if t.branch == "signal":
            signal = signal + t(K, omega)
        else:
            idler = idler + t(K, omega)
    return signal, idler


def idler_modulation(kappa, beta):
    """Complex modulation of the idler amplitude by the phase mismatch.

    The removable singularity at kappa = 0 is evaluated by series below
    |kappa| < 1e-3; its squared modulus is the efficiency curve.
    """
    kappa = np.asarray(kappa, dtype=float)
    out = np.empty(kappa.shape, dtype=complex)
    # (k - beta) (1 - exp(-i k)) / k^2 + i beta exp(-i k) / k from one sin and one cos of
    # k/2, 1 - cos k as 2 sin^2(k/2) against cancellation; k = 0 takes the series below
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / kappa
        half_sin = np.sin(0.5 * kappa)
        sin_k = 2.0 * half_sin * np.cos(0.5 * kappa)
        one_minus_cos = 2.0 * half_sin * half_sin
        ratio = (kappa - beta) * inv
        out.real = (ratio * one_minus_cos + beta * sin_k) * inv
        out.imag = (ratio * sin_k + beta * (1.0 - one_minus_cos)) * inv
    small = np.flatnonzero(np.abs(kappa) < SERIES_CROSSOVER)
    k = kappa.flat[small]
    out.flat[small] = (
        (1j + beta / 2.0)
        + k * (0.5 - 1j * beta / 3.0)
        + k**2 * (-1j / 6.0 - beta / 8.0)
        + k**3 * (-1.0 / 24.0 + 1j * beta / 30.0)
        + k**4 * (1j / 120.0 + beta / 144.0)
    )
    return out


def efficiency_f(a, beta):
    """Frequency-conversion efficiency versus the mismatch parameter: the
    squared modulus of ``idler_modulation``, whose direct form does not
    cancel near the series crossover.

    Non-negative, peaks near a = -6*beta/(6 + beta^2) and falls off like a
    squared sinc for large |a|.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    f = np.abs(idler_modulation(a, beta)) ** 2
    return float(f) if f.ndim == 0 else f


def idler_kappa(kern: FieldKernels, K):
    """Mismatch argument of the idler modulation at transverse wave vector K."""
    cfg, q = kern.cfg, kern.q
    wx2 = cfg.seed.waist**2
    L = cfg.crystal.length
    # L |w K - wx^2 K_xi|^2 / (4 kz_deg waist_sum^4), w = 2 wp^2 + wx^2, as scale |K - center|^2
    weight = 2.0 * cfg.pump.waist**2 + wx2
    center = [wx2 / weight * c for c in seed_shift(cfg, q)]
    scale = L * weight**2 / (4.0 * q.kz_deg * q.waist_sum**4)
    return scale * _norm_sq(K, center) - L * q.angular_mismatch


def zeta2_tca(kern: FieldKernels, K, omega):
    """Leading-order idler amplitude with phase-matching detail retained.

    Keeps the subleading depth dependence of the pair kernel, so unlike the
    thin-crystal-limit orders it resolves how the emission angle and the
    seed tilt control the conversion efficiency.
    """
    cfg, q = kern.cfg, kern.q
    s, p = cfg.seed, cfg.pump
    if s.amplitude == 0.0:
        shape = np.broadcast_shapes(_norm_sq(K).shape, np.shape(omega))
        return np.zeros(shape, dtype=complex)
    delta_s = math.hypot(p.bandwidth, s.bandwidth)
    omega_1 = (
        2.0
        * q.squeezing
        * (s.amplitude * np.exp(1j * (p.phase - s.phase)))
        * s.waist
        * p.waist**2
        * math.sqrt(2.0 * math.pi * s.bandwidth)
        / (delta_s**0.5 * q.waist_sum**2)
    )
    spectral = gaussian_spectrum(np.asarray(omega) - q.omega_deg, delta_s)
    width_sq = p.waist**2 * s.waist**2 / (4.0 * q.waist_sum**2)
    envelope = np.exp(-width_sq * _norm_sq(K, [-c for c in seed_shift(cfg, q)]))
    return (omega_1 * spectral) * (envelope * idler_modulation(idler_kappa(kern, K), q.idler_beta))


def optimal_seed_geometry(kern: FieldKernels) -> dict:
    """Mismatch, seed tilt and output-plane offset of peak conversion.

    Returns ``a_peak``, the mismatch argument -6 beta / (6 + beta^2) at
    which the conversion efficiency peaks (beta the config's
    ``idler_beta``); ``k_shift_opt`` [1/m], the transverse seed wave
    vector that puts the idler there, None where it is not real; and
    ``x_peak`` [m], the output-plane offset of the peak, which a seed
    ``g_factor`` of 1 aims at, None when the emission is too close to
    collinear for it to be real.
    """
    q = kern.q
    beta = q.idler_beta
    a_peak = -6.0 * beta / (6.0 + beta**2)
    L = kern.cfg.crystal.length
    k_shift_sq = q.kz_deg * q.angular_mismatch + q.kz_deg * a_peak / L
    return {
        "a_peak": a_peak,
        "k_shift_opt": math.sqrt(k_shift_sq) if k_shift_sq >= 0 else None,
        "x_peak": q.peak_radius,
    }


def field_polynomials(
    kern: FieldKernels, X0, mode: str = "coherent", model: str = "tca", m_max: int = 6
):
    """Stimulated output field at output-plane positions X0 as polynomials in
    the gain ratio t = squeezing / ``kern``'s squeezing.

    Returns one coefficient list per intensity contribution: a single list
    for the coherent sum signal + idler, the signal and the idler lists for
    ``mode='separate'``.  Entry j multiplies t**j, so t = 1 is the field of
    ``kern`` itself; a scalar 0 stands for a power the branch lacks.
    """
    if mode not in ("coherent", "separate"):
        raise ValueError("mode must be 'coherent' or 'separate'")
    q = kern.q
    K = np.asarray(X0, dtype=float) * (q.k_deg / kern.cfg.detector.focal_length)
    omega = q.omega_deg
    if model == "tca":
        signal = [kern.seed_profile(K, omega), 0.0]
        idler = [0.0, -zeta2_tca(kern, K, omega)]  # total field subtracts the idler
    elif model == "orders":
        # order j carries (2*squeezing)**j; the total field subtracts the idler
        signal, idler = [], []
        for t in zeta_orders(kern, m_max):
            amp = t(K, omega)
            signal.append(amp if t.branch == "signal" else 0.0)
            idler.append(-amp if t.branch == "idler" else 0.0)
    else:
        raise ValueError("model must be 'tca' or 'orders'")
    if mode == "coherent":
        return [[s + i for s, i in zip(signal, idler)]]
    return [signal, idler]


def intensity_coefficients(polys):
    """Real images q_k with sum over the lists of ``field_polynomials`` of
    |A(t)|^2 = sum_k q_k t^k: q_k = sum_(i+j=k) Re(conj(c_i) c_j), scalar 0s skipped."""
    q = [0.0] * (2 * max(len(coeffs) for coeffs in polys) - 1)
    for coeffs in polys:
        terms = [(i, c) for i, c in enumerate(coeffs) if np.ndim(c) or c != 0]
        for a, (i, ci) in enumerate(terms):
            for j, cj in terms[a:]:
                re = ci.real * cj.real + ci.imag * cj.imag
                q[i + j] = q[i + j] + (re if i == j else 2.0 * re)
    return q


def coefficient_intensity(q, t: float, derivative: bool = False):
    """sum_k q_k t^k by Horner's rule, clipped at 0 where it rounds below, as an
    expanded sum of squares can where fields cancel; with ``derivative`` also d/dt."""
    value, slope = q[-1], 0.0
    for c in reversed(q[:-1]):
        if derivative:
            slope = slope * t + value
        value = value * t + c
    value = np.maximum(value, 0.0)
    return (value, slope) if derivative else value


def stimulated_intensity(
    kern: FieldKernels,
    X0,
    mode: str = "coherent",
    model: str = "tca",
    m_max: int = 6,
):
    """Mean photon count of the stimulated output at output-plane position X0.

    ``model='tca'`` uses the seed plus the leading-order idler closed form;
    ``model='orders'`` sums thin-crystal-limit orders up to ``m_max``.
    ``mode`` selects the coherent combination |signal - idler|^2 (default)
    or the separate sum |signal|^2 + |idler|^2.
    """
    polys = field_polynomials(kern, X0, mode=mode, model=model, m_max=m_max)
    return kern.q.detector_gain * coefficient_intensity(intensity_coefficients(polys), 1.0)
