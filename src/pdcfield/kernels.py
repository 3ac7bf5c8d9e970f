"""Closed-form field kernels: spectra, beam profiles, phase mismatch, the
bilinear pair-creation kernel and its thin-crystal contractions.

Wave vectors are split into a transverse part ``K`` (arrays of shape
(..., 2), units 1/m) and an angular frequency ``omega`` (rad/s).  All
functions broadcast over leading dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, DerivedQuantities, seed_shift

# Pixels (or CSV rows) per block of frame-sized elementwise work, so that a
# chain of passes stays in cache and its temporaries do not grow with the
# frame.  On a 2-core Xeon (2 MB L2 per core), minimum of 9 runs per size at
# 512² and 1024²: the forward-model basis is fastest from 16k to 32k pixels
# per block (29-31 ms and 110-111 ms, against 48 ms and 253 ms in one block),
# the image-CSV writer from 32k to 64k rows (43-53 ms and 184-186 ms, against
# 61 ms and 380 ms); 32k keeps a real block array at 256 kB.
_PIXEL_BLOCK = 32768


def gaussian_spectrum(offset, bandwidth):
    """Normalized real spectral amplitude h(offset, bandwidth).

    Satisfies the power normalization: the integral of h^2 over all
    frequencies equals 2*pi, so h^2 tends to 2*pi*delta(offset) in the
    monochromatic limit.
    """
    if np.any(np.asarray(bandwidth) <= 0):
        raise ValueError("bandwidth must be positive")
    offset = np.asarray(offset, dtype=float)
    return np.sqrt(2.0 * math.sqrt(math.pi) / bandwidth) * np.exp(
        -(offset**2) / (2.0 * np.asarray(bandwidth, dtype=float) ** 2)
    )


def _norm_sq(K, center=(0.0, 0.0)):
    """|K - center|^2 over the trailing axis of length 2, one component at a time."""
    K = np.asarray(K, dtype=float)
    dx, dy = K[..., 0] - center[0], K[..., 1] - center[1]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


@dataclass(frozen=True)
class ContractedKernel:
    """One closed-form term of the thin-crystal kernel expansion.

    ``order`` counts contracted pair kernels; odd orders couple modes whose
    transverse wave vectors sum to zero, even orders couple equal ones.
    """

    order: int
    parity: str                 # 'odd' or 'even'
    prefactor: complex          # includes the -i for odd orders
    gauss_width: float          # w_p / sqrt(order): Gaussian scale in K [m]
    bandwidth: float            # sqrt(order) * pump bandwidth [rad/s]
    omega_pump: float
    peak_magnitude: float       # |value| on the kernel peak at degeneracy

    def __call__(self, K1, K2, omega1, omega2):
        k_exp, w_exp, base = _pair_geometry(
            self.parity, K1, K2, omega1, omega2, self.gauss_width, self.bandwidth, self.omega_pump
        )
        spectral_peak = gaussian_spectrum(0.0, self.bandwidth)
        return self.prefactor * spectral_peak * base**self.order * np.exp(-(k_exp + w_exp))


def _pair_geometry(parity, K1, K2, omega1, omega2, gauss_width, bandwidth, omega_pump):
    """Order-independent pieces of a thin-crystal term: the Gaussian
    exponent in its transverse part 0.25 w^2 |K1 -/+ K2|^2, which depends on
    K only, and its spectral part offset^2 / (2 bw^2), which depends on
    omega only, at the given width and bandwidth; and the frequency base
    whose m-th power an order-m term carries.  Odd orders pair K1 with -K2
    and omega2 with the pump's complement of omega1; even orders pair equal
    modes.
    """
    K1 = np.asarray(K1, dtype=float)
    K2 = np.asarray(K2, dtype=float)
    omega1 = np.asarray(omega1, dtype=float)
    omega2 = np.asarray(omega2, dtype=float)
    if parity == "odd":
        K2, offset, partner = -K2, omega_pump - omega1 - omega2, omega2
    else:
        offset, partner = omega1 - omega2, omega_pump - omega1
    dx, dy = K1[..., 0] - K2[..., 0], K1[..., 1] - K2[..., 1]
    k_exp = 0.25 * gauss_width**2 * (dx * dx + dy * dy)
    w_exp = offset**2 / (2.0 * bandwidth**2)
    return k_exp, w_exp, np.sqrt(omega1 * partner)


class FieldKernels:
    """Evaluator bundle for one experiment configuration.

    All methods are pure; instances are immutable and safe to share.
    """

    def __init__(self, cfg: ExperimentConfig, derived: DerivedQuantities | None = None):
        self.cfg = cfg
        self.q = derived if derived is not None else cfg.derive()
        # |Omega_0| = M0*M1/L; the pump phase enters as exp(-i*phase).
        self._pair_amplitude = (
            self.q.kernel_prefactor * self.q.order_gain / cfg.crystal.length
        )
        # constant phase of the pair kernel and of every odd-order term
        self.pair_phase = -1j * np.exp(-1j * cfg.pump.phase)

    # -- beam profiles -------------------------------------------------

    def seed_profile(self, K, omega):
        """Seed parameter function, shifted in the Fourier domain."""
        s = self.cfg.seed
        scale = math.sqrt(2.0 * math.pi) * s.waist * s.amplitude * np.exp(1j * s.phase)
        spectral = gaussian_spectrum(np.asarray(omega) - self.q.omega_deg, s.bandwidth)
        shift = seed_shift(self.cfg, self.q)
        return (scale * spectral) * np.exp(-0.25 * s.waist**2 * _norm_sq(K, shift))

    # -- dispersion helpers --------------------------------------------

    def wavenumber(self, omega):
        """k(omega) inside the crystal [1/m]."""
        return np.asarray(omega) * self.cfg.crystal.refractive_index / 299792458.0

    def kz(self, omega):
        """Beam-axis z-component k_z(omega) [1/m]."""
        return self.wavenumber(omega) * math.cos(self.cfg.crystal.pdc_angle)

    def chi(self, omega):
        """k^2/k_z - k_z at the given frequency [1/m]."""
        return (
            self.wavenumber(omega)
            * math.sin(self.cfg.crystal.pdc_angle) ** 2
            / math.cos(self.cfg.crystal.pdc_angle)
        )

    def phase_mismatch(self, K1, K2, omega1, omega2):
        """Longitudinal wave-vector mismatch for noncollinear emission [1/m].

        Symmetric under simultaneous swap of (K1, omega1) and (K2, omega2);
        vanishes on-axis at degeneracy for collinear emission.
        """
        kz1 = np.asarray(self.kz(omega1))
        kz2 = np.asarray(self.kz(omega2))
        K1 = np.asarray(K1, dtype=float)
        K2 = np.asarray(K2, dtype=float)
        # one component at a time: (N, 1, 2) and (1, N, 2) inputs never
        # form an (N, N, 2) array
        rx = K1[..., 0] / kz1 - K2[..., 0] / kz2
        ry = K1[..., 1] / kz1 - K2[..., 1] / kz2
        quad = 0.5 * (kz1 * kz2 / (kz1 + kz2)) * (rx * rx + ry * ry)
        return quad - 0.5 * self.chi(omega1) - 0.5 * self.chi(omega2)

    # -- bilinear kernel -----------------------------------------------

    def bilinear_kernel(self, K1, K2, omega1, omega2, z=0.0):
        """Pair-creation kernel between two down-converted modes at depth z:
        ``pair_phase * bilinear_magnitude * exp(i z phase_mismatch)``.

        At a scalar z = 0 the phase factor is exactly 1, so neither the
        mismatch nor the complex exponential is evaluated: one 48³ kernel
        of the zero-depth pair contraction in ``validate`` takes 2.6 ms
        against 6.7 ms with them (2-core Xeon, minimum of 15).  The values
        are unchanged, except that a real part the unit factor made +0 may
        now read -0."""
        kernel = self.pair_phase * self.bilinear_magnitude(K1, K2, omega1, omega2)
        if np.ndim(z) == 0 and z == 0:
            return kernel
        return kernel * np.exp(1j * z * self.phase_mismatch(K1, K2, omega1, omega2))

    def bilinear_magnitude(self, K1, K2, omega1, omega2):
        """|bilinear_kernel|; z-independent and elementwise positive."""
        p = self.cfg.pump
        K1 = np.asarray(K1, dtype=float)
        K2 = np.asarray(K2, dtype=float)
        omega1 = np.asarray(omega1, dtype=float)
        omega2 = np.asarray(omega2, dtype=float)
        sx = K1[..., 0] + K2[..., 0]
        sy = K1[..., 1] + K2[..., 1]
        return (
            self._pair_amplitude
            * np.sqrt(omega1 * omega2)
            * gaussian_spectrum(omega1 + omega2 - p.omega, p.bandwidth)
            * np.exp(-0.25 * p.waist**2 * (sx * sx + sy * sy))
        )

    # -- thin-crystal contracted kernels --------------------------------

    def contracted_kernel(self, order: int, parity: str | None = None) -> ContractedKernel:
        """Closed form for `order` contracted pair kernels (thin-crystal limit)."""
        if order < 1:
            raise ValueError("order must be >= 1")
        expected = "odd" if order % 2 else "even"
        if parity is not None and parity != expected:
            raise ValueError(f"order {order} is {expected}, not {parity}")
        q = self.q
        m = order
        scale = q.kernel_prefactor * q.order_gain**m / (m**1.25 * math.factorial(m))
        prefactor = -1j * scale if m % 2 else scale
        bandwidth = math.sqrt(m) * self.cfg.pump.bandwidth
        peak = scale * q.omega_deg**m * gaussian_spectrum(0.0, bandwidth)
        return ContractedKernel(
            order=m,
            parity=expected,
            prefactor=prefactor,
            gauss_width=self.cfg.pump.waist / math.sqrt(m),
            bandwidth=bandwidth,
            omega_pump=self.cfg.pump.omega,
            peak_magnitude=float(peak),
        )

    def thin_crystal_terms(self, parity: str, K1, K2, omega1, omega2,
                           n_max: int = 32, tol: float = 1e-10):
        """Orders of one thin-crystal kernel sum, as K x omega factor pairs.

        ``parity`` 'even' gives the forward sum (orders 2, 4, ...), 'odd'
        the conjugate sum (orders 1, 3, ..., weight 2, without the pair
        phase).  Yields ``(order, peak, k_factor, w_factor)`` per order m:
        ``peak`` is the term's on-peak magnitude, ``k_factor`` =
        exp(-k_exp / m) depends on K only and ``w_factor`` = peak *
        (base / omega_deg)**m * exp(-w_exp / m) on omega only, and the term
        is their product.  The sum stops once the next term's on-peak
        magnitude falls below ``tol`` times the running peak sum, capped at
        ``n_max`` terms.
        """
        p = self.cfg.pump
        k_exp, w_exp, base = _pair_geometry(
            parity, K1, K2, omega1, omega2, p.waist, p.bandwidth, p.omega
        )
        base = base / self.q.omega_deg
        base_sq = base * base
        power = base if parity == "odd" else base_sq
        weight = 2.0 if parity == "odd" else 1.0
        running_peak = 0.0
        for n in range(1, n_max + 1):
            m = 2 * n - 1 if parity == "odd" else 2 * n
            peak = weight * 4.0**-n * self.contracted_kernel(m).peak_magnitude
            if n > 1 and peak < tol * max(running_peak, 1.0e-300):
                return
            if n > 1:
                power = power * base_sq
            running_peak += peak
            yield m, peak, np.exp(k_exp * (-1.0 / m)), peak * power * np.exp(w_exp * (-1.0 / m))

    def thin_crystal_uv(self, K1, K2, omega1, omega2, n_max: int = 32, tol: float = 1e-10):
        """Bogoliubov kernel sums in the thin-crystal limit.

        Returns ``(u_smooth, v, info)`` where the full forward kernel is the
        identity plus ``u_smooth`` (real).  Each sum adds the orders of
        `thin_crystal_terms`, each the product of its K and omega factors
        broadcast to the output shape; ``info`` reports the order and
        on-peak magnitude of the last included terms.
        """
        info = {"u_order": 0, "v_order": 0, "u_last": 0.0, "v_last": 0.0}
        shape = np.broadcast_shapes(
            np.shape(K1)[:-1], np.shape(K2)[:-1], np.shape(omega1), np.shape(omega2)
        )
        sums = {}
        for key, parity in (("u", "even"), ("v", "odd")):
            total = np.zeros(shape)
            for m, peak, k_factor, w_factor in self.thin_crystal_terms(
                parity, K1, K2, omega1, omega2, n_max, tol
            ):
                total += k_factor * w_factor
                info[f"{key}_order"] = m
                info[f"{key}_last"] = peak
            sums[key] = total
        return sums["u"], self.pair_phase * sums["v"], info
