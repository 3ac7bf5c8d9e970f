"""Combined intensity model, synthetic images and parameter recovery.

The forward model adds the stimulated field (seed plus leading idler by
default) and the spontaneous background.  Both are separable in the seed
photon number n and the gain parameter xi,

    I(x; n, xi) = n * P_x(xi) + xi^2 * d(x),

with P_x a polynomial in xi, so one set of basis images per geometry
gives every (n, xi) evaluation and its derivatives by array arithmetic.
Fitting is weighted nonlinear least squares with a damped Gauss-Newton
iteration, recovering any subset of the gain parameter, the seed photon
number and simple geometry parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, ExperimentConfig, with_overrides
from .kernels import FieldKernels
from .stimulated import (coefficient_intensity, field_polynomials, intensity_coefficients,
                         stimulated_intensity)
from .background import background_intensity

FIT_PARAMETERS = ("seed_photons", "squeezing", "seed_waist", "pdc_angle")

# Convergence: an accepted step smaller than this relative to every parameter
XTOL = 1e-12


def combined_intensity(
    kern: FieldKernels, X0, mode: str = "coherent", model: str = "tca", m_max: int = 6
):
    """Mean photon count per detector mode at output-plane positions X0."""
    return stimulated_intensity(kern, X0, mode=mode, model=model, m_max=m_max) + (
        background_intensity(kern, X0)
    )


def checked_exposure(exposure: float) -> float:
    """``exposure``, the model-to-counts scale, if it is finite and positive."""
    if not (math.isfinite(exposure) and exposure > 0):
        raise ValueError(f"exposure must be finite and positive, got {exposure!r}")
    return exposure


@dataclass
class IntensityImage:
    """Pixel map of mean photon counts over a regular output-plane grid."""

    x: np.ndarray               # pixel centers along x [m]
    y: np.ndarray               # pixel centers along y [m]
    values: np.ndarray          # shape (ny, nx), photon counts
    exposure: float = 1.0       # model-to-counts scale used at synthesis
    meta: dict = field(default_factory=dict)

    def positions(self) -> np.ndarray:
        XX, YY = np.meshgrid(self.x, self.y)
        return np.stack([XX, YY], axis=-1)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.y.size, self.x.size):
            raise ValueError("image shape does not match axes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("intensity values must be finite")
        if np.any(self.values < 0):
            raise ValueError("intensity values must be non-negative")
        checked_exposure(self.exposure)


@dataclass
class SeparableBasis:
    """Basis images of one geometry at seed photons n = 1 and gain xi = 1.

    ``intensity(n, xi)`` is n * sum_k coefficients[k] xi^k + xi^2 * d.
    ``coefficients`` holds gain * q_k, the real images of
    ``intensity_coefficients`` scaled by the detector gain, and
    ``background`` holds d, so an (n, xi) evaluation is a real Horner
    pass, eight real array operations for seed plus idler. It rounds to
    eps * n * gain * sum_b (sum_j |c_j| xi^j)^2, where c_j are the field
    polynomials' coefficients, not eps times the intensity, so precision
    is absolute where signal and idler cancel.
    """

    coefficients: list
    background: np.ndarray

    @staticmethod
    def _check(photons, squeezing):
        if photons < 0:
            raise ConfigError("'seed_photons' must be non-negative")
        if squeezing < 0:
            raise ConfigError("'crystal.squeezing' must be non-negative")

    def intensity(self, photons: float, squeezing: float) -> np.ndarray:
        self._check(photons, squeezing)
        return (photons * coefficient_intensity(self.coefficients, squeezing)
                + squeezing**2 * self.background)

    def derivatives(self, photons: float, squeezing: float):
        """Partial derivatives of the intensity in n and in xi."""
        self._check(photons, squeezing)
        per_photon, slope = coefficient_intensity(self.coefficients, squeezing, derivative=True)
        return per_photon, photons * slope + 2.0 * squeezing * self.background


class ForwardModel:
    """Evaluates the combined intensity for parameter overrides."""

    def __init__(self, cfg: ExperimentConfig, mode: str = "coherent", model: str = "tca",
                 m_max: int = 6):
        self.cfg = cfg
        self.mode = mode
        self.model = model
        self.m_max = m_max

    def basis(self, X0, **geometry) -> SeparableBasis:
        """Basis images at X0 for overrides other than n and xi."""
        kern = FieldKernels(with_overrides(self.cfg, seed_photons=1.0, squeezing=1.0,
                                           **geometry))
        polys = field_polynomials(kern, X0, mode=self.mode, model=self.model,
                                  m_max=self.m_max)
        gain = kern.q.detector_gain
        return SeparableBasis([gain * q for q in intensity_coefficients(polys)],
                              background_intensity(kern, X0))

    def intensity(self, X0, **overrides) -> np.ndarray:
        photons = overrides.pop("seed_photons", self.cfg.seed.photons)
        squeezing = (overrides.pop("squeezing") if "squeezing" in overrides
                     else self.cfg.derive().squeezing)
        return self.basis(X0, **overrides).intensity(photons, squeezing)


def synthesize_image(
    model: ForwardModel,
    x: np.ndarray,
    y: np.ndarray,
    noise: str = "none",
    seed: int = 0,
    exposure: float = 1.0,
    **overrides,
) -> IntensityImage:
    """Render the model on a pixel grid, optionally with shot noise.

    Poisson counts are drawn with mean equal to the model value times
    ``exposure``; a fixed seed gives identical images on every call.
    """
    checked_exposure(exposure)
    X0 = np.stack(np.meshgrid(x, y), axis=-1)
    mean = model.intensity(X0, **overrides) * exposure
    if noise == "none":
        values = mean
    elif noise == "poisson":
        rng = np.random.default_rng(seed)
        values = rng.poisson(mean).astype(float)
    else:
        raise ValueError("noise must be 'none' or 'poisson'")
    return IntensityImage(
        x=np.asarray(x, float),
        y=np.asarray(y, float),
        values=values,
        exposure=exposure,
        meta={"noise": noise, "seed": seed, "overrides": dict(overrides)},
    )


@dataclass
class FitResult:
    parameters: dict            # fitted values by name
    errors: dict                # Gauss-Newton standard errors
    residual_norm: float        # sqrt(sum of weighted squared residuals)
    converged: bool
    status: str                 # 'converged', 'max_iterations', 'not_identifiable', 'stalled'
    iterations: int


def fit_parameters(
    model: ForwardModel,
    image: IntensityImage,
    free=("seed_photons", "squeezing"),
    init: dict | None = None,
    fixed: dict | None = None,
    max_iterations: int = 60,
) -> FitResult:
    """Recover parameters from an intensity image.

    Weighted least squares with per-pixel weights 1/max(counts_model, 1)
    (shot-noise variance) and a damped Gauss-Newton loop.  Every evaluation
    reuses the separable basis of the current geometry, so a fit of seed
    photons and squeezing builds it once and takes their Jacobian columns
    analytically; ``seed_waist`` and ``pdc_angle`` columns are central
    differences with a 1e-4 relative step, each side a new basis.  ``free``
    names the parameters to vary; everything else is pinned at the config
    (or ``fixed``) values.  ``status`` is 'converged' (and ``converged``
    True) only when an accepted step's relative size falls below ``XTOL``;
    'stalled' when 25 damping increases find no step that lowers the cost.
    Raises ValueError if ``image.exposure`` is not finite and positive or
    the model counts are not finite.
    """
    free = tuple(free)
    if not free:
        raise ValueError("free parameter set must not be empty")
    for name in free:
        if name not in FIT_PARAMETERS:
            raise ValueError(f"unknown fit parameter {name!r}")
    if not np.any(image.values > 0):
        raise ValueError("image is identically zero; nothing to fit")

    fixed = dict(fixed or {})
    defaults = {
        "seed_photons": model.cfg.seed.photons,
        "squeezing": model.cfg.derive().squeezing,
        "seed_waist": model.cfg.seed.waist,
        "pdc_angle": model.cfg.crystal.pdc_angle,
    }
    init = {**defaults, **(init or {})}
    bounds = {
        "seed_photons": (0.0, math.inf),
        "squeezing": (0.0, math.inf),
        "seed_waist": (1e-9, math.inf),
        "pdc_angle": (0.0, math.pi / 2 * 0.999),
    }

    X0 = image.positions()
    data = image.values.ravel()
    scale = checked_exposure(image.exposure)

    latest = {}  # geometry and basis of the latest evaluation

    def basis_at(theta):
        geometry = {**fixed, **dict(zip(free, theta))}
        photons = geometry.pop("seed_photons", defaults["seed_photons"])
        squeezing = geometry.pop("squeezing", defaults["squeezing"])
        if latest.get("geometry") != geometry:
            latest.update(geometry=geometry, basis=model.basis(X0, **geometry))
        return latest["basis"], photons, squeezing

    def model_counts(theta):
        basis, photons, squeezing = basis_at(theta)
        mu = basis.intensity(photons, squeezing).ravel() * scale
        if not np.all(np.isfinite(mu)):
            raise ValueError(f"model counts are not finite at {dict(zip(free, theta))}")
        return mu

    def clip(theta):
        out = []
        for name, val in zip(free, theta):
            lo, hi = bounds[name]
            out.append(min(max(val, lo), hi))
        return np.array(out)

    theta = clip(np.array([init[name] for name in free], dtype=float))
    mu = model_counts(theta)
    weights = 1.0 / np.maximum(mu, 1.0)
    resid = data - mu
    cost = float(np.sum(weights * resid**2))

    lam = 1e-3
    status = "max_iterations"
    converged = False
    iterations = 0
    jtj = None
    for iterations in range(1, max_iterations + 1):
        basis, photons, squeezing = basis_at(theta)
        d_photons, d_squeezing = basis.derivatives(photons, squeezing)
        analytic = {"seed_photons": d_photons, "squeezing": d_squeezing}
        jac = np.empty((data.size, len(free)))
        for j, name in enumerate(free):
            if name in analytic:
                jac[:, j] = np.ravel(analytic[name]) * scale
                continue
            step = 1e-4 * max(abs(theta[j]), 1e-12)
            tp, tm = theta.copy(), theta.copy()
            tp[j] += step
            tm[j] -= step
            tp, tm = clip(tp), clip(tm)  # one-sided at an active bound
            denom = tp[j] - tm[j]
            if denom == 0.0:
                jac[:, j] = 0.0
                continue
            jac[:, j] = (model_counts(tp) - model_counts(tm)) / denom
        weighted = jac * weights[:, None]
        jtj = weighted.T @ jac
        grad = resid @ weighted  # weighted.T @ resid takes a slow matmul path
        diag = np.diag(jtj).copy()
        if np.any(diag <= 0) or np.linalg.cond(jtj) > 1e14:
            status = "not_identifiable"
            break

        accepted = False
        for _ in range(25):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = clip(theta + delta)
            mu_t = model_counts(trial)
            cost_t = float(np.sum(weights * (data - mu_t) ** 2))
            if cost_t <= cost:
                step_size = float(
                    np.max(np.abs(trial - theta) / np.maximum(np.abs(theta), 1e-12))
                )
                theta, mu = trial, mu_t
                resid = data - mu
                lam = max(lam * 0.3, 1e-12)
                accepted = True
                if step_size < XTOL:
                    status = "converged"
                    converged = True
                break
            lam *= 10.0
        if not accepted:
            # damping ran out before the step size met XTOL: no step lowered
            # the cost, which is not convergence
            status = "stalled"
            break
        # iteratively reweighted: refresh the shot-noise weights at the
        # accepted model before the next pass
        weights = 1.0 / np.maximum(mu, 1.0)
        cost = float(np.sum(weights * resid**2))
        if converged:
            break

    errors = {}
    if jtj is not None and status != "not_identifiable":
        try:
            cov = np.linalg.inv(jtj)
            errors = {
                name: float(math.sqrt(max(cov[j, j], 0.0)))
                for j, name in enumerate(free)
            }
        except np.linalg.LinAlgError:
            errors = {}

    return FitResult(
        parameters={name: float(val) for name, val in zip(free, theta)},
        errors=errors,
        residual_norm=float(math.sqrt(cost)),
        converged=converged,
        status=status,
        iterations=iterations,
    )
