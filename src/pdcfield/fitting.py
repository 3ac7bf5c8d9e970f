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
from .kernels import FieldKernels, _PIXEL_BLOCK
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

    def powers(self) -> np.ndarray:
        """The powers k of xi whose coefficient is an image; a scalar 0, a
        power no branch has (q_1 with ``mode='separate'``), is left out."""
        return np.array([k for k, c in enumerate(self.coefficients) if np.ndim(c) or c != 0],
                        dtype=int)

    def images(self, shape) -> list:
        """[coefficients at ``powers``, background] as flat arrays of
        ``shape``'s size, so the intensity is sum_i image_weights[i] *
        images[i] before the clip."""
        return [np.ravel(np.broadcast_to(image, shape))
                for image in (*(self.coefficients[k] for k in self.powers()), self.background)]

    def image_weights(self, photons: float, squeezing: float) -> np.ndarray:
        """(n xi^k for k in ``powers``, xi^2), the weights of ``images``."""
        self._check(photons, squeezing)
        return np.append(photons * squeezing ** self.powers(), squeezing**2)

    def weight_derivatives(self, photons: float, squeezing: float):
        """Partial derivatives of ``image_weights`` in n and in xi."""
        self._check(photons, squeezing)
        k = self.powers()
        d_squeezing = photons * k * squeezing ** np.maximum(k - 1, 0)
        return (np.append(squeezing**k, 0.0), np.append(d_squeezing, 2.0 * squeezing))


class ForwardModel:
    """Evaluates the combined intensity for parameter overrides."""

    def __init__(self, cfg: ExperimentConfig, mode: str = "coherent", model: str = "tca",
                 m_max: int = 6):
        self.cfg = cfg
        self.mode = mode
        self.model = model
        self.m_max = m_max

    def basis(self, X0, **geometry) -> SeparableBasis:
        """Basis images at X0 for overrides other than n and xi.

        One ``FieldKernels`` serves every pixel.  The field polynomials, their
        intensity coefficients and the background are evaluated over
        consecutive blocks of ``_PIXEL_BLOCK`` flattened pixels, each written
        into preallocated output images, so the temporaries stay the size of
        a block and its passes stay in cache; every value is the one a
        whole-frame evaluation gives.  A coefficient that is a scalar 0 (a
        power no branch has) stays a scalar.  On a 2-core Xeon, for the
        default seed plus idler (minimum of 11 builds, two rounds): at 512²
        the tracemalloc peak is 14.2 MB, 6.8 frame arrays of which 4 are the
        output, and the build takes 28-41 ms; the whole frame at once peaked
        at 35.7 MB (17 frame arrays) and took 49-69 ms.  At 1024² the peak is
        39 MB against 143 MB, and the build 96-131 ms against 211-220 ms.
        """
        kern = FieldKernels(with_overrides(self.cfg, seed_photons=1.0, squeezing=1.0,
                                           **geometry))
        gain = kern.q.detector_gain
        X0 = np.asarray(X0, dtype=float)
        points = X0.reshape(-1, 2)
        background = np.empty(len(points))
        coefficients = None
        for start in range(0, max(len(points), 1), _PIXEL_BLOCK):
            block = slice(start, start + _PIXEL_BLOCK)
            polys = field_polynomials(kern, points[block], mode=self.mode, model=self.model,
                                      m_max=self.m_max)
            q = intensity_coefficients(polys)
            if coefficients is None:
                coefficients = [np.empty(len(points)) if np.ndim(c) else gain * c for c in q]
            for image, c in zip(coefficients, q):
                if np.ndim(image):
                    np.multiply(gain, c, out=image[block])
            background[block] = background_intensity(kern, points[block])
        shape = X0.shape[:-1]
        return SeparableBasis([c.reshape(shape) if np.ndim(c) else c for c in coefficients],
                              background.reshape(shape))

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


def weighted_gram(weights: np.ndarray, columns) -> np.ndarray:
    """M[i, j] = sum_p weights[p] * columns[i][p] * columns[j][p] for flat ``columns``.

    One product weights * columns[i] per row, into a reused buffer, and one
    dot product per entry on the arrays as they are, so no stacked copy of
    the columns is made.
    """
    gram = np.empty((len(columns), len(columns)))
    weighted = np.empty_like(weights)
    for i, column in enumerate(columns):
        np.multiply(weights, column, out=weighted)
        for j in range(i, len(columns)):
            gram[i, j] = gram[j, i] = weighted @ columns[j]
    return gram


class WeightedFit:
    """Weighted least squares of one image, held at its latest accepted point.

    ``free`` names the entries of ``theta``; every other parameter is pinned
    at ``fixed`` or the config value.  Between accepted points the weights
    w = 1/max(mu, 1) are fixed and the counts are linear in the basis images
    (``SeparableBasis.image_weights``), so every sum that IRLS needs is a
    quadratic form in the Gram M = C^T W C of the columns C = [basis images,
    one central-difference image per free geometry parameter, residual r]
    (weighted normal equations; McCullagh and Nelder, *Generalized Linear
    Models*, 1989).  With ``lift`` L taking a parameter step to weights of
    the other columns, J = C[:, :-1] L, J^T W J = L^T M[:-1, :-1] L and
    J^T W r = L^T M[:-1, -1].
    """

    BOUNDS = {
        "seed_photons": (0.0, math.inf),
        "squeezing": (0.0, math.inf),
        "seed_waist": (1e-9, math.inf),
        "pdc_angle": (0.0, math.pi / 2 * 0.999),
    }

    def __init__(self, model: ForwardModel, image: IntensityImage, free, fixed=None):
        self.model = model
        self.free = tuple(free)
        self.fixed = dict(fixed or {})
        self.defaults = {
            "seed_photons": model.cfg.seed.photons,
            "squeezing": model.cfg.derive().squeezing,
            "seed_waist": model.cfg.seed.waist,
            "pdc_angle": model.cfg.crystal.pdc_angle,
        }
        self.X0 = image.positions()
        self.data = image.values.ravel()
        self.scale = checked_exposure(image.exposure)

    def clip(self, theta) -> np.ndarray:
        return np.array([min(max(val, self.BOUNDS[name][0]), self.BOUNDS[name][1])
                         for name, val in zip(self.free, theta)], dtype=float)

    def _split(self, theta):
        """(geometry overrides, seed photons, squeezing) at ``theta``."""
        geometry = {**self.fixed, **dict(zip(self.free, theta))}
        photons = geometry.pop("seed_photons", self.defaults["seed_photons"])
        squeezing = geometry.pop("squeezing", self.defaults["squeezing"])
        return geometry, photons, squeezing

    def counts(self, theta, basis: SeparableBasis | None = None) -> np.ndarray:
        """Model counts at ``theta``, from ``basis`` if it is theta's geometry's."""
        geometry, photons, squeezing = self._split(theta)
        if basis is None:
            basis = self.model.basis(self.X0, **geometry)
        mu = basis.intensity(photons, squeezing).ravel()
        mu *= self.scale
        if not np.all(np.isfinite(mu)):
            raise ValueError(f"model counts are not finite at {dict(zip(self.free, theta))}")
        return mu

    def accept(self, theta, basis: SeparableBasis | None = None, mu: np.ndarray | None = None):
        """Move to ``theta`` and weigh by its counts; a trial passes the basis
        and counts it formed."""
        if basis is None:
            basis = self.model.basis(self.X0, **self._split(theta)[0])
        self.theta, self.basis = theta, basis
        self.mu = self.counts(theta, basis) if mu is None else mu
        self.residual = self.data - self.mu
        self.weights = np.reciprocal(np.maximum(self.mu, 1.0))

    @property
    def cost(self) -> float:
        return float(self.residual @ (self.weights * self.residual))

    def normal_equations(self):
        """J^T W J and J^T W r at the accepted point, from its Gram."""
        _, photons, squeezing = self._split(self.theta)
        columns = self.basis.images(self.X0.shape[:-1])
        analytic = dict(zip(("seed_photons", "squeezing"),
                            self.basis.weight_derivatives(photons, squeezing)))
        geometric = [j for j, name in enumerate(self.free) if name not in analytic]
        self.lift = np.zeros((len(columns) + len(geometric), len(self.free)))
        for j, name in enumerate(self.free):
            if name in analytic:
                self.lift[:len(columns), j] = self.scale * analytic[name]
        for row, j in enumerate(geometric, start=len(columns)):
            self.lift[row, j] = 1.0
            columns.append(self._difference(j))
        self.gram = weighted_gram(self.weights, [*columns, self.residual])
        return (self.lift.T @ self.gram[:-1, :-1] @ self.lift,
                self.lift.T @ self.gram[:-1, -1])

    def _difference(self, j: int) -> np.ndarray:
        """Central difference of the counts in free parameter ``j``: a 1e-4
        relative step, one-sided at an active bound, each side a new basis."""
        step = 1e-4 * max(abs(self.theta[j]), 1e-12)
        tp, tm = self.theta.copy(), self.theta.copy()
        tp[j] += step
        tm[j] -= step
        tp, tm = self.clip(tp), self.clip(tm)
        denom = tp[j] - tm[j]
        if denom == 0.0:
            return np.zeros_like(self.data)
        column = self.counts(tp)
        column -= self.counts(tm)
        column /= denom
        return column

    def trial(self, theta):
        """(cost change to ``theta`` under the accepted weights, theta's basis,
        theta's counts or None).

        At the accepted geometry the change is s^T M s - 2 s^T m, with s the
        step of the image weights and m = C^T W r; a new geometry takes its
        basis and one pass, sum w e (e - 2 r) with e the change of the counts.
        """
        geometry, photons, squeezing = self._split(theta)
        here, photons0, squeezing0 = self._split(self.theta)
        if geometry == here:
            new = self.basis.image_weights(photons, squeezing)
            step = np.zeros(len(self.lift))
            step[:new.size] = self.scale * (new - self.basis.image_weights(photons0, squeezing0))
            inner, cross = self.gram[:-1, :-1], self.gram[:-1, -1]
            return float(step @ inner @ step - 2.0 * (step @ cross)), self.basis, None
        basis = self.model.basis(self.X0, **geometry)
        mu = self.counts(theta, basis)
        change = mu - self.mu
        weighted = self.weights * change
        return float(weighted @ change - 2.0 * (weighted @ self.residual)), basis, mu


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
    (shot-noise variance) and a damped Gauss-Newton loop, the weights
    refreshed at each accepted point.  ``free`` names the parameters to
    vary; everything else is pinned at the config (or ``fixed``) values.

    One iteration makes one pass over the frame: the counts at the
    accepted point (a Horner pass over the separable basis), its weights and
    residual, and the weighted Gram of the k basis images (k = 4 for the
    default seed plus idler, 3 with ``mode='separate'``, whose q_1 is a
    scalar 0 and no column), one column per free geometry parameter and the
    residual, in k + g + 1 products and (k + g + 1)(k + g + 2)/2 dot
    products.  J^T W J, the gradient and the cost of every damped trial at
    the same geometry come from that matrix, so a fit of seed photons and
    squeezing builds its basis once and takes their Jacobian columns
    analytically.  Each free ``seed_waist`` or ``pdc_angle`` column is a
    central difference with a 1e-4 relative step, each side a new basis,
    and a trial that moves it costs its basis and one pass.

    ``status`` is 'converged' (and ``converged`` True) only when an accepted
    step's relative size falls below ``XTOL``; 'stalled' when 25 damping
    increases find no step that lowers the cost.  Raises ValueError if
    ``image.exposure`` is not finite and positive or the model counts are
    not finite.
    """
    free = tuple(free)
    if not free:
        raise ValueError("free parameter set must not be empty")
    for name in free:
        if name not in FIT_PARAMETERS:
            raise ValueError(f"unknown fit parameter {name!r}")
    if not np.any(image.values > 0):
        raise ValueError("image is identically zero; nothing to fit")

    problem = WeightedFit(model, image, free, fixed)
    init = {**problem.defaults, **(init or {})}
    problem.accept(problem.clip([init[name] for name in free]))

    lam = 1e-3
    status = "max_iterations"
    converged = False
    iterations = 0
    jtj = None
    for iterations in range(1, max_iterations + 1):
        jtj, grad = problem.normal_equations()
        diag = np.diag(jtj).copy()
        if np.any(diag <= 0) or np.linalg.cond(jtj) > 1e14:
            status = "not_identifiable"
            break

        theta = problem.theta
        accepted = False
        for _ in range(25):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = problem.clip(theta + delta)
            change, basis, mu = problem.trial(trial)
            if change <= 0.0:
                step_size = float(
                    np.max(np.abs(trial - theta) / np.maximum(np.abs(theta), 1e-12))
                )
                # iteratively reweighted: the next pass weighs by the
                # accepted model
                problem.accept(trial, basis, mu)
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
        parameters={name: float(val) for name, val in zip(free, problem.theta)},
        errors=errors,
        residual_norm=float(math.sqrt(problem.cost)),
        converged=converged,
        status=status,
        iterations=iterations,
    )
