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

    def pixels(self, block: slice) -> "SeparableBasis":
        """The basis on the flat pixel range ``block``, as views of its images."""
        return SeparableBasis([c.reshape(-1)[block] if np.ndim(c) else c
                               for c in self.coefficients], self.background.reshape(-1)[block])

    def images(self) -> list:
        """[coefficients at ``powers``, background], the intensity being
        sum_i image_weights[i] * images[i] before the clip; a scalar
        coefficient is broadcast to the background's shape."""
        return [c if np.ndim(c) else np.broadcast_to(c, self.background.shape)
                for c in (*(self.coefficients[k] for k in self.powers()), self.background)]

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


def _pixel_blocks(size: int):
    """Consecutive slices of at most ``_PIXEL_BLOCK`` of ``size`` flat pixels
    (one empty slice for an empty frame)."""
    for start in range(0, max(size, 1), _PIXEL_BLOCK):
        yield slice(start, min(start + _PIXEL_BLOCK, size))


def _pixel_points(x, y, block: slice) -> np.ndarray:
    """Positions (pixels, 2) of the flat ``block`` of the frame on axes ``x``
    and ``y``, row-major with x varying fastest, as ``image`` writes it."""
    row, col = np.divmod(np.arange(block.start, block.stop), x.size)
    return np.stack([x[col], y[row]], axis=-1)


class ForwardModel:
    """Evaluates the combined intensity for parameter overrides."""

    def __init__(self, cfg: ExperimentConfig, mode: str = "coherent", model: str = "tca",
                 m_max: int = 6):
        self.cfg = cfg
        self.mode = mode
        self.model = model
        self.m_max = m_max

    def _kernels(self, **geometry) -> FieldKernels:
        """The kernels of the basis: ``geometry`` overrides at n = xi = 1."""
        return FieldKernels(with_overrides(self.cfg, seed_photons=1.0, squeezing=1.0,
                                           **geometry))

    def _evaluate(self, kern: FieldKernels, points) -> SeparableBasis:
        """The basis of ``kern`` at ``points`` (pixels, 2), in one evaluation."""
        gain = kern.q.detector_gain
        # the field polynomials are dropped before the background is evaluated
        coefficients = intensity_coefficients(field_polynomials(
            kern, points, mode=self.mode, model=self.model, m_max=self.m_max))
        coefficients = [np.multiply(c, gain, out=c) if np.ndim(c) else gain * c
                        for c in coefficients]
        return SeparableBasis(coefficients, background_intensity(kern, points))

    def basis(self, x, y, **geometry) -> SeparableBasis:
        """Basis images on the pixel grid of axes ``x`` and ``y``, shape
        (y.size, x.size), for overrides other than n and xi.

        One ``FieldKernels`` serves every pixel.  The field polynomials, their
        intensity coefficients and the background are evaluated over
        consecutive blocks of ``_PIXEL_BLOCK`` pixels, whose positions are
        formed from the axes per block, and each block is written into
        preallocated output images, so the temporaries stay the size of a
        block and its passes stay in cache; every value is the one a
        whole-frame evaluation gives.  A coefficient that is a scalar 0 (a
        power no branch has) stays a scalar.  On a 2-core Xeon, for the
        default seed plus idler: at 512² the tracemalloc peak is 13.1 MB, 6.3
        frame arrays of which 4 are the output (6.8 with the positions passed
        in as a frame and the field polynomials kept through the background,
        17 on the whole frame at once), and the build takes 29-30 ms (minimum
        and median of 11); at 1024² the peak is 38.3 MB, 4.6 frame arrays.
        """
        kern = self._kernels(**geometry)
        x, y = np.asarray(x, dtype=float).ravel(), np.asarray(y, dtype=float).ravel()
        shape = (y.size, x.size)
        background = np.empty(shape)
        coefficients = None
        for block in _pixel_blocks(background.size):
            part = self._evaluate(kern, _pixel_points(x, y, block))
            if coefficients is None:
                coefficients = [np.empty(shape) if np.ndim(c) else c for c in part.coefficients]
            for image, c in zip(coefficients, part.coefficients):
                if np.ndim(image):
                    image.reshape(-1)[block] = c
            background.reshape(-1)[block] = part.background
            del part  # not kept alive through the next block's evaluation
        return SeparableBasis(coefficients, background)

    def intensity(self, x, y, **overrides) -> np.ndarray:
        """The intensity on the pixel grid of axes ``x`` and ``y``."""
        photons = overrides.pop("seed_photons", self.cfg.seed.photons)
        squeezing = (overrides.pop("squeezing") if "squeezing" in overrides
                     else self.cfg.derive().squeezing)
        return self.basis(x, y, **overrides).intensity(photons, squeezing)


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
    mean = model.intensity(x, y, **overrides) * exposure
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


def weighted_gram(weights: np.ndarray, columns, buffer: np.ndarray) -> np.ndarray:
    """M[i, j] = sum_p weights[p] * columns[i][p] * columns[j][p] for ``columns``
    of one pixel block.

    One product weights * columns[i] per row, into ``buffer``, and one dot
    product per entry on the columns as they are (views of the basis images
    among them), so no stacked copy of the columns is made.
    """
    gram = np.empty((len(columns), len(columns)))
    for i, column in enumerate(columns):
        weighted = np.multiply(weights, column, out=buffer)
        for j in range(i, len(columns)):
            gram[i, j] = gram[j, i] = weighted @ columns[j]
    return gram


class WeightedFit:
    """Weighted least squares of one image, held at its latest accepted point
    as (theta, basis, Gram, cost).

    ``free`` names the entries of ``theta``; every other parameter is pinned
    at ``fixed`` or the config value.  Between accepted points the weights
    w = 1/max(mu, 1) are fixed and the counts are linear in the basis images
    (``SeparableBasis.image_weights``), so every sum that IRLS needs is a
    quadratic form in the Gram M = C^T W C of the columns C = [basis images,
    one central-difference image per free geometry parameter, residual r]
    (weighted normal equations; McCullagh and Nelder, *Generalized Linear
    Models*, 1989).  With ``lift`` L taking a parameter step to weights of
    the other columns, J = C[:, :-1] L, J^T W J = L^T M[:-1, :-1] L and
    J^T W r = L^T M[:-1, -1].  The counts, residual, weights, pixel
    positions and difference columns exist one block of ``_PIXEL_BLOCK``
    pixels at a time, inside ``accept`` and ``trial``; only the data and the
    basis images are frames.  Holding mu, r and w as frames and the positions
    as two more, the fit peaked at 11 frame arrays above entry; it now peaks
    at its basis build (``fit_parameters``).
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
        self.x, self.y = image.x, image.y
        self.data = image.values.reshape(-1)
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

    def _counts(self, theta, basis: SeparableBasis) -> np.ndarray:
        """Model counts at ``theta`` from ``basis``, theta's geometry's basis on
        the pixels wanted."""
        _, photons, squeezing = self._split(theta)
        mu = basis.intensity(photons, squeezing).ravel()
        mu *= self.scale
        if not np.all(np.isfinite(mu)):
            raise ValueError(f"model counts are not finite at {dict(zip(self.free, theta))}")
        return mu

    def accept(self, theta, basis: SeparableBasis | None = None):
        """Move to ``theta`` (with its basis, if a trial formed it) and form its
        Gram in one pass over the pixel blocks.

        Per block: the counts (the same Horner pass, clip, exposure scale
        and finite check as a whole frame), the residual, the weights
        1/max(mu, 1), each free geometry parameter's central difference of
        the counts (a 1e-4 relative step, one-sided at an active bound, each
        side its geometry's kernels, built once per pass, evaluated on the
        block) and the block's share of C^T W C (``weighted_gram``).
        """
        geometry, photons, squeezing = self._split(theta)
        if basis is None:
            basis = self.model.basis(self.x, self.y, **geometry)
        self.theta, self.basis = theta, basis
        analytic = dict(zip(("seed_photons", "squeezing"),
                            basis.weight_derivatives(photons, squeezing)))
        n_images = basis.powers().size + 1
        geometric = [j for j, name in enumerate(self.free) if name not in analytic]
        self.lift = np.zeros((n_images + len(geometric), len(self.free)))
        for j, name in enumerate(self.free):
            if name in analytic:
                self.lift[:n_images, j] = self.scale * analytic[name]
        sides = []
        for row, j in enumerate(geometric, start=n_images):
            self.lift[row, j] = 1.0
            sides.append(self._sides(j))
        weighted = np.empty(min(self.data.size, _PIXEL_BLOCK))
        self.gram = np.zeros((len(self.lift) + 1, len(self.lift) + 1))
        for block in _pixel_blocks(self.data.size):
            part = basis.pixels(block)
            columns = part.images()
            if sides:
                points = _pixel_points(self.x, self.y, block)
                columns += [self._difference(side, points) for side in sides]
            mu = self._counts(theta, part)
            columns.append(self.data[block] - mu)
            weights = np.reciprocal(np.maximum(mu, 1.0, out=mu), out=mu)
            self.gram += weighted_gram(weights, columns, weighted[:mu.size])

    def _sides(self, j: int):
        """(theta + step, theta - step, their kernels, the step between them)
        for the central difference in free parameter ``j``, or None where
        clipping leaves no step."""
        step = 1e-4 * max(abs(self.theta[j]), 1e-12)
        tp, tm = self.theta.copy(), self.theta.copy()
        tp[j] += step
        tm[j] -= step
        tp, tm = self.clip(tp), self.clip(tm)
        if tp[j] == tm[j]:
            return None
        return (tp, tm, self.model._kernels(**self._split(tp)[0]),
                self.model._kernels(**self._split(tm)[0]), tp[j] - tm[j])

    def _difference(self, sides, points) -> np.ndarray:
        """The central difference of the counts at ``points`` between ``sides``."""
        if sides is None:  # no room for a step on either side
            return np.zeros(len(points))
        tp, tm, kern_p, kern_m, denom = sides
        column = self._counts(tp, self.model._evaluate(kern_p, points))
        column -= self._counts(tm, self.model._evaluate(kern_m, points))
        column /= denom
        return column

    @property
    def cost(self) -> float:
        return float(self.gram[-1, -1])

    def normal_equations(self):
        """J^T W J and J^T W r at the accepted point, lifted from its Gram."""
        return (self.lift.T @ self.gram[:-1, :-1] @ self.lift,
                self.lift.T @ self.gram[:-1, -1])

    def trial(self, theta):
        """(cost change to ``theta`` under the accepted weights, theta's basis).

        At the accepted geometry the change is s^T M s - 2 s^T m, with s the
        step of the image weights and m = C^T W r; a new geometry takes its
        basis and one pass over the blocks, sum w e (e - 2 r) with e the
        change of the counts, recomputing the accepted counts per block.
        """
        geometry, photons, squeezing = self._split(theta)
        here, photons0, squeezing0 = self._split(self.theta)
        if geometry == here:
            new = self.basis.image_weights(photons, squeezing)
            step = np.zeros(len(self.lift))
            step[:new.size] = self.scale * (new - self.basis.image_weights(photons0, squeezing0))
            inner, cross = self.gram[:-1, :-1], self.gram[:-1, -1]
            return float(step @ inner @ step - 2.0 * (step @ cross)), self.basis
        basis = self.model.basis(self.x, self.y, **geometry)
        change = 0.0
        for block in _pixel_blocks(self.data.size):
            mu = self._counts(self.theta, self.basis.pixels(block))
            residual = self.data[block] - mu
            diff = self._counts(theta, basis.pixels(block))
            diff -= mu
            weights = np.reciprocal(np.maximum(mu, 1.0, out=mu), out=mu)
            change += float((weights * diff) @ (diff - 2.0 * residual))
        return change, basis


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

    One iteration makes one pass over the frame in blocks of
    ``_PIXEL_BLOCK`` pixels: per block the counts at the accepted point (a
    Horner pass over the separable basis), their weights and residual, and
    the block's share of the weighted Gram of the k basis images (k = 4 for
    the default seed plus idler, 3 with ``mode='separate'``, whose q_1 is a
    scalar 0 and no column), one column per free geometry parameter and the
    residual, in k + g + 1 products and (k + g + 1)(k + g + 2)/2 dot
    products on views of the basis images.  J^T W J, the gradient and the
    cost of every damped trial at the same geometry come from that matrix,
    so a fit of seed photons and squeezing builds its basis once and takes
    their Jacobian columns analytically.  Each free ``seed_waist`` or
    ``pdc_angle`` column is a central difference with a 1e-4 relative step,
    each side's kernels evaluated block by block in the pass, and a trial
    that moves it costs its basis and one pass.

    Only the data and the basis images are frames.  On a 2-core Xeon, for
    the default free set at 512², the tracemalloc peak above entry is
    13.1 MB, 6.3 frame arrays, and it is the basis build's; at 1024²
    38.3 MB, 4.6 frame arrays.  With the counts, residual, weights and pixel
    positions as frames it was 23.1 and 92.3 MB, 11 frame arrays.  A pass
    takes 3.9-4.1 ms at 512² against 5.0-5.5 ms, and a fit 63-69 ms against
    70-72 ms (minimum and median of 11, six iterations).

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
            change, basis = problem.trial(trial)
            if change <= 0.0:
                step_size = float(
                    np.max(np.abs(trial - theta) / np.maximum(np.abs(theta), 1e-12))
                )
                # iteratively reweighted: the next pass weighs by the
                # accepted model
                problem.accept(trial, basis)
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
