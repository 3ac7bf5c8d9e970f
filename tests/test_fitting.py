from dataclasses import replace

import numpy as np
import pytest

import pdcfield.fitting
from pdcfield.config import ConfigError, with_overrides
from pdcfield.kernels import FieldKernels
from pdcfield.fitting import (
    ForwardModel,
    IntensityImage,
    SeparableBasis,
    combined_intensity,
    synthesize_image,
    fit_parameters,
)
from pdcfield.stimulated import zeta2_tca, zeta_branches, zeta_orders
from pdcfield.background import background_intensity, background_radial


@pytest.fixture(scope="module")
def model(combined_cfg):
    return ForwardModel(combined_cfg)


@pytest.fixture(scope="module")
def axes():
    x = np.linspace(-1.4e-3, 1.4e-3, 96)
    y = np.linspace(-0.35e-3, 0.35e-3, 24)
    return x, y


def test_combined_is_sum(combined_cfg):
    kern = FieldKernels(combined_cfg)
    X0 = np.stack([np.linspace(-1e-3, 1e-3, 41), np.zeros(41)], axis=-1)
    total = combined_intensity(kern, X0)
    backg = background_intensity(kern, X0)
    assert np.all(total >= backg - 1e-12 * np.max(total))


def test_zero_seed_leaves_background(combined_cfg):
    cfg = with_overrides(combined_cfg, seed_photons=0.0)
    kern = FieldKernels(cfg)
    X0 = np.stack([np.linspace(-1e-3, 1e-3, 41), np.zeros(41)], axis=-1)
    assert np.allclose(
        combined_intensity(kern, X0), background_intensity(kern, X0), rtol=1e-12
    )


def test_synthesize_noiseless_equals_model(model, axes):
    x, y = axes
    img = synthesize_image(model, x, y, noise="none", exposure=3.0)
    X0 = img.positions()
    assert np.allclose(img.values, model.intensity(X0) * 3.0)


def test_synthesize_poisson_deterministic(model, axes):
    x, y = axes
    a = synthesize_image(model, x, y, noise="poisson", seed=42, exposure=20.0)
    b = synthesize_image(model, x, y, noise="poisson", seed=42, exposure=20.0)
    assert np.array_equal(a.values, b.values)
    c = synthesize_image(model, x, y, noise="poisson", seed=43, exposure=20.0)
    assert not np.array_equal(a.values, c.values)


def test_poisson_mean_statistics(model):
    # seed-averaged counts agree with the model at the CLT level
    x = np.linspace(-1.2e-3, 1.2e-3, 24)
    y = np.linspace(-0.2e-3, 0.2e-3, 8)
    exposure = 40.0
    mean = model.intensity(np.stack(np.meshgrid(x, y), axis=-1)) * exposure
    n_seeds = 100
    acc = np.zeros_like(mean)
    for seed in range(n_seeds):
        acc += synthesize_image(model, x, y, noise="poisson", seed=seed, exposure=exposure).values
    acc /= n_seeds
    sigma = np.sqrt(np.maximum(mean, 1e-12) / n_seeds)
    z = np.abs(acc - mean) / sigma
    assert np.mean(z > 3.0) <= 0.01
    assert np.max(z) < 5.0


def test_image_validation():
    with pytest.raises(ValueError):
        IntensityImage(x=np.arange(3.0), y=np.arange(2.0), values=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        IntensityImage(x=np.arange(3.0), y=np.arange(2.0), values=-np.ones((2, 3)))
    for bad in (np.nan, np.inf):
        values = np.ones((2, 3))
        values[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            IntensityImage(x=np.arange(3.0), y=np.arange(2.0), values=values)


def test_component_scaling(combined_cfg):
    # stimulated seed term scales with the photon number, the leading idler
    # with gain^2 x photons, the background with gain^2
    X0 = np.array([[0.3e-3, 0.0], [0.0, 0.0], [-0.9e-3, 0.1e-3]])
    k_base = FieldKernels(with_overrides(combined_cfg, seed_photons=2.0, squeezing=0.5))
    k_phot = FieldKernels(with_overrides(combined_cfg, seed_photons=4.0, squeezing=0.5))
    k_gain = FieldKernels(with_overrides(combined_cfg, seed_photons=2.0, squeezing=1.0))

    def seed_part(kern):
        return np.abs(kern.seed_profile(X0 * kern.q.k_deg / 0.1, kern.q.omega_deg)) ** 2

    def idler_part(kern):
        return np.abs(zeta2_tca(kern, X0 * kern.q.k_deg / 0.1, kern.q.omega_deg)) ** 2

    assert np.allclose(seed_part(k_phot), 2.0 * seed_part(k_base), rtol=1e-12)
    assert np.allclose(seed_part(k_gain), seed_part(k_base), rtol=1e-12)
    assert np.allclose(idler_part(k_gain), 4.0 * idler_part(k_base), rtol=1e-12)
    assert np.allclose(idler_part(k_phot), 2.0 * idler_part(k_base), rtol=1e-12)
    r = np.array([0.2e-3, 0.9e-3])
    assert np.allclose(
        background_radial(k_gain, r), 4.0 * background_radial(k_base, r), rtol=1e-12
    )


def test_noiseless_round_trip(model, axes):
    x, y = axes
    img = synthesize_image(model, x, y, noise="none", exposure=50.0)
    result = fit_parameters(
        model,
        img,
        free=("seed_photons", "squeezing"),
        init={"seed_photons": 2.0, "squeezing": 0.5},
    )
    assert result.converged
    assert result.parameters["seed_photons"] == pytest.approx(4.0, rel=1e-4)
    assert result.parameters["squeezing"] == pytest.approx(1.0, rel=1e-4)
    assert result.errors["seed_photons"] > 0


def test_zero_image_rejected(model, axes):
    x, y = axes
    img = IntensityImage(x=x, y=y, values=np.zeros((y.size, x.size)))
    with pytest.raises(ValueError, match="zero"):
        fit_parameters(model, img)


def test_empty_free_set_rejected(model, axes):
    x, y = axes
    img = synthesize_image(model, x, y)
    with pytest.raises(ValueError):
        fit_parameters(model, img, free=())


def test_unidentifiable_flagged(combined_cfg, axes):
    # with no seed light the seed waist has no effect on the image
    x, y = axes
    cfg = with_overrides(combined_cfg, seed_photons=0.0)
    m = ForwardModel(cfg)
    img = synthesize_image(m, x, y, noise="none", exposure=10.0)
    result = fit_parameters(m, img, free=("seed_waist",))
    assert result.status == "not_identifiable"
    assert not result.converged


def test_fit_better_than_local_grid(model, axes):
    x, y = axes
    img = synthesize_image(model, x, y, noise="poisson", seed=7, exposure=60.0)
    result = fit_parameters(
        model, img, init={"seed_photons": 3.0, "squeezing": 0.8}
    )
    data = img.values.ravel()
    X0 = img.positions()
    mu_fit = (
        model.intensity(
            X0,
            seed_photons=result.parameters["seed_photons"],
            squeezing=result.parameters["squeezing"],
        ).ravel()
        * 60.0
    )
    w_fit = 1.0 / np.maximum(mu_fit, 1.0)  # converged shot-noise weights

    def cost(photons, xi):
        mu = model.intensity(X0, seed_photons=photons, squeezing=xi).ravel() * 60.0
        return float(np.sum(w_fit * (data - mu) ** 2))

    grid_costs = [
        cost(4.0 * (1 + dp), 1.0 * (1 + dx))
        for dp in (-0.04, -0.02, 0.0, 0.02, 0.04)
        for dx in (-0.04, -0.02, 0.0, 0.02, 0.04)
    ]
    fit_cost = float(np.sum(w_fit * (data - mu_fit) ** 2))
    assert fit_cost <= min(grid_costs) * (1 + 1e-9)


def test_max_iterations_status(model, axes):
    x, y = axes
    img = synthesize_image(model, x, y, noise="poisson", seed=3, exposure=60.0)
    result = fit_parameters(
        model,
        img,
        init={"seed_photons": 0.5, "squeezing": 0.1},
        max_iterations=1,
    )
    assert result.status in ("max_iterations", "converged")
    if result.status == "max_iterations":
        assert not result.converged
    assert np.isfinite(result.residual_norm)


def test_exhausted_damping_reports_stalled(model, axes, monkeypatch):
    # with the analytic Jacobian negated and shrunk, every damped step points
    # uphill and moves the parameters, so no step is ever accepted
    x, y = axes
    img = synthesize_image(model, x, y, noise="none", exposure=50.0)
    derivatives = SeparableBasis.derivatives
    monkeypatch.setattr(SeparableBasis, "derivatives", lambda self, photons, squeezing: tuple(
        -1e-12 * d for d in derivatives(self, photons, squeezing)))
    result = fit_parameters(model, img, init={"seed_photons": 2.0, "squeezing": 0.5})
    assert result.status == "stalled"
    assert not result.converged
    assert result.iterations == 1
    assert result.parameters == {"seed_photons": 2.0, "squeezing": 0.5}


def test_separate_exposures_consistent(combined_cfg, axes):
    # gain from a seed-blocked exposure, then photons from the combined one,
    # agrees with the joint fit within statistical error
    x, y = axes
    exposure = 80.0
    model_all = ForwardModel(combined_cfg)
    img = synthesize_image(model_all, x, y, noise="poisson", seed=11, exposure=exposure)

    cfg_dark = with_overrides(combined_cfg, seed_photons=0.0)
    dark_model = ForwardModel(cfg_dark)
    dark = synthesize_image(dark_model, x, y, noise="poisson", seed=12, exposure=exposure)
    fit_gain = fit_parameters(
        dark_model, dark, free=("squeezing",), init={"squeezing": 0.7}
    )
    xi_est = fit_gain.parameters["squeezing"]

    fit_photons = fit_parameters(
        model_all,
        img,
        free=("seed_photons",),
        init={"seed_photons": 2.0},
        fixed={"squeezing": xi_est},
    )
    joint = fit_parameters(
        model_all, img, init={"seed_photons": 2.0, "squeezing": 0.7}
    )
    sigma = 3.0 * max(
        joint.errors.get("seed_photons", 0.05), fit_photons.errors.get("seed_photons", 0.05)
    )
    assert fit_photons.parameters["seed_photons"] == pytest.approx(
        joint.parameters["seed_photons"], abs=max(sigma, 0.2)
    )


def _direct_intensity(cfg, X0, mode, model):
    """Kernels built at the config's own (n, xi), each branch summed as is."""
    kern = FieldKernels(cfg)
    q = kern.q
    K = X0 * (q.k_deg / cfg.detector.focal_length)
    if model == "tca":
        signal = kern.seed_profile(K, q.omega_deg)
        idler = -zeta2_tca(kern, K, q.omega_deg)
    else:
        signal, z2 = zeta_branches(zeta_orders(kern, 6), K, q.omega_deg)
        idler = -z2
    if mode == "coherent":
        stim = np.abs(signal + idler) ** 2
    else:
        stim = np.abs(signal) ** 2 + np.abs(idler) ** 2
    return q.detector_gain * stim + background_intensity(kern, X0)


@pytest.fixture(scope="module")
def overlap_cfg(combined_cfg):
    # a small seed tilt overlaps signal and idler, and a seed phase keeps
    # their cross term from vanishing, so the two modes differ
    cfg = with_overrides(combined_cfg, g_factor=0.05)
    return replace(cfg, seed=replace(cfg.seed, phase=0.4))


@pytest.mark.parametrize("model_name", ["tca", "orders"])
@pytest.mark.parametrize("mode", ["coherent", "separate"])
def test_basis_matches_direct_evaluation(overlap_cfg, axes, model_name, mode):
    x, y = axes
    X0 = np.stack(np.meshgrid(x, y), axis=-1)
    model = ForwardModel(overlap_cfg, mode=mode, model=model_name, m_max=6)
    for photons in (0.0, 4.0):
        for xi in (0.0, 0.3, 1.0, 2.2):
            direct = _direct_intensity(
                with_overrides(overlap_cfg, seed_photons=photons, squeezing=xi),
                X0, mode, model_name,
            )
            basis = model.intensity(X0, seed_photons=photons, squeezing=xi)
            scale = max(np.max(direct), 1e-300)
            assert np.max(np.abs(basis - direct)) <= 1e-12 * scale, (photons, xi)
    other = "separate" if mode == "coherent" else "coherent"
    assert not np.allclose(
        model.intensity(X0), _direct_intensity(overlap_cfg, X0, other, model_name)
    )


@pytest.mark.parametrize("model_name", ["tca", "orders"])
@pytest.mark.parametrize("mode", ["coherent", "separate"])
def test_basis_jacobian_matches_central_differences(overlap_cfg, axes, model_name, mode):
    x, y = axes
    X0 = np.stack(np.meshgrid(x, y), axis=-1)
    basis = ForwardModel(overlap_cfg, mode=mode, model=model_name).basis(X0)
    assert isinstance(basis, SeparableBasis)
    photons, xi = 3.0, 0.8
    d_photons, d_xi = basis.derivatives(photons, xi)
    h_n, h_xi = 1e-4 * photons, 1e-4 * xi
    num_n = (basis.intensity(photons + h_n, xi) - basis.intensity(photons - h_n, xi)) / (2 * h_n)
    num_xi = (basis.intensity(photons, xi + h_xi) - basis.intensity(photons, xi - h_xi)) / (
        2 * h_xi
    )
    assert np.max(np.abs(d_photons - num_n)) <= 1e-7 * np.max(np.abs(num_n))
    assert np.max(np.abs(d_xi - num_xi)) <= 1e-7 * np.max(np.abs(num_xi))


def test_negative_photons_and_gain_rejected(model, axes):
    x, y = axes
    X0 = np.stack(np.meshgrid(x, y), axis=-1)
    with pytest.raises(ConfigError):
        model.intensity(X0, seed_photons=-1)
    with pytest.raises(ConfigError):
        model.intensity(X0, squeezing=-0.5)


def test_fit_builds_kernels_once(model, axes, monkeypatch):
    x, y = axes
    img = synthesize_image(model, x, y, noise="poisson", seed=5, exposure=60.0)
    builds = []

    def counting(cfg, *args, **kwargs):
        builds.append(cfg)
        return FieldKernels(cfg, *args, **kwargs)

    monkeypatch.setattr(pdcfield.fitting, "FieldKernels", counting)
    result = fit_parameters(model, img, init={"seed_photons": 3.0, "squeezing": 0.8})
    assert result.converged
    assert len(builds) == 1


def test_non_finite_model_rejected(model, axes, monkeypatch):
    x, y = axes
    img = synthesize_image(model, x, y, noise="poisson", seed=5, exposure=60.0)
    monkeypatch.setattr(
        SeparableBasis, "intensity", lambda self, photons, squeezing: np.full(img.values.shape, np.nan)
    )
    with pytest.raises(ValueError, match="not finite"):
        fit_parameters(model, img)
