import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdcfield.fitting
from pdcfield.config import (ConfigError, CrystalConfig, DetectorConfig, ExperimentConfig,
                             PumpConfig, SeedConfig, with_overrides)
from pdcfield.kernels import FieldKernels, _PIXEL_BLOCK
from pdcfield.fitting import (
    ForwardModel,
    IntensityImage,
    SeparableBasis,
    WeightedFit,
    combined_intensity,
    synthesize_image,
    fit_parameters,
)
from pdcfield.stimulated import (field_polynomials, intensity_coefficients, zeta2_tca,
                                 zeta_branches, zeta_orders)
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
    assert np.allclose(img.values, model.intensity(x, y) * 3.0)


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
    mean = model.intensity(x, y) * exposure
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
    mu_fit = (
        model.intensity(
            x, y,
            seed_photons=result.parameters["seed_photons"],
            squeezing=result.parameters["squeezing"],
        ).ravel()
        * 60.0
    )
    w_fit = 1.0 / np.maximum(mu_fit, 1.0)  # converged shot-noise weights

    def cost(photons, xi):
        mu = model.intensity(x, y, seed_photons=photons, squeezing=xi).ravel() * 60.0
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
    derivatives = SeparableBasis.weight_derivatives
    monkeypatch.setattr(SeparableBasis, "weight_derivatives", lambda self, photons, squeezing: tuple(
        -1e-12 * d for d in derivatives(self, photons, squeezing)))
    result = fit_parameters(model, img, init={"seed_photons": 2.0, "squeezing": 0.5})
    assert result.status == "stalled"
    assert not result.converged
    assert result.iterations == 1
    assert result.parameters == {"seed_photons": 2.0, "squeezing": 0.5}


TRUTH = {"seed_photons": 4.0, "squeezing": 1.0, "seed_waist": 0.2e-3, "pdc_angle": 10e-3}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("geometry", ["seed_waist", "pdc_angle"])
def test_geometry_fit_converges(model, geometry, seed):
    # the frame `pdcfield image --nx 96 --ny 24` lays out, started off the truth
    # in every parameter
    x = np.linspace(-1.5e-3, 1.5e-3, 96)
    y = np.linspace(-0.375e-3, 0.375e-3, 24)
    img = synthesize_image(model, x, y, noise="poisson", seed=seed, exposure=40.0)
    result = fit_parameters(model, img, free=("seed_photons", "squeezing", geometry),
                            init={"seed_photons": 3.0, "squeezing": 0.8,
                                  geometry: 1.1 * TRUTH[geometry]})
    assert result.status == "converged" and result.converged
    assert result.iterations > 1
    for name, value in result.parameters.items():
        assert abs(value - TRUTH[name]) <= 3.0 * result.errors[name], name


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    photons=st.floats(0.5, 8.0),
    xi=st.floats(0.2, 2.0),
    geometry=st.sampled_from(["seed_waist", "pdc_angle"]),
    offset=st.floats(-0.2, 0.2),
    move=st.floats(-0.05, 0.05),
)
def test_gram_equals_explicit_sums(model, axes, photons, xi, geometry, offset, move):
    x, y = axes
    img = synthesize_image(model, x, y, noise="poisson", seed=4, exposure=40.0)
    free = ("seed_photons", "squeezing", geometry)
    theta = np.array([photons, xi, (1.0 + offset) * TRUTH[geometry]])
    problem = WeightedFit(model, img, free)
    problem.accept(theta)
    jtj, grad = problem.normal_equations()

    # test-owned: the model counts, weights and Jacobian formed on every pixel
    basis = model.basis(x, y, **{geometry: theta[2]})
    mu = basis.intensity(photons, xi).ravel() * 40.0
    w = 1.0 / np.maximum(mu, 1.0)
    r = img.values.ravel() - mu
    step = 1e-4 * theta[2]
    sides = [model.intensity(x, y, seed_photons=photons, squeezing=xi, **{geometry: g}).ravel()
             for g in (theta[2] + step, theta[2] - step)]
    jac = np.stack([*(40.0 * d.ravel() for d in basis.derivatives(photons, xi)),
                    40.0 * (sides[0] - sides[1]) / (2.0 * step)], axis=1)
    want_jtj = jac.T @ (w[:, None] * jac)
    want_grad = jac.T @ (w * r)
    cost = float(np.sum(w * r**2))

    assert problem.gram[-1, -1] == pytest.approx(cost, rel=1e-10)
    # entries against their Cauchy-Schwarz scales, which cancellation cannot shrink
    diag = np.sqrt(np.diag(want_jtj))
    assert np.all(np.abs(jtj - want_jtj) <= 1e-10 * np.outer(diag, diag))
    assert np.all(np.abs(grad - want_grad) <= 1e-10 * diag * math.sqrt(cost))

    # a damped trial's cost change, at the point's geometry (from the Gram)
    # and at a new one (its basis and one pass), under the point's weights
    for trial in (theta * [1.0 + move, 1.0 - move, 1.0], theta * (1.0 + move)):
        overrides = dict(zip(free, trial))
        mu_t = model.intensity(x, y, **overrides).ravel() * 40.0
        want = float(np.sum(w * (img.values.ravel() - mu_t) ** 2)) - cost
        assert problem.trial(trial)[0] == pytest.approx(want, abs=1e-10 * cost)


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
            basis = model.intensity(x, y, seed_photons=photons, squeezing=xi)
            scale = max(np.max(direct), 1e-300)
            assert np.max(np.abs(basis - direct)) <= 1e-12 * scale, (photons, xi)
    other = "separate" if mode == "coherent" else "coherent"
    assert not np.allclose(
        model.intensity(x, y), _direct_intensity(overlap_cfg, X0, other, model_name)
    )


@pytest.mark.parametrize("model_name", ["tca", "orders"])
@pytest.mark.parametrize("mode", ["coherent", "separate"])
def test_basis_jacobian_matches_central_differences(overlap_cfg, axes, model_name, mode):
    x, y = axes
    basis = ForwardModel(overlap_cfg, mode=mode, model=model_name).basis(x, y)
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


@pytest.mark.parametrize("model_name", ["tca", "orders"])
@pytest.mark.parametrize("mode", ["coherent", "separate"])
def test_basis_blocks_equal_one_block(overlap_cfg, model_name, mode):
    # pixel counts on both sides of a block boundary, against every pixel
    # evaluated as one block (test-owned: the whole-frame evaluation)
    model = ForwardModel(overlap_cfg, mode=mode, model=model_name)
    kern = FieldKernels(with_overrides(overlap_cfg, seed_photons=1.0, squeezing=1.0))
    gain = kern.q.detector_gain
    rng = np.random.default_rng(7)

    def check(x, y):
        basis = model.basis(x, y)
        X0 = np.stack(np.meshgrid(x, y), axis=-1)  # row-major, x varying fastest
        want = [gain * q for q in intensity_coefficients(
            field_polynomials(kern, X0, mode=mode, model=model_name))]
        assert len(basis.coefficients) == len(want)
        for got, ref in zip(basis.coefficients, want):
            assert np.shape(got) == np.shape(ref) and np.array_equal(got, ref), X0.shape
        assert np.array_equal(basis.background, background_intensity(kern, X0)), X0.shape

    x = rng.uniform(-1.5e-3, 1.5e-3, _PIXEL_BLOCK + 1)
    for n in (_PIXEL_BLOCK - 1, _PIXEL_BLOCK, _PIXEL_BLOCK + 1):
        check(x[:n], [0.2e-3])
    # a frame of 99 rows of 331 pixels, _PIXEL_BLOCK + 1 in all
    check(rng.uniform(-1.5e-3, 1.5e-3, 331), rng.uniform(-1.5e-3, 1.5e-3, 99))


def test_basis_memory_is_bounded_by_its_blocks(model):
    # the output is 4 frame arrays (3 coefficient images and the
    # background); evaluated on the whole frame at once the peak was 17
    x = np.linspace(-1.5e-3, 1.5e-3, 512)
    model.basis(x, x)
    tracemalloc.start()
    try:
        basis = model.basis(x, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis.coefficients) == 3
    assert peak <= 8 * x.size**2 * 8


@pytest.mark.parametrize("model_name", ["tca", "orders"])
def test_separate_mode_leaves_zero_coefficients_out_of_the_gram(
    combined_cfg, axes, model_name, monkeypatch
):
    # separate branches have no odd powers of xi (q_1 for tca; q_1, q_3, ...,
    # q_11 for orders): fits without those zero columns match fits with them
    x, y = axes
    model = ForwardModel(combined_cfg, mode="separate", model=model_name)
    img = synthesize_image(model, x, y, noise="poisson", seed=6, exposure=40.0)
    free = ("seed_photons", "squeezing")

    def fit():
        problem = WeightedFit(model, img, free)
        problem.accept(np.array([3.0, 0.8]))
        problem.normal_equations()
        result = fit_parameters(model, img, free, init={"seed_photons": 3.0, "squeezing": 0.8})
        return result, problem.gram.shape[0]

    result, size = fit()
    zeros = sum(np.ndim(c) == 0 for c in model.basis(x, y).coefficients)
    monkeypatch.setattr(SeparableBasis, "powers", lambda self: np.arange(len(self.coefficients)))
    before, size_before = fit()  # each zero broadcast to a zero image, as it was
    assert zeros == (1 if model_name == "tca" else 6)
    assert size == size_before - zeros
    assert result.status == before.status == "converged"
    assert result.iterations == before.iterations
    for name in free:
        assert result.parameters[name] == pytest.approx(before.parameters[name], rel=1e-12)
        assert result.errors[name] == pytest.approx(before.errors[name], rel=1e-12)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(
    pump_waist=st.floats(0.1e-3, 1e-3),
    seed_waist=st.floats(0.1e-3, 1e-3),
    pdc_angle=st.floats(0.0, 20e-3),
    seed_phase=st.floats(0.0, 2.0 * math.pi),
    pump_phase=st.floats(0.0, 2.0 * math.pi),
    offset_mm=st.tuples(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8)),
    photons=st.floats(0.5, 10.0),
    xi=st.floats(0.0, 3.0),
    mode=st.sampled_from(["coherent", "separate"]),
    model_name=st.sampled_from(["tca", "orders"]),
)
def test_basis_matches_complex_evaluation_property(
    pump_waist, seed_waist, pdc_angle, seed_phase, pump_phase, offset_mm, photons, xi,
    mode, model_name,
):
    omega = 4.0 * math.pi * 299792458.0 / 0.8e-6
    focal = 0.1
    k_deg = omega / 2.0 / 299792458.0
    cfg = ExperimentConfig(
        pump=PumpConfig(omega=omega, bandwidth=5e11, waist=pump_waist, phase=pump_phase),
        seed=SeedConfig(amplitude=2.0, waist=seed_waist, bandwidth=5e11, phase=seed_phase,
                        shift=tuple(k_deg * 1e-3 * o / focal for o in offset_mm)),
        crystal=CrystalConfig(length=3e-3, cross_section=1e-22, pdc_angle=pdc_angle,
                              squeezing=1.0),
        detector=DetectorConfig(focal_length=focal, aperture=2e-3, bandwidth=1e9),
    )
    x = np.linspace(-1.5e-3, 1.5e-3, 24)
    X0 = np.stack(np.meshgrid(x, x[::2]), axis=-1)
    basis = ForwardModel(cfg, mode=mode, model=model_name).basis(x, x[::2])
    # test-owned: each field polynomial summed in complex arithmetic, then
    # |.|^2; ``bound`` replaces each coefficient by its modulus, the scale of
    # the rounding of any sum of |A_b|^2, which may cancel where signal and
    # idler interfere
    kern = FieldKernels(with_overrides(cfg, seed_photons=1.0, squeezing=1.0))
    gain = kern.q.detector_gain
    field = bound = 0.0
    for coeffs in field_polynomials(kern, X0, mode=mode, model=model_name):
        field = field + np.abs(sum(c * xi**j for j, c in enumerate(coeffs))) ** 2
        bound = bound + sum(np.abs(c) * xi**j for j, c in enumerate(coeffs)) ** 2
    want = photons * gain * field + xi**2 * basis.background
    scale = photons * gain * bound + xi**2 * basis.background
    assert np.all(np.abs(basis.intensity(photons, xi) - want) <= 1e-12 * scale)

    xi_c = max(xi, 0.05)
    h_n, h_xi = 1e-4 * photons, 1e-5 * xi_c
    d_photons, d_xi = basis.derivatives(photons, xi_c)
    num_n = (basis.intensity(photons + h_n, xi_c) - basis.intensity(photons - h_n, xi_c)) / (2 * h_n)
    num_xi = (basis.intensity(photons, xi_c + h_xi) - basis.intensity(photons, xi_c - h_xi)) / (
        2 * h_xi)
    size = np.max(basis.intensity(photons, xi_c))
    assert np.max(np.abs(d_photons - num_n)) <= 1e-7 * size / photons
    assert np.max(np.abs(d_xi - num_xi)) <= 1e-7 * size / xi_c


def test_negative_photons_and_gain_rejected(model, axes):
    x, y = axes
    with pytest.raises(ConfigError):
        model.intensity(x, y, seed_photons=-1)
    with pytest.raises(ConfigError):
        model.intensity(x, y, squeezing=-0.5)


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


@pytest.mark.parametrize("exposure", [0.0, -2.0, math.nan, math.inf])
def test_bad_exposure_rejected(model, axes, exposure):
    x, y = axes
    with pytest.raises(ValueError, match="exposure"):
        synthesize_image(model, x, y, exposure=exposure)
    img = synthesize_image(model, x, y, exposure=40.0)
    with pytest.raises(ValueError, match="exposure"):
        IntensityImage(x=img.x, y=img.y, values=img.values, exposure=exposure)
    img.exposure = exposure  # a fit used to run, and report, on such an image
    with pytest.raises(ValueError, match="exposure"):
        fit_parameters(model, img)


def test_non_finite_model_rejected(model, axes, monkeypatch):
    x, y = axes
    img = synthesize_image(model, x, y, noise="poisson", seed=5, exposure=60.0)
    monkeypatch.setattr(
        SeparableBasis, "intensity", lambda self, photons, squeezing: np.full(img.values.shape, np.nan)
    )
    with pytest.raises(ValueError, match="not finite"):
        fit_parameters(model, img)


@pytest.mark.parametrize("mode", ["coherent", "separate"])
def test_gram_over_a_partial_last_block(combined_cfg, mode):
    # 99 rows of 331 pixels: _PIXEL_BLOCK + 1, so the last block holds one
    # pixel; a geometry column makes every pass evaluate kernels per block
    model = ForwardModel(combined_cfg, mode=mode)
    x = np.linspace(-1.5e-3, 1.5e-3, 331)
    y = np.linspace(-0.45e-3, 0.45e-3, 99)
    assert x.size * y.size == _PIXEL_BLOCK + 1
    img = synthesize_image(model, x, y, noise="poisson", seed=8, exposure=40.0)
    free = ("seed_photons", "squeezing", "seed_waist")
    theta = np.array([3.5, 0.9, 1.05 * TRUTH["seed_waist"]])
    problem = WeightedFit(model, img, free)
    problem.accept(theta)
    jtj, grad = problem.normal_equations()

    # test-owned: the model counts, weights and Jacobian formed on every pixel
    basis = model.basis(x, y, seed_waist=theta[2])
    mu = basis.intensity(*theta[:2]).ravel() * 40.0
    w = 1.0 / np.maximum(mu, 1.0)
    r = img.values.ravel() - mu
    step = 1e-4 * theta[2]
    sides = [model.intensity(x, y, seed_photons=theta[0], squeezing=theta[1], seed_waist=g)
             for g in (theta[2] + step, theta[2] - step)]
    jac = np.stack([*(40.0 * d.ravel() for d in basis.derivatives(*theta[:2])),
                    40.0 * (sides[0] - sides[1]).ravel() / (2.0 * step)], axis=1)
    want_jtj = jac.T @ (w[:, None] * jac)
    cost = float(np.sum(w * r**2))
    assert problem.cost == pytest.approx(cost, rel=1e-10)
    diag = np.sqrt(np.diag(want_jtj))
    assert np.all(np.abs(jtj - want_jtj) <= 1e-10 * np.outer(diag, diag))
    assert np.all(np.abs(grad - jac.T @ (w * r)) <= 1e-10 * diag * math.sqrt(cost))
    trial = theta * 1.02
    mu_t = model.intensity(x, y, **dict(zip(free, trial))).ravel() * 40.0
    want = float(np.sum(w * (img.values.ravel() - mu_t) ** 2)) - cost
    assert problem.trial(trial)[0] == pytest.approx(want, abs=1e-10 * cost)


def test_non_finite_count_past_the_first_block_rejected(model, monkeypatch):
    x = np.linspace(-1.5e-3, 1.5e-3, 331)
    y = np.linspace(-0.45e-3, 0.45e-3, 99)
    img = synthesize_image(model, x, y, noise="poisson", seed=5, exposure=40.0)
    problem = WeightedFit(model, img, ("seed_photons", "squeezing", "seed_waist"))
    theta = np.array([4.0, 1.0, TRUTH["seed_waist"]])
    bad = model.basis(x, y, seed_waist=theta[2])
    bad.background.reshape(-1)[_PIXEL_BLOCK] = np.nan  # the first pixel of the second block
    with pytest.raises(ValueError, match="not finite"):
        problem.accept(theta, bad)
    # a trial at a new geometry meets it in its own pass
    problem.accept(theta)
    monkeypatch.setattr(ForwardModel, "basis", lambda self, x, y, **geometry: bad)
    with pytest.raises(ValueError, match="not finite"):
        problem.trial(theta * [1.0, 1.0, 1.01])


def test_fit_memory_is_the_data_and_the_basis(model):
    # at the parent the fit peaked at about 11 frame arrays above entry: the
    # positions, the counts, residual and weights, the Horner and Gram
    # temporaries on top of the four basis images
    x = np.linspace(-1.5e-3, 1.5e-3, 512)
    img = synthesize_image(model, x, x, noise="poisson", seed=1, exposure=40.0)
    fit_parameters(model, img, init={"seed_photons": 3.0, "squeezing": 0.8})
    tracemalloc.start()
    try:
        result = fit_parameters(model, img, init={"seed_photons": 3.0, "squeezing": 0.8})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.converged
    assert peak <= 6.5 * img.values.nbytes
