import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import pdcfield
from pdcfield.config import load_config_file, seed_shift, with_overrides
from pdcfield.kernels import FieldKernels, gaussian_spectrum
from pdcfield import oracle
from pdcfield.validate import (
    thin_reference_config,
    narrowband_reference_config,
    check_hyperbolic_sums,
    check_zeta_orders_consistency,
    thin_reference_grid,
)

TWO_PI_CUBED = (2 * math.pi) ** 3
SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "combined.cfg"


def test_single_mode_grid():
    cfg = thin_reference_config()
    q = cfg.derive()
    grid = oracle.build_grid(0.0, 1, q.omega_deg, 0.0, 1, cfg=cfg)
    assert grid.size == 1
    assert grid.omega[0] == q.omega_deg


def test_grid_count_validation():
    cfg = thin_reference_config()
    q = cfg.derive()
    with pytest.raises(ValueError):
        oracle.build_grid(1e3, 5, q.omega_deg, 1e11, 9)


@pytest.mark.parametrize("axis", ["kx", "omega_axis"])
@pytest.mark.parametrize("spoil", ["descending", "repeated", "nan"])
def test_grid_rejects_unordered_axis(axis, spoil):
    # a descending axis gives negative trapezoid weights: before this check,
    # kx reversed on the validate grid summed its weights to -9.3e16
    cfg = thin_reference_config()
    grid = thin_reference_grid(cfg, 9, 8)
    axes = {"kx": grid.kx, "ky": grid.ky, "omega_axis": grid.omega_axis}
    bad = axes[axis].copy()
    if spoil == "descending":
        bad = bad[::-1].copy()
    elif spoil == "repeated":
        bad[3] = bad[4]
    else:
        bad[3] = np.nan
    axes[axis] = bad
    with pytest.raises(ValueError, match="strictly increasing"):
        oracle.ModeGrid(**axes)


def test_grid_weight_sum():
    cfg = thin_reference_config()
    q = cfg.derive()
    grid = oracle.build_grid(1e3, 9, q.omega_deg, 1e12, 11, cfg=cfg)
    volume = (2e3) ** 2 * 2e12
    assert np.sum(grid.weight) == pytest.approx(volume / TWO_PI_CUBED, rel=1e-12)


def test_grid_extent_warning():
    cfg = thin_reference_config()
    q = cfg.derive()
    grid = oracle.build_grid(
        0.1 / cfg.pump.waist, 9, q.omega_deg, 0.1 * cfg.pump.bandwidth, 9, cfg=cfg
    )
    assert len(grid.warnings) == 2


def thick_crystal_config():
    """A 50 mm crystal: max |L Delta| is far above the Taylor provider's range."""
    from pdcfield.config import PumpConfig, SeedConfig, CrystalConfig, DetectorConfig, ExperimentConfig

    return ExperimentConfig(
        pump=PumpConfig(omega=2 * math.pi * 299792458.0 / 0.4e-6, bandwidth=5e11, waist=0.3e-3),
        seed=SeedConfig(amplitude=1.0, waist=0.3e-3, bandwidth=5e11),
        crystal=CrystalConfig(length=50e-3, cross_section=1e-22, squeezing=0.3),
        detector=DetectorConfig(focal_length=0.1, aperture=2e-3, bandwidth=1e9),
    )


def rectangular_grid(cfg):
    """Unequal, off-centre kx and ky axes of different counts."""
    w = cfg.pump.waist
    return oracle.ModeGrid(
        kx=np.linspace(-5.0 / w, 4.0 / w, 9),
        ky=np.linspace(-3.0 / w, 6.5 / w, 11),
        omega_axis=cfg.derive().omega_deg + np.linspace(-3.0, 4.0, 8) * cfg.pump.bandwidth,
    )


def table_cases():
    """(config, grid) pairs that exercise every shape of the per-axis tables."""
    # nonzero pump phase and emission angle: the constant phase factor and
    # the frequency-only part of the mismatch must survive the tables
    cfg = thin_reference_config(0.3)
    cfg = replace(
        cfg, pump=replace(cfg.pump, phase=0.7), crystal=replace(cfg.crystal, pdc_angle=0.05)
    )
    thick = thick_crystal_config()
    return [
        (cfg, thin_reference_grid(cfg, 8, 8)),
        (cfg, rectangular_grid(cfg)),
        (cfg, thin_reference_grid(cfg, 9, 1)),
        (cfg, thin_reference_grid(cfg, 1, 8)),
        (thick, thin_reference_grid(thick, 8, 8)),
    ]


def dense_pair_kernel(kern, grid, z):
    """Weight-absorbed pair kernel on every pair of grid modes, straight
    from ``FieldKernels``."""
    K, om = grid.K, grid.omega
    ref = kern.bilinear_kernel(K[:, None, :], K[None, :, :], om[:, None], om[None, :], z)
    return ref * np.sqrt(np.outer(grid.weight, grid.weight))


def dense_pair_magnitude(kern, grid):
    """Weight-absorbed pair-kernel magnitude on every pair of grid modes,
    straight from ``FieldKernels``: the kernel without its constant pair
    phase and its depth phase."""
    K, om = grid.K, grid.omega
    ref = kern.bilinear_magnitude(K[:, None, :], K[None, :, :], om[:, None], om[None, :])
    return ref * np.sqrt(np.outer(grid.weight, grid.weight))


def broadcast_mismatch(ops):
    """The mismatch tables broadcast to every pair of grid modes."""
    dx, dy, dw = ops.mismatch
    full = dx[:, None, :, :, None, :] + dy[None, :, :, None, :, :]
    full += dw[:, None, None, :]
    return full.reshape(ops.grid.size, ops.grid.size)


def dense_blocks(space, full):
    """Blocks of a grid matrix through the dense K bases of ``space`` times
    the omega identity: the reference for the blocks formed from per-axis
    tables."""
    blocks = []
    for copies in space.k_bases():
        basis = np.kron(copies[0], np.eye(space.nw))
        blocks.append(basis.T @ full.real @ basis + 1j * (basis.T @ full.imag @ basis))
    return blocks


def taylor_regime_workspace(cfg, grid):
    """Workspace on the crystal, or on the depth at which max |z Delta| is
    1.5 when the crystal is thicker, so that one piece spans it."""
    kern = FieldKernels(cfg)
    reach = 1.5 / oracle.GridOperators(kern, grid).max_abs_mismatch()
    ws = oracle.GridWorkspace(kern, grid, min(cfg.crystal.length, reach))
    assert len(ws.provider.pieces) == 1
    return ws


def direct_regime_cases():
    """(config, grid) pairs with max |L Delta| > 1.5, where the depth
    expansion takes several pieces: the thick crystal and the shipped
    config on its own reference grid."""
    thick = thick_crystal_config()
    shipped = load_config_file(SHIPPED_CONFIG)
    return [(thick, thin_reference_grid(thick, 8, 8)),
            (shipped, thin_reference_grid(shipped, 8, 8))]


def test_grid_operators_match_bilinear_kernel():
    for cfg, grid in table_cases():
        kern = FieldKernels(cfg)
        ops = oracle.GridOperators(kern, grid)
        length = cfg.crystal.length
        for z in (0.0, 0.5 * length, length):
            ref = dense_pair_kernel(kern, grid, z)
            assert np.max(np.abs(ops.htilde(z) - ref) / np.abs(ref)) < 1e-13


def test_table_max_mismatch_equals_dense():
    for cfg, grid in table_cases():
        kern = FieldKernels(cfg)
        ops = oracle.GridOperators(kern, grid)
        K, om = grid.K, grid.omega
        dense = kern.phase_mismatch(K[:, None, :], K[None, :, :], om[:, None], om[None, :])
        # exact against the tables broadcast to the grid, and to rounding
        # against the kernel evaluated on every pair
        assert ops.max_abs_mismatch() == np.max(np.abs(broadcast_mismatch(ops)))
        assert ops.max_abs_mismatch() == pytest.approx(np.max(np.abs(dense)), rel=1e-14)


def test_taylor_coefficients_match_dense_projection():
    # reference: the dense kernel magnitude, straight from FieldKernels,
    # expanded in z and projected term by term; the provider keeps the
    # terms without the phase pair_phase i^k
    cfg = thin_reference_config(0.3)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 9, 8)
    ws = oracle.GridWorkspace(kern, grid)
    assert len(ws.provider.pieces) == 1
    K, om = grid.K, grid.omega
    delta = kern.phase_mismatch(K[:, None, :], K[None, :, :], om[:, None], om[None, :])
    term = dense_pair_magnitude(kern, grid)
    for k, coeff in enumerate(ws.provider.coeffs):
        if k:
            term = term * (delta / k)
        ref = dense_blocks(ws.space, term)
        scale = max(float(np.max(np.abs(r))) for r in ref)
        for got, want in zip(coeff, ref):
            assert np.max(np.abs(got - want)) <= 1e-15 * scale


def test_taylor_coefficients_match_dense_projection_on_table_cases():
    # the same expansion on every shape of the per-axis tables, at the depth
    # where max |z Delta| is 1.5 on the thick crystal.  The mismatch is the
    # tables' broadcast to the grid, checked here against the kernel's: up
    # to order 19 the k-th power multiplies the few-ulp difference of two
    # evaluations of Delta by k, which is not an error of the expansion.
    for cfg, grid in table_cases():
        ws = taylor_regime_workspace(cfg, grid)
        kern = ws.kern
        K, om = grid.K, grid.omega
        delta = broadcast_mismatch(ws.ops)
        exact = kern.phase_mismatch(K[:, None, :], K[None, :, :], om[:, None], om[None, :])
        assert np.max(np.abs(delta - exact)) <= 1e-14 * np.max(np.abs(exact))
        magnitude = dense_pair_magnitude(kern, grid)
        for k, coeff in enumerate(ws.provider.coeffs):
            ref = dense_blocks(ws.space, magnitude / math.factorial(k) * delta**k)
            scale = max(float(np.max(np.abs(r))) for r in ref)
            for got, want in zip(coeff, ref, strict=True):
                assert np.max(np.abs(got - want)) <= 1e-15 * scale


def piece_depths(ws):
    """A depth inside every piece of the workspace's provider, each seam
    from both sides, and both ends of the crystal."""
    length, count = ws.provider.length, len(ws.provider.pieces)
    seams = [j * length for j in range(1, count)]
    inside = [(j + 0.37) * length for j in range(count)]
    return [0.0, *inside, *seams, *(np.nextafter(z, 0.0) for z in seams), ws.length]


def test_piecewise_provider_matches_dense_projection():
    # every shape of the tables (all of them past one piece on the full
    # crystal), the shipped config and one workspace that one piece spans
    cases = table_cases() + direct_regime_cases()[1:]
    workspaces = [oracle.GridWorkspace(FieldKernels(cfg), grid) for cfg, grid in cases]
    workspaces.append(taylor_regime_workspace(*cases[0]))
    pieces = []
    for ws in workspaces:
        pieces.append(len(ws.provider.pieces))
        for z in piece_depths(ws):
            got = [ws.provider.block(s, z) for s in range(ws.space.nblocks)]
            ref = dense_blocks(ws.space, ws.ops.htilde(z))
            scale = max(float(np.max(np.abs(r))) for r in ref)
            for blk, want in zip(got, ref, strict=True):
                assert np.max(np.abs(blk - want)) <= 1e-12 * scale
    assert min(pieces) == 1 and max(pieces) >= 2


def test_blockwise_contraction_spreads_to_dense_product():
    # the mode contraction h <> h taken block by block, spread to the grid,
    # against the dense weighted product on every shape of the tables: odd
    # and even axes, a single omega sample and the trivial space
    nblocks = []
    for cfg, grid in table_cases():
        ops = oracle.GridOperators(FieldKernels(cfg), grid)
        space = oracle.square_grid_blocks(grid) or oracle._trivial_space(grid)
        nblocks.append(space.nblocks)
        h = oracle._pair_kernel_blocks(ops, space, cfg.crystal.length)
        dense = ops.htilde(cfg.crystal.length)
        ref = dense @ dense
        got = space.spread([blk @ blk for blk in h])
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert max(nblocks) > 1 and min(nblocks) == 1


def test_providers_form_no_grid_sized_array(monkeypatch):
    def refuse(*args):
        raise AssertionError("a grid-sized array was formed")

    monkeypatch.setattr(oracle.GridOperators, "htilde", refuse)
    monkeypatch.setattr(oracle._BlockSpace, "spread", refuse)
    thin = thin_reference_config(0.3)
    thick = thick_crystal_config()
    for cfg, grid, several in (
        (thin, thin_reference_grid(thin, 9, 8), False),
        (thick, thin_reference_grid(thick, 8, 8), True),
        (thin, rectangular_grid(thin), False),
    ):
        ws = oracle.GridWorkspace(FieldKernels(cfg), grid)
        assert (len(ws.provider.pieces) > 1) == several
        for s in range(ws.space.nblocks):
            assert np.all(np.isfinite(ws.provider.block(s, 0.37 * ws.length)))
    # building the acceptance-size workspace: what it allocates beyond what
    # it keeps stays below one real grid-sized array
    cfg = thin_reference_config(0.2)
    grid = thin_reference_grid(cfg, 17, 9)
    kern = FieldKernels(cfg)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ws = oracle.GridWorkspace(kern, grid)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ws.provider.pieces) == 1
    assert peak - kept < grid.size**2 * 8


def test_workspace_keeps_no_grid_sized_array():
    cfg = thin_reference_config(0.3)
    grid = thin_reference_grid(cfg, 9, 9)
    ws = oracle.GridWorkspace(FieldKernels(cfg), grid)
    sizes, seen = [], set()

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            sizes.append(obj.size)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                walk(item)
        elif hasattr(obj, "__dict__"):
            walk(vars(obj))

    walk(ws)
    # the block-form Taylor coefficients are the largest arrays held
    assert max(sizes) == max(c.size for coeff in ws.provider.coeffs for c in coeff)
    assert max(sizes) < grid.size**2


def test_weighted_plain_round_trip():
    cfg = thin_reference_config(0.3)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg)
    ops = oracle.GridOperators(kern, grid)
    h = oracle.KernelMatrix(grid, ops.htilde(0.0), True)
    back = h.to_plain().to_weighted()
    assert np.allclose(back.matrix, h.matrix)


def test_numeric_contraction_matches_closed_form_on_grid():
    # grid-quadrature H+ <> H against the order-2 closed form, on columns
    # whose contraction support lies inside the grid extent
    cfg = narrowband_reference_config()
    kern = FieldKernels(cfg)
    q = cfg.derive()
    k_half = 9.0 / cfg.pump.waist
    w_half = 7.0 * cfg.pump.bandwidth
    grid = oracle.build_grid(k_half, 17, q.omega_deg, w_half, 17, cfg=cfg)
    i = grid.size // 2
    margin_k = k_half - 6.2 / cfg.pump.waist
    margin_w = w_half - 4.6 * cfg.pump.bandwidth
    sel = (
        (np.abs(grid.K[:, 0]) <= margin_k)
        & (np.abs(grid.K[:, 1]) <= margin_k)
        & (np.abs(grid.omega - q.omega_deg) <= margin_w)
    )
    cols = np.where(sel)[0]
    assert cols.size >= 50
    row_vec = np.conj(kern.bilinear_kernel(grid.K[i], grid.K, grid.omega[i], grid.omega, 0.0))
    h_cols = kern.bilinear_kernel(
        grid.K[:, None, :], grid.K[cols][None, :, :],
        grid.omega[:, None], grid.omega[cols][None, :], 0.0,
    )
    numeric = (row_vec * grid.weight) @ h_cols
    term = kern.contracted_kernel(2)
    closed = term(grid.K[i], grid.K[cols], grid.omega[i], grid.omega[cols]) * (
        2.0 / cfg.crystal.length**2
    )
    keep = np.abs(closed) > 1e-3 * np.max(np.abs(closed))
    err = np.max(np.abs(numeric[keep] - closed[keep]) / np.abs(closed[keep]))
    assert err < 1e-4


def test_grid_self_convergence():
    # doubling the point count changes a test contraction below 1e-4
    cfg = narrowband_reference_config()
    kern = FieldKernels(cfg)
    q = cfg.derive()
    vals = []
    for nk, nw in ((17, 9), (33, 17)):
        grid = oracle.build_grid(
            6.0 / cfg.pump.waist, nk, q.omega_deg, 3.5 * cfg.pump.bandwidth, nw, cfg=cfg
        )
        c = grid.size // 2  # on-axis degenerate mode
        col = kern.bilinear_kernel(grid.K, grid.K[c], grid.omega, grid.omega[c], 0.0)
        vals.append(np.sum(grid.weight * np.abs(col) ** 2))
    assert abs(vals[1] - vals[0]) / abs(vals[1]) < 1e-4


def test_solver_zero_gain():
    cfg = thin_reference_config(0.0)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 8, 8)
    sol = oracle.solve_UV_ode(kern, grid)
    uw = sol.forward.to_weighted().matrix
    assert np.allclose(uw, np.eye(grid.size))
    assert all(np.all(v == 0.0) for v in sol.conjugate.blocks)
    assert sol.constraint_defect == 0.0


def test_solver_rejects_few_steps():
    cfg = thin_reference_config(0.2)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 8, 8)
    with pytest.raises(ValueError):
        oracle.solve_UV_ode(kern, grid, steps=32)


def test_solver_tolerance_contract(monkeypatch):
    # the Taylor regime: the recurrence, one step over [0, L]
    cfg = thin_reference_config(0.2)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 8, 8)
    ws = oracle.GridWorkspace(kern, grid)
    assert len(ws.provider.pieces) == 1
    sol = oracle.solve_UV_ode(kern, grid, workspace=ws)
    info = sol.info
    assert set(info) == {"steps", "terms", "error_bound", "tolerance", "blocks"}
    assert info["steps"] == 1
    assert info["tolerance"] == oracle.DEPTH_TOL
    assert 0.0 <= info["error_bound"] <= info["tolerance"]
    assert info["terms"] > 2
    assert info["blocks"] == oracle._block_dims(ws.space)
    assert sol.constraint_defect < 1e-10
    # a tolerance below what double precision can prove raises instead of
    # returning
    monkeypatch.setattr(oracle, "DEPTH_TOL", 1e-18)
    with pytest.raises(oracle.StepCountError, match="cannot be proven"):
        oracle.solve_UV_ode(kern, grid, workspace=ws)


@pytest.mark.parametrize("case", range(2), ids=["thick", "shipped"])
def test_piecewise_tolerance_contract(monkeypatch, case):
    # the direct regime: the recurrence over several pieces
    cfg, grid = direct_regime_cases()[case]
    kern = FieldKernels(cfg)
    ws = oracle.GridWorkspace(kern, grid)
    sol = oracle.solve_UV_ode(kern, grid, workspace=ws)
    info = sol.info
    assert set(info) == {"steps", "terms", "error_bound", "tolerance", "blocks"}
    assert info["steps"] == len(ws.provider.pieces) >= 2
    assert info["tolerance"] == oracle.DEPTH_TOL
    assert 0.0 <= info["error_bound"] <= info["tolerance"]
    assert info["blocks"] == oracle._block_dims(ws.space)
    assert sol.constraint_defect < 1e-10
    # a tolerance below what double precision can prove raises instead of
    # returning
    monkeypatch.setattr(oracle, "DEPTH_TOL", 1e-18)
    with pytest.raises(oracle.StepCountError, match="cannot be proven"):
        oracle.solve_UV_ode(kern, grid, workspace=ws)


@pytest.mark.parametrize("case", range(2), ids=["thick", "shipped"])
def test_piecewise_solve_raises_on_nan_coefficient(case):
    # a NaN in a term the majorant reads (order 1 of the first piece) and in
    # one it does not (order 0 of the last piece, whose bound comes from the
    # magnitude factors) must not come back as a solution
    cfg, grid = direct_regime_cases()[case]
    pieces = oracle.GridWorkspace(FieldKernels(cfg), grid).provider.pieces
    for piece, order in ((0, 1), (-1, 0)):
        ws = oracle.GridWorkspace(FieldKernels(cfg), grid)
        ws.provider.pieces[piece][order][0][0, 0] = np.nan
        with pytest.raises(oracle.StepCountError):
            oracle._taylor_blocks(ws)
    assert len(pieces) >= 2


def test_workspace_must_match_grid_and_config():
    cfg = thin_reference_config(0.3)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 8, 8)
    wide = oracle.build_grid(12.0 / cfg.pump.waist, 8, cfg.derive().omega_deg,
                             8.0 * cfg.pump.bandwidth, 8)
    other = FieldKernels(thin_reference_config(0.4))
    for ws, kern_called in ((oracle.GridWorkspace(kern, wide), kern),
                            (oracle.GridWorkspace(kern, grid), other)):
        with pytest.raises(oracle.GridMismatchError):
            oracle.solve_UV_ode(kern_called, grid, workspace=ws)
        with pytest.raises(oracle.GridMismatchError):
            oracle.series_UV(kern_called, grid, workspace=ws)
    ws = oracle.GridWorkspace(kern, grid)
    # an equal grid built separately is accepted
    same = thin_reference_grid(cfg, 8, 8)
    oracle.series_UV(FieldKernels(cfg), same, order=1, z_nodes=3, workspace=ws)


def test_negative_length_and_too_few_nodes_rejected():
    cfg = thin_reference_config(0.3)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 8, 1)
    with pytest.raises(ValueError, match="length must be >= 0"):
        oracle.GridWorkspace(kern, grid, length=-cfg.crystal.length)
    for z_nodes in (1, 0):
        with pytest.raises(ValueError, match="z_nodes must be >= 2"):
            oracle.series_UV(kern, grid, z_nodes=z_nodes)


def _max_diff(first, second):
    return max(float(np.max(np.abs(a - b))) for a, b in zip(first, second))


@pytest.mark.parametrize("count", [8, 9])
@pytest.mark.parametrize("gain", [0.2, 0.5, 1.0])
def test_taylor_tail_bound_is_honest(monkeypatch, count, gain):
    cfg = thin_reference_config(gain)
    ws = oracle.GridWorkspace(FieldKernels(cfg), thin_reference_grid(cfg, count, count))
    [(U, V)], info = oracle._taylor_blocks(ws)
    monkeypatch.setattr(oracle, "DEPTH_TOL", 1e-13)
    [(U_ref, V_ref)], ref_info = oracle._taylor_blocks(ws)
    assert ref_info["terms"] > info["terms"]
    assert _max_diff(U + V, U_ref + V_ref) <= info["error_bound"] <= 1e-9


@pytest.mark.parametrize("case, ref_tol", [(0, 1e-13), (1, 1e-12)], ids=["thick", "shipped"])
def test_piecewise_tail_bound_is_honest(monkeypatch, case, ref_tol):
    # the reference tolerance is the least the bound can prove: its rounding
    # allowance grows with the majorant, which gain 1 on the shipped config
    # puts above 1e-13
    cfg, grid = direct_regime_cases()[case]
    ws = oracle.GridWorkspace(FieldKernels(cfg), grid)
    [(U, V)], info = oracle._taylor_blocks(ws)
    assert info["steps"] >= 2
    # the 1024-step RK4 stands on its own step-doubling estimate
    U_fine, V_fine = _rk4_textbook(ws, 1024)
    U_half, V_half = _rk4_textbook(ws, 512)
    estimate = _max_diff(U_fine + V_fine, U_half + V_half) / 15.0
    assert _max_diff(U + V, U_fine + V_fine) <= info["error_bound"] + 2.0 * estimate
    monkeypatch.setattr(oracle, "DEPTH_TOL", ref_tol)
    [(U_ref, V_ref)], ref_info = oracle._taylor_blocks(ws)
    assert ref_info["terms"] > info["terms"]
    assert _max_diff(U + V, U_ref + V_ref) <= info["error_bound"] <= 1e-9


def test_taylor_recurrence_matches_fine_rk4():
    # gain 1.0, where the 1024-step RK4's own error stands above rounding
    cfg = thin_reference_config(1.0)
    ws = oracle.GridWorkspace(FieldKernels(cfg), thin_reference_grid(cfg, 8, 8))
    [(U, V)], info = oracle._taylor_blocks(ws)
    U_fine, V_fine = _rk4_textbook(ws, 1024)
    U_half, V_half = _rk4_textbook(ws, 512)
    estimate = _max_diff(U_fine + V_fine, U_half + V_half) / 15.0
    assert estimate > 1e-14
    assert _max_diff(U + V, U_fine + V_fine) <= info["error_bound"] + 2.0 * estimate


@settings(max_examples=8, deadline=None, derandomize=True)
@given(gain=st.floats(0.05, 1.0), fraction=st.floats(0.1, 1.0))
def test_taylor_recurrence_matches_rk4_property(gain, fraction):
    cfg = thin_reference_config(gain)
    ws = oracle.GridWorkspace(FieldKernels(cfg), thin_reference_grid(cfg, 8, 8),
                              fraction * cfg.crystal.length)
    assert len(ws.provider.pieces) == 1
    [(U, V)], info = oracle._taylor_blocks(ws)
    U_64, V_64 = _rk4_textbook(ws, 64)
    U_32, V_32 = _rk4_textbook(ws, 32)
    estimate = _max_diff(U_64 + V_64, U_32 + V_32) / 15.0
    assert _max_diff(U + V, U_64 + V_64) <= info["error_bound"] + 2.0 * estimate


def test_fixed_steps_bit_identical_to_rk4():
    cfg = thin_reference_config(0.3)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 9, 8)
    ws = oracle.GridWorkspace(kern, grid)
    sol = oracle.solve_UV_ode(kern, grid, steps=64, workspace=ws)
    U, V = oracle._rk4_blocks(ws, 64)
    assert sol.info == {"steps": 64, "blocks": oracle._block_dims(ws.space)}
    assert sol.forward.space is sol.conjugate.space is ws.space
    for got, want in ((sol.forward.blocks, U), (sol.conjugate.blocks, V)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_identity_defect_at_gain_one():
    # U+U - V+V - 1, the quantity checked before, is 2 max|Im V+V|: a physical
    # value that fails the 1e-6 gate at gain 1.0 however accurate the solve
    cfg = thin_reference_config(1.0)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 9, 9)
    sol = oracle.solve_UV_ode(kern, grid)
    u = sol.forward.to_weighted().matrix
    v = sol.conjugate.to_weighted().matrix
    old = u.conj().T @ u - v.conj().T @ v - np.eye(grid.size)
    assert np.max(np.abs(old)) > 1e-6
    assert sol.constraint_defect <= 1e-10


def _textbook_kernel(ws, z):
    """The blocks of H(z) summed term by term from the provider's stored
    terms, pair_phase (i (z - z_j))^k R_k on the piece of z: a reference
    that does not go through ``_TaylorProvider.block``."""
    provider = ws.provider
    last = len(provider.pieces) - 1
    j = min(int(z / provider.length), last) if last else 0
    x = 1j * (z - j * provider.length)
    return [sum(ws.kern.pair_phase * x**k * terms[s] for k, terms in enumerate(provider.pieces[j]))
            for s in range(ws.space.nblocks)]


def _rk4_textbook(ws, steps, drop_last_stage=False):
    """Textbook RK4 of dU = V H / 2, dV = U conj(H) / 2 on the workspace
    blocks, with H(z) from ``_textbook_kernel``; with ``drop_last_stage``
    the end-of-step slope is replaced by the third.  A step starts from the
    previous step's end kernel when their depths are the same float, so
    the results are those of evaluating H at every stage."""
    dims = oracle._block_dims(ws.space)
    U = [np.eye(d, dtype=complex) for d in dims]
    V = [np.zeros((d, d), dtype=complex) for d in dims]
    h = ws.length / steps

    def slope(H, u, v):
        return 0.5 * v @ H, 0.5 * u @ np.conj(H)

    end, H_end = None, None
    for i in range(steps):
        z = i * h
        H_lo = H_end if end == z + 0.0 * h else _textbook_kernel(ws, z + 0.0 * h)
        H_mid, H_hi = (_textbook_kernel(ws, z + f * h) for f in (0.5, 1.0))
        end, H_end = z + 1.0 * h, H_hi
        for s in range(len(dims)):
            u, v = U[s], V[s]
            k1 = slope(H_lo[s], u, v)
            k2 = slope(H_mid[s], u + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
            k3 = slope(H_mid[s], u + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
            k4 = k3 if drop_last_stage else slope(H_hi[s], u + h * k3[0], v + h * k3[1])
            U[s] = u + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            V[s] = v + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return U, V


def test_identity_defect_flags_broken_integrator():
    cfg = thin_reference_config(0.3)
    ws = oracle.GridWorkspace(FieldKernels(cfg), thin_reference_grid(cfg, 9, 8))
    U, V = _rk4_textbook(ws, 64)
    U_pkg, V_pkg = oracle._rk4_blocks(ws, 64)
    assert max(float(np.max(np.abs(a - b))) for a, b in zip(U + V, U_pkg + V_pkg)) < 1e-12
    assert oracle._bogoliubov_defect(ws.space, U, V) < 1e-10
    broken = _rk4_textbook(ws, 64, drop_last_stage=True)
    assert oracle._bogoliubov_defect(ws.space, *broken) > 1e-6


def _series_textbook(ws, order, z_nodes):
    """The iterated-integral series level by level: T_0(z) = int_0^z
    conj(H) and T_k(z) = int_0^z T_(k-1) H_k, with H_k = conj(H) for even k
    and H for odd k, each by the cumulative trapezoid rule over ``z_nodes``
    equally spaced depths; U = 1 + the odd and V = the even T_k(L) /
    2^(k+1).  H(z) comes from ``_textbook_kernel``."""
    zs = np.linspace(0.0, ws.length, z_nodes)
    h = zs[1] - zs[0]
    kernels = [_textbook_kernel(ws, z) for z in zs]
    U, V = [], []
    for s, d in enumerate(oracle._block_dims(ws.space)):
        fields = [np.eye(d, dtype=complex), np.zeros((d, d), dtype=complex)]
        running = None
        for k in range(order):
            mats = [np.conj(H[s]) if k % 2 == 0 else H[s] for H in kernels]
            integrand = mats if k == 0 else [t @ m for t, m in zip(running, mats)]
            running = [np.zeros((d, d), dtype=complex)]
            for a, b in zip(integrand, integrand[1:]):
                running.append(running[-1] + 0.5 * h * (a + b))
            fields[(k + 1) % 2] = fields[(k + 1) % 2] + running[-1] / 2 ** (k + 1)
        U.append(fields[0])
        V.append(fields[1])
    return U, V


def test_integrators_match_textbook_on_two_pieces(monkeypatch):
    # the shipped config on its own 8x8x8 grid: two pieces, the second with
    # complex terms, which the other integrator tests do not reach
    cfg = load_config_file(SHIPPED_CONFIG)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 8, 8)
    ws = oracle.GridWorkspace(kern, grid)
    assert len(ws.provider.pieces) == 2
    assert all(np.iscomplexobj(blk) for terms in ws.provider.pieces[1] for blk in terms)
    with monkeypatch.context() as patch:
        # the references never ask the provider's own evaluation of H(z)
        patch.setattr(oracle._TaylorProvider, "block", None)
        references = [_rk4_textbook(ws, 64), _series_textbook(ws, 4, 33)]
    series = oracle.series_UV(kern, grid, order=4, z_nodes=33, workspace=ws)
    results = [oracle._rk4_blocks(ws, 64), tuple(kernel.blocks for kernel in series)]
    for (U, V), (U_ref, V_ref) in zip(results, references):
        scale = max(float(np.max(np.abs(blk))) for blk in U_ref + V_ref)
        assert _max_diff(U + V, U_ref + V_ref) <= 1e-12 * scale


@pytest.mark.parametrize("integrator", ["rk4", "series"])
def test_depth_integrators_hold_one_block_at_a_time(integrator):
    # 9x9x8: blocks of 120/48/80/80/160 rows, the largest 46 % of sum d^2.
    # Traced peak above the result, in arrays of the largest block: 12.3
    # for the RK4 and 10.3 for the series integrating one block at a time;
    # 21.1 and 21.4 when every depth formed H(z) for all blocks at once.
    cfg = thin_reference_config(0.3)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 9, 8)
    ws = oracle.GridWorkspace(kern, grid)
    dims = oracle._block_dims(ws.space)
    assert max(dims) ** 2 < 0.5 * sum(d * d for d in dims)
    largest, result = 16 * max(dims) ** 2, 2 * 16 * sum(d * d for d in dims)
    run = {
        "rk4": lambda: oracle._rk4_blocks(ws, 64),
        "series": lambda: oracle.series_UV(kern, grid, order=4, z_nodes=9, workspace=ws),
    }[integrator]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= result + 16 * largest


def _taylor_textbook(ws, terms, drop_u_newest=False):
    """Textbook Taylor recurrence of dU = V H / 2, dV = U conj(H) / 2 with
    H(z) = sum_k c_k z^k, c_k = pair_phase i^k R_k from the provider's
    unphased blocks R_k: (n+1) u_(n+1) = sum_k v_(n-k) c_k / 2 and (n+1)
    v_(n+1) = sum_k u_(n-k) conj(c_k) / 2, summed at z = L.
    ``drop_u_newest`` leaves out the k = 0 term of the U equation."""
    coeffs = [[ws.kern.pair_phase * 1j**k * blk for blk in terms]
              for k, terms in enumerate(ws.provider.coeffs)]
    U, V = [], []
    for s, d in enumerate(oracle._block_dims(ws.space)):
        zero = np.zeros((d, d), dtype=complex)
        u, v = [np.eye(d, dtype=complex)], [zero]
        for n in range(terms - 1):
            ks = range(min(n, len(coeffs) - 1) + 1)
            u.append(sum((v[n - k] @ coeffs[k][s] for k in ks if k or not drop_u_newest), zero)
                     / (2.0 * (n + 1)))
            v.append(sum((u[n - k] @ np.conj(coeffs[k][s]) for k in ks), zero) / (2.0 * (n + 1)))
        U.append(sum(c * ws.length**n for n, c in enumerate(u)))
        V.append(sum(c * ws.length**n for n, c in enumerate(v)))
    return U, V


def test_identity_defect_flags_dropped_convolution_term():
    cfg = thin_reference_config(0.3)
    ws = oracle.GridWorkspace(FieldKernels(cfg), thin_reference_grid(cfg, 9, 8))
    [(U_pkg, V_pkg)], info = oracle._taylor_blocks(ws)
    U, V = _taylor_textbook(ws, info["terms"])
    assert _max_diff(U + V, U_pkg + V_pkg) < 1e-12
    assert oracle._bogoliubov_defect(ws.space, U, V) < 1e-10
    broken = _taylor_textbook(ws, info["terms"], True)
    assert oracle._bogoliubov_defect(ws.space, *broken) > 1e-6


def plain_spaces(monkeypatch):
    """Make every workspace built from here on take one block spanning the
    grid, the plain reference for the point-group blocks."""
    monkeypatch.setattr(oracle, "square_grid_blocks", lambda grid: None)


def test_symmetry_engine_equals_plain(monkeypatch):
    cfg = thin_reference_config(0.35)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 9, 8)
    sym = oracle.solve_UV_ode(kern, grid)
    plain_spaces(monkeypatch)
    plain = oracle.solve_UV_ode(kern, grid)
    assert plain.info["blocks"] == [grid.size]
    assert len(sym.info["blocks"]) > 1
    sym_u, sym_v = sym.forward.to_plain().matrix, sym.conjugate.to_plain().matrix
    plain_u, plain_v = plain.forward.to_plain().matrix, plain.conjugate.to_plain().matrix
    scale_u = np.max(np.abs(plain_u))
    scale_v = np.max(np.abs(plain_v))
    assert np.max(np.abs(sym_u - plain_u)) < 1e-12 * scale_u
    assert np.max(np.abs(sym_v - plain_v)) < 1e-12 * scale_v
    # the identity defect is solve error near rounding level, read on the
    # grid in both spaces, which the two evaluation orders share only to
    # rounding
    assert sym.constraint_defect == pytest.approx(plain.constraint_defect, rel=0, abs=1e-13)


def test_symmetry_engine_equals_plain_thick_crystal(monkeypatch):
    # a long crystal forces the per-depth kernel rebuild path
    cfg = thick_crystal_config()
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 8, 8)
    ws = oracle.GridWorkspace(kern, grid)
    assert len(ws.provider.pieces) >= 2
    sym = oracle.solve_UV_ode(kern, grid, steps=64, workspace=ws)
    plain_spaces(monkeypatch)
    plain = oracle.solve_UV_ode(kern, grid, steps=64)
    assert plain.info["blocks"] == [grid.size]
    assert len(sym.info["blocks"]) > 1
    sym_v, plain_v = sym.conjugate.to_plain().matrix, plain.conjugate.to_plain().matrix
    scale = np.max(np.abs(plain_v))
    assert np.max(np.abs(sym_v - plain_v)) < 1e-12 * scale


@pytest.mark.parametrize("k_count, omega_count", [(9, 8), (8, 8), (1, 8)])
def test_square_grid_blocks_decompose_grid_space(k_count, omega_count):
    cfg = thin_reference_config(0.3)
    grid = thin_reference_grid(cfg, k_count, omega_count)
    space = oracle.square_grid_blocks(grid)
    k_bases = space.k_bases()
    bases = np.hstack([q for copies in k_bases for q in copies])
    assert bases.shape == (k_count**2, k_count**2)
    assert np.max(np.abs(bases.T @ bases - np.eye(k_count**2))) < 1e-14
    dims = oracle._block_dims(space)
    assert sum(d * len(c) for d, c in zip(dims, k_bases)) == grid.size
    h = oracle.GridOperators(FieldKernels(cfg), grid).htilde(0.37 * cfg.crystal.length)
    back = space.spread(dense_blocks(space, h))
    assert np.max(np.abs(back - h)) < 1e-14 * np.max(np.abs(h))


def test_square_grid_blocks_dims_and_missing_symmetry():
    cfg = thin_reference_config(0.3)
    grid = thin_reference_grid(cfg, 17, 9)
    # types A1, A2, B1, B2 and the paired E, each times the 9 omega samples
    assert oracle._block_dims(oracle.square_grid_blocks(grid)) == [405, 252, 324, 324, 648]
    kx = grid.kx
    for axes in ((kx, 1.5 * kx), (kx + 0.1 * (kx[1] - kx[0]),) * 2):
        assert oracle.square_grid_blocks(oracle.ModeGrid(*axes, grid.omega_axis)) is None


def test_hyperbolic_subblock_no_symmetry_fallback():
    cfg = narrowband_reference_config()
    q = cfg.derive()
    kern = FieldKernels(cfg)
    kx = np.linspace(-4e3, 4e3, 9)
    grid_sym = oracle.ModeGrid(kx=kx, ky=kx.copy(), omega_axis=np.array([q.omega_deg]))
    grid_asym = oracle.ModeGrid(
        kx=kx, ky=kx.copy() * 1.0000001, omega_axis=np.array([q.omega_deg])
    )
    assert oracle.square_grid_blocks(grid_asym) is None
    idx = np.arange(10, 30)
    a = oracle.hyperbolic_uv_subblock(kern, grid_sym, idx)
    b = oracle.hyperbolic_uv_subblock(kern, grid_asym, idx)
    assert np.allclose(a[0], b[0], rtol=1e-5)
    assert np.allclose(a[1], b[1], rtol=1e-5)


def dense_hyperbolic(kern, grid):
    """Reference cosh/sinh: eigh of the full weight-absorbed magnitude."""
    K, om = grid.K, grid.omega
    mag = kern.bilinear_magnitude(K[:, None, :], K[None, :, :], om[:, None], om[None, :])
    sw = np.sqrt(grid.weight)
    mag = 0.5 * kern.cfg.crystal.length * mag * np.outer(sw, sw)
    evals, evecs = np.linalg.eigh(0.5 * (mag + mag.T))
    return (evecs * np.cosh(evals)) @ evecs.T, (evecs * np.sinh(evals)) @ evecs.T


def assert_hyperbolic_close(got, ref, rtol=1e-12):
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= rtol * np.max(np.abs(r))


def test_hyperbolic_matrix_matches_dense_rectangular_grid():
    # unequal, off-centre kx and ky axes: no point-group symmetry at all
    cfg = narrowband_reference_config(0.4)
    grid = rectangular_grid(cfg)
    kern = FieldKernels(cfg)
    assert_hyperbolic_close(oracle.hyperbolic_matrix_uv(kern, grid), dense_hyperbolic(kern, grid))


def test_hyperbolic_matrix_matches_dense_single_omega():
    cfg = narrowband_reference_config(0.4)
    q = cfg.derive()
    kern = FieldKernels(cfg)
    grid = oracle.build_grid(5.0 / cfg.pump.waist, 9, q.omega_deg, 0.0, 1, cfg=cfg)
    assert_hyperbolic_close(oracle.hyperbolic_matrix_uv(kern, grid), dense_hyperbolic(kern, grid))


def test_hyperbolic_subblock_matches_dense_scattered_indices():
    cfg = narrowband_reference_config(0.4)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 10, 9)
    idx = np.random.default_rng(5).choice(grid.size, size=70, replace=False)
    cosh, sinh = dense_hyperbolic(kern, grid)
    assert_hyperbolic_close(
        oracle.hyperbolic_uv_subblock(kern, grid, idx),
        (cosh[np.ix_(idx, idx)], sinh[np.ix_(idx, idx)]),
    )


axis_count = st.sampled_from([1, 8, 9, 10, 11, 12])


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    counts=st.tuples(axis_count, axis_count, axis_count),
    k_lo=st.floats(-8.0, 0.0),
    k_span=st.tuples(st.floats(0.5, 10.0), st.floats(0.5, 10.0)),
    w_lo=st.floats(-6.0, 0.0),
    w_span=st.floats(0.5, 10.0),
)
def test_hyperbolic_factorized_matches_dense_property(counts, k_lo, k_span, w_lo, w_span):
    cfg = narrowband_reference_config(0.4)
    q = cfg.derive()
    w = cfg.pump.waist
    nx, ny, nw = counts

    def axis(lo, span, n, unit):
        return (lo + np.linspace(0.0, span, n) if n > 1 else np.array([lo])) * unit

    grid = oracle.ModeGrid(
        kx=axis(k_lo, k_span[0], nx, 1.0 / w),
        ky=axis(-k_lo - k_span[1], k_span[1], ny, 1.0 / w),
        omega_axis=q.omega_deg + axis(w_lo, w_span, nw, cfg.pump.bandwidth),
    )
    kern = FieldKernels(cfg)
    assert_hyperbolic_close(
        oracle.hyperbolic_matrix_uv(kern, grid), dense_hyperbolic(kern, grid)
    )


def test_constraint_along_trajectory():
    cfg = thin_reference_config(0.4)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 8, 8)
    L = cfg.crystal.length
    for frac in np.linspace(1.0 / 8.0, 1.0, 8):
        ws = oracle.GridWorkspace(kern, grid, length=frac * L)
        sol = oracle.solve_UV_ode(kern, grid, workspace=ws)
        assert sol.constraint_defect < 1e-6


def test_rk4_convergence_order():
    cfg = thin_reference_config(0.5)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 8, 8)
    ref = oracle.solve_UV_ode(kern, grid, steps=1024)
    errs = []
    for steps in (64, 128):
        sol = oracle.solve_UV_ode(kern, grid, steps=steps)
        errs.append(
            np.max(np.abs(sol.forward.to_plain().matrix - ref.forward.to_plain().matrix))
            + np.max(np.abs(sol.conjugate.to_plain().matrix - ref.conjugate.to_plain().matrix))
        )
    assert errs[0] / errs[1] >= 8.0


def test_series_order_one_matches_quadrature():
    cfg = thin_reference_config(0.3)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 8, 8)
    _, v1 = oracle.series_UV(kern, grid, order=1, z_nodes=33)
    ops = oracle.GridOperators(kern, grid)
    zs = np.linspace(0, cfg.crystal.length, 129)
    stack = np.array([np.conj(ops.htilde(z)) for z in zs])
    direct = 0.5 * np.trapezoid(stack, zs, axis=0)
    vw = v1.to_weighted().matrix
    assert np.max(np.abs(vw - direct)) < 1e-8 * np.max(np.abs(direct))


def test_series_vs_ode():
    cfg = thin_reference_config(0.2)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 9, 9)
    sol = oracle.solve_UV_ode(kern, grid)
    u4, v4 = oracle.series_UV(kern, grid, order=4)
    du = np.max(np.abs(u4.to_weighted().matrix - sol.forward.to_weighted().matrix))
    dv = np.max(np.abs(v4.to_weighted().matrix - sol.conjugate.to_weighted().matrix))
    assert max(du, dv) < 1e-5


def test_series_matches_thin_crystal_sums():
    # thin-crystal regime: the series agrees with the closed-form sums on
    # the interior block the grid quadrature resolves
    cfg = narrowband_reference_config(0.2)
    kern = FieldKernels(cfg)
    q = kern.q
    p = cfg.pump
    grid = oracle.build_grid(
        7.0 / p.waist, 13, q.omega_deg, 6.0 * p.bandwidth, 15, cfg=cfg
    )
    u_s, v_s = oracle.series_UV(kern, grid, order=6)
    sel = np.where(
        (np.abs(grid.K[:, 0]) <= 2.5 / p.waist)
        & (np.abs(grid.K[:, 1]) <= 2.5 / p.waist)
        & (np.abs(grid.omega - q.omega_deg) <= 2.8 * p.bandwidth)
    )[0]
    assert sel.size >= 100
    K1 = grid.K[sel][:, None, :]
    K2 = grid.K[sel][None, :, :]
    w1 = grid.omega[sel][:, None]
    w2 = grid.omega[sel][None, :]
    u_cf, v_cf, _ = kern.thin_crystal_uv(K1, K2, w1, w2)
    sw = np.sqrt(grid.weight[sel])
    scale = np.outer(sw, sw)
    u_cf_w = u_cf * scale
    u_cf_w[np.arange(sel.size), np.arange(sel.size)] += 1.0
    v_cf_w = np.abs(v_cf) * scale
    uw = u_s.to_weighted().matrix[np.ix_(sel, sel)]
    vw = np.abs(v_s.to_weighted().matrix[np.ix_(sel, sel)])
    assert np.linalg.norm(uw - u_cf_w) / np.linalg.norm(u_cf_w) < 1e-3
    assert np.linalg.norm(vw - v_cf_w) / np.linalg.norm(v_cf_w) < 1e-3


def test_hyperbolic_sums_check():
    res = check_hyperbolic_sums()
    assert res.passed, f"{res.name}: {res.value} vs {res.tolerance} ({res.note})"


def test_zeta_orders_consistency_check():
    res = check_zeta_orders_consistency()
    assert res.passed, f"{res.name}: {res.value} vs {res.tolerance}"


def test_build_ab_zero_gain():
    cfg = thin_reference_config(0.0)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 8, 8)
    sol = oracle.solve_UV_ode(kern, grid)
    a_mat, b_mat = oracle.build_AB(sol.forward, sol.conjugate)
    assert np.allclose(a_mat.to_weighted().matrix, np.eye(grid.size))
    assert all(np.all(b == 0.0) for b in b_mat.blocks)


def test_block_kernel_grid_matrices():
    cfg = thin_reference_config(0.3)
    grid = thin_reference_grid(cfg, 9, 8)
    sol = oracle.solve_UV_ode(FieldKernels(cfg), grid)
    s = np.sqrt(grid.weight)
    for kernel in (sol.forward, sol.conjugate):
        # the plain matrix the solvers returned before: spread, then divided
        spread = kernel.space.spread(kernel.blocks)
        spread /= np.outer(s, s)
        plain = kernel.to_plain()
        assert not plain.weighted and np.array_equal(plain.matrix, spread)
        weighted = kernel.to_weighted()
        ref = plain.to_weighted().matrix
        assert weighted.weighted
        assert np.max(np.abs(weighted.matrix - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_spread_max_abs_equals_spread_without_a_grid_matrix():
    rng = np.random.default_rng(5)
    for cfg, grid in table_cases():
        space = oracle.square_grid_blocks(grid) or oracle._trivial_space(grid)
        blocks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                  for d in oracle._block_dims(space)]
        tracemalloc.start()
        try:
            largest = space.spread_max_abs(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert largest == np.max(np.abs(space.spread(blocks)))
        # one omega row of the grid matrix at a time: on grids of 8 omega
        # samples, well under a complex grid matrix
        if min(grid.shape) > 1:
            assert peak < grid.size**2 * 16 / 2


def test_solvers_form_no_grid_matrix(monkeypatch):
    cfg = thin_reference_config(0.3)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 9, 8)
    ws = oracle.GridWorkspace(kern, grid)

    def no_spread(self, blocks):
        raise AssertionError("a grid matrix was formed")

    monkeypatch.setattr(oracle._BlockSpace, "spread", no_spread)
    sol = oracle.solve_UV_ode(kern, grid, workspace=ws)
    series = oracle.series_UV(kern, grid, order=4, z_nodes=9, workspace=ws)
    squeezed = oracle.build_AB(sol.forward, sol.conjugate)
    for kernel in (sol.forward, sol.conjugate, *series, *squeezed):
        assert isinstance(kernel, oracle.BlockKernel) and kernel.space is ws.space
    with pytest.raises(AssertionError, match="grid matrix"):
        sol.forward.to_weighted()


def test_build_ab_blockwise_matches_dense():
    cfg = thin_reference_config(1.0)
    grid = thin_reference_grid(cfg, 9, 8)
    sol = oracle.solve_UV_ode(FieldKernels(cfg), grid)
    a_mat, b_mat = oracle.build_AB(sol.forward, sol.conjugate)
    assert len(a_mat.blocks) > 1
    a_ref, b_ref = oracle._compose_ab(
        sol.forward.to_weighted().matrix, sol.conjugate.to_weighted().matrix
    )
    for got, ref in ((a_mat, a_ref), (b_mat, b_ref)):
        assert np.max(np.abs(got.to_weighted().matrix - ref)) <= 1e-13 * np.max(np.abs(ref))
    dense_min = np.min(np.linalg.eigvalsh(0.5 * (a_ref + a_ref.conj().T)))
    block_min = min(np.min(np.linalg.eigvalsh(0.5 * (a + a.conj().T))) for a in a_mat.blocks)
    assert block_min == pytest.approx(dense_min, rel=0, abs=1e-13)
    # one block spanning the grid cannot be paired with the point-group blocks
    whole = oracle.BlockKernel(grid, oracle._trivial_space(grid),
                               [np.eye(grid.size, dtype=complex)])
    with pytest.raises(oracle.GridMismatchError):
        oracle.build_AB(whole, sol.conjugate)


def test_squeezed_kernel_properties():
    cfg = thin_reference_config(0.3)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 9, 9)
    sol = oracle.solve_UV_ode(kern, grid)
    a_mat, _ = oracle.build_AB(sol.forward, sol.conjugate)
    aw = a_mat.to_weighted().matrix
    assert np.max(np.abs(aw - aw.conj().T)) < 1e-10 * np.max(np.abs(aw))
    assert np.min(np.linalg.eigvalsh(0.5 * (aw + aw.conj().T))) >= 1.0 - 1e-6


def test_ab_depth_equation_defect():
    cfg = thin_reference_config(0.3)
    kern = FieldKernels(cfg)
    defect = oracle.ab_consistency_defect(kern, thin_reference_grid(cfg, 9, 1))
    assert defect < 1e-4


def test_ab_depth_equation_defect_on_coupled_grid():
    # with eight omega samples the pair kernel couples the modes, unlike on
    # the single-omega grid where V is ~1e-13: the defect is truncation error
    # of the central differences, not rounding
    cfg = thin_reference_config(0.3)
    defect = oracle.ab_consistency_defect(FieldKernels(cfg), thin_reference_grid(cfg, 8, 8))
    assert 1e-9 < defect < 1e-4


def test_ab_depth_equation_defect_on_multi_piece_crystals():
    # the thick crystal and the shipped config, each on its own coupled
    # 8x8x8 grid where the depth expansion takes several pieces
    for cfg, grid in direct_regime_cases():
        kern = FieldKernels(cfg)
        assert len(oracle.GridWorkspace(kern, grid).provider.pieces) > 1
        assert oracle.ab_consistency_defect(kern, grid) < 1e-4


def test_uv_product_symmetry_reported():
    cfg = thin_reference_config(0.3)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, 9, 9)
    sol = oracle.solve_UV_ode(kern, grid)
    uv = sol.forward.to_weighted().matrix @ sol.conjugate.to_weighted().matrix
    assert np.max(np.abs(uv - uv.T)) / np.max(np.abs(uv)) < 1e-3


def test_oracle_zeta2_zero_seed():
    cfg = with_overrides(thin_reference_config(0.3), seed_photons=0.0)
    kern = FieldKernels(cfg)
    assert oracle.oracle_zeta2(kern, np.zeros(2)) == (0.0, 0.0)


def test_oracle_background_zero_gain():
    cfg = with_overrides(thin_reference_config(0.0))
    kern = FieldKernels(cfg)
    assert oracle.oracle_background(kern, 0.0) == (0.0, 0.0)


def test_quadrature_error_reported(combined_cfg, collinear_cfg):
    # the 64- and 96-node rules agree to about 1e-14, short of 1e-16
    kern = FieldKernels(combined_cfg)
    K1 = -np.asarray(seed_shift(combined_cfg, kern.q))
    with pytest.raises(oracle.QuadratureError, match="rtol 1e-16"):
        oracle.oracle_zeta2(kern, K1, rtol=1e-16)
    with pytest.raises(oracle.QuadratureError, match="rtol 1e-16"):
        oracle.oracle_background(FieldKernels(collinear_cfg), 0.0, rtol=1e-16)


# -- the quadrature oracles against scipy's adaptive quadrature --------------


def _scipy_zeta2(kern, K1):
    """The idler amplitude by nested adaptive quadrature: omega2 inside z."""
    cfg, q = kern.cfg, kern.q
    p, s = cfg.pump, cfg.seed
    w1 = q.omega_deg
    shift = np.asarray(seed_shift(cfg, q))
    kz1, chi1 = float(kern.kz(w1)), float(kern.chi(w1))
    amp = (
        1j * (q.kernel_prefactor * q.order_gain / cfg.crystal.length) * np.exp(1j * p.phase)
        * math.sqrt(2.0 * math.pi) * s.amplitude * np.exp(-1j * s.phase) * s.waist
    )
    wp2, wx2 = p.waist**2, s.waist**2

    def integrand(w2, z):
        kz2 = float(kern.kz(w2))
        qq = kz1 * kz2 / (kz1 + kz2)
        a = 0.25 * (wp2 + wx2) + 0.5j * z * qq / kz2**2
        b = -0.5 * wp2 * K1 + 0.5 * wx2 * shift + 1j * z * qq * K1 / (kz1 * kz2)
        const = -0.25 * wp2 * K1**2 - 0.25 * wx2 * shift**2 - 0.5j * z * qq * K1**2 / kz1**2
        gauss = (math.pi / a) * np.exp(np.sum(b * b / (4.0 * a) + const)) / (2.0 * math.pi) ** 2
        spectra = gaussian_spectrum(w1 + w2 - p.omega, p.bandwidth) * gaussian_spectrum(
            w2 - q.omega_deg, s.bandwidth
        )
        phase = np.exp(0.5j * z * (chi1 + float(kern.chi(w2))))
        return amp * math.sqrt(w1 * w2) * spectra * phase * gauss

    bw = math.hypot(p.bandwidth, s.bandwidth)

    def over_omega(z):
        return quad(integrand, q.omega_deg - 8.0 * bw, q.omega_deg + 8.0 * bw, args=(z,),
                    epsabs=0.0, epsrel=1e-10, limit=200, complex_func=True)[0]

    total = quad(over_omega, 0.0, cfg.crystal.length, epsabs=0.0, epsrel=1e-10,
                 limit=200, complex_func=True)[0]
    return 0.5 * total / (2.0 * math.pi)


@pytest.fixture(scope="module")
def shipped_idler_points():
    """The shipped configuration and three points across its idler lobe."""
    kern = FieldKernels(load_config_file(SHIPPED_CONFIG))
    q = kern.q
    width = q.waist_sum / (kern.cfg.pump.waist * kern.cfg.seed.waist)
    offsets = np.array([[-3.0, 0.0], [0.0, 0.0], [1.5, 1.0]]) * width
    return kern, -np.asarray(seed_shift(kern.cfg, q)) + offsets


def test_oracle_zeta2_against_adaptive_quadrature(shipped_idler_points):
    kern, points = shipped_idler_points
    values, err = oracle.oracle_zeta2(kern, points)
    assert values.shape == (3,)
    assert err < 1e-12
    reference = np.array([_scipy_zeta2(kern, k) for k in points])
    assert np.max(np.abs(values - reference) / np.abs(reference)) < 1e-10


def test_oracle_zeta2_vectorized_matches_single_points(shipped_idler_points):
    kern, points = shipped_idler_points
    grid = points[:, None, :] + np.array([0.0, 1.0, -2.0, 0.5])[:, None] / kern.cfg.pump.waist
    values, err = oracle.oracle_zeta2(kern, grid)
    assert values.shape == grid.shape[:-1]
    singles = np.array([oracle.oracle_zeta2(kern, k) for k in grid.reshape(-1, 2)])
    assert np.max(singles[:, 1].real) == err
    assert np.max(np.abs(singles[:, 0] - values.ravel()) / np.abs(values.ravel())) < 1e-15


def test_package_import_leaves_scipy_integrate_out():
    # numpy is the only runtime dependency: no scipy module at all is loaded
    code = (
        "import pdcfield, pdcfield.cli, sys; "
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
        "assert not loaded, loaded"
    )
    src = str(Path(pdcfield.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
