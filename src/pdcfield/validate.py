"""Cross-validation suite: every closed form checked against an
independent numerical route.

Checks that probe sharp identities run on dedicated internal
configurations (quasi-monochromatic pump, strongly thin crystal) where
the compared quantities agree to the stated tolerances; model-error
checks (idler and background depth expansions) run on the caller's
configuration.  Each check returns a CheckResult; `run_validation`
collects the standard table.

Each kernel pair goes through one depth solve per `run_validation` call,
through the public `oracle.solve_UV_ode` (the series through
`oracle.series_UV`), stays in point-group block form and is freed after
its checks: `check_bogoliubov_constraint` (gain 0.2) feeds
`check_series_vs_ode` its solution and workspace,
`check_squeezed_kernels` (gain 0.3) feeds `check_uv_product_symmetry`, and
the solve is timed in the first row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .config import (
    ExperimentConfig,
    PumpConfig,
    SeedConfig,
    CrystalConfig,
    DetectorConfig,
    seed_shift,
)
from .kernels import FieldKernels, gaussian_spectrum
from .stimulated import (
    efficiency_f,
    zeta_orders,
    zeta_branches,
    zeta2_tca,
)
from .background import (
    background_radial,
    background_peak_value,
    RADIAL_CROSSOVER,
)
from . import oracle


@dataclass
class CheckResult:
    name: str
    value: float        # measured defect / error
    tolerance: float
    passed: bool
    seconds: float
    note: str = ""


def _result(name, value, tolerance, t0, note=""):
    return CheckResult(
        name=name,
        value=float(value),
        tolerance=float(tolerance),
        passed=bool(value < tolerance),
        seconds=time.perf_counter() - t0,
        note=note,
    )


# -- internal reference configurations --------------------------------------


def thin_reference_config(squeezing: float = 0.2) -> ExperimentConfig:
    """Strongly thin-crystal configuration for kernel-algebra checks."""
    return ExperimentConfig(
        pump=PumpConfig(omega=2.0 * math.pi * 299792458.0 / 0.4e-6,
                        bandwidth=5e11, waist=5e-3),
        seed=SeedConfig(amplitude=2.0, waist=5e-3, bandwidth=5e11),
        crystal=CrystalConfig(length=0.5e-3, cross_section=1e-22,
                              squeezing=squeezing),
        detector=DetectorConfig(focal_length=0.1, aperture=2e-3, bandwidth=1e9),
    )


def thin_reference_grid(cfg: ExperimentConfig, k_count=9, omega_count=9) -> oracle.ModeGrid:
    """Tensor grid spanning six pump K-widths and four bandwidths."""
    return oracle.build_grid(
        6.0 / cfg.pump.waist, k_count, cfg.derive().omega_deg,
        4.0 * cfg.pump.bandwidth, omega_count, cfg=cfg,
    )


def narrowband_reference_config(squeezing: float = 0.2) -> ExperimentConfig:
    """Quasi-monochromatic pump; the contracted closed forms become sharp."""
    return ExperimentConfig(
        pump=PumpConfig(omega=2.0 * math.pi * 299792458.0 / 0.4e-6,
                        bandwidth=3e8, waist=1e-3),
        seed=SeedConfig(amplitude=2.0, waist=0.7e-3, bandwidth=3e8,
                        shift=(1.5e3, 0.0)),
        crystal=CrystalConfig(length=1e-3, cross_section=1e-22,
                              squeezing=squeezing),
        detector=DetectorConfig(focal_length=0.1, aperture=2e-3, bandwidth=1e7),
    )


# -- direct quadrature helper -------------------------------------------------


def numeric_pair_contraction(kern: FieldKernels, K1, K3, omega1, omega3,
                             z1: float = 0.0, z2: float = 0.0):
    """Brute-force contraction of conj(pair kernel at z1) with the pair
    kernel at z2 over the shared mode, by dense tensor quadrature on 48
    nodes per axis."""
    p = kern.cfg.pump
    nk = nw = 48
    K1 = np.asarray(K1, float)
    K3 = np.asarray(K3, float)
    center_k = -0.5 * (K1 + K3)
    half_k = 7.0 / p.waist
    kx = center_k[0] + np.linspace(-half_k, half_k, nk)
    ky = center_k[1] + np.linspace(-half_k, half_k, nk)
    center_w = p.omega - 0.5 * (omega1 + omega3)
    wax = center_w + np.linspace(-6.0 * p.bandwidth, 6.0 * p.bandwidth, nw)
    KX, KY, W = np.meshgrid(kx, ky, wax, indexing="ij")
    K2 = np.stack([KX, KY], axis=-1)
    vals = np.conj(kern.bilinear_kernel(K1, K2, omega1, W, z1)) * kern.bilinear_kernel(
        K2, K3, W, omega3, z2
    )
    cell = (kx[1] - kx[0]) * (ky[1] - ky[0]) * (wax[1] - wax[0])
    return np.sum(vals) * cell / (2.0 * math.pi) ** 3


def _quadrature_note(err: float) -> str:
    """Achieved error of a depth-quadrature oracle run at its default rtol."""
    return f"quadrature error {err:.1e} (rtol 1e-9)"


# -- individual checks --------------------------------------------------------


def check_spectrum_normalization() -> CheckResult:
    t0 = time.perf_counter()
    worst = 0.0
    for bw in (1e8, 5e11, 2e13):
        x = np.linspace(-8.0 * bw, 8.0 * bw, 20001)
        total = np.trapezoid(gaussian_spectrum(x, bw) ** 2, x)
        worst = max(worst, abs(total - 2.0 * math.pi) / (2.0 * math.pi))
    return _result("spectrum power normalization", worst, 1e-6, t0)


def check_prefactor_identity(cfg: ExperimentConfig) -> CheckResult:
    """M0 * M1 against L * |pair amplitude|, each side from raw formulas."""
    t0 = time.perf_counter()
    q = cfg.derive()
    c = 299792458.0
    p, x = cfg.pump, cfg.crystal
    amp = q.pump_amplitude
    m0 = math.pi**1.25 * p.waist**2 / math.sqrt(p.bandwidth)
    m1 = (
        4.0 * math.sqrt(2.0) * x.length * amp * x.cross_section
        * math.sqrt(p.omega * p.bandwidth) / (math.pi**0.75 * c**2 * p.waist)
    )
    pair_amp = 4.0 * math.sqrt(2.0 * math.pi * p.omega) * amp * x.cross_section * p.waist / c**2
    value = abs(m0 * m1 - x.length * pair_amp) / abs(m0 * m1)
    value = max(value, abs(q.kernel_prefactor - m0) / m0)
    value = max(value, abs(q.order_gain - m1) / m1 if m1 else 0.0)
    return _result(
        "prefactor identity (kernel scale x order gain = L x amplitude)",
        value,
        1e-12,
        t0,
    )


def check_mismatch_symmetry(cfg: ExperimentConfig) -> CheckResult:
    t0 = time.perf_counter()
    samples = 64
    kern = FieldKernels(cfg)
    q = kern.q
    rng = np.random.default_rng(7)
    K1 = rng.normal(scale=2.0 / cfg.pump.waist, size=(samples, 2))
    K2 = rng.normal(scale=2.0 / cfg.pump.waist, size=(samples, 2))
    w1 = q.omega_deg * (1.0 + 1e-4 * rng.standard_normal(samples))
    w2 = q.omega_deg * (1.0 + 1e-4 * rng.standard_normal(samples))
    a = kern.phase_mismatch(K1, K2, w1, w2)
    b = kern.phase_mismatch(K2, K1, w2, w1)
    scale = np.max(np.abs(a)) or 1.0
    worst = np.max(np.abs(a - b)) / scale
    collinear = abs(kern.phase_mismatch(np.zeros(2), np.zeros(2), q.omega_deg, q.omega_deg))
    note = "" if cfg.crystal.pdc_angle else f"collinear on-axis value {collinear:.2e}"
    value = worst if cfg.crystal.pdc_angle else max(worst, collinear)
    return _result("phase mismatch swap symmetry", value, 1e-12, t0, note)


def check_kernel_magnitude(cfg: ExperimentConfig) -> CheckResult:
    t0 = time.perf_counter()
    samples = 32
    kern = FieldKernels(cfg)
    q = kern.q
    rng = np.random.default_rng(11)
    K1 = rng.normal(scale=2.0 / cfg.pump.waist, size=(samples, 2))
    K2 = rng.normal(scale=2.0 / cfg.pump.waist, size=(samples, 2))
    w1 = q.omega_deg + cfg.pump.bandwidth * rng.standard_normal(samples)
    w2 = q.omega_deg + cfg.pump.bandwidth * rng.standard_normal(samples)
    worst = 0.0
    h0 = kern.bilinear_kernel(K1, K2, w1, w2, 0.0)
    for z in (0.3 * cfg.crystal.length, cfg.crystal.length):
        hz = kern.bilinear_kernel(K1, K2, w1, w2, z)
        worst = max(worst, float(np.max(np.abs(np.abs(hz) - np.abs(h0)) / np.abs(h0))))
    sym = kern.bilinear_kernel(K2, K1, w2, w1, 0.7 * cfg.crystal.length)
    hz = kern.bilinear_kernel(K1, K2, w1, w2, 0.7 * cfg.crystal.length)
    worst = max(worst, float(np.max(np.abs(sym - hz) / np.abs(hz))))
    return _result("pair kernel |.| depth-independence and symmetry", worst, 1e-12, t0)


def check_pair_contraction() -> CheckResult:
    """Numeric conj(H) <> H at zero depth against the order-2 closed form,
    at three random points."""
    t0 = time.perf_counter()
    n_points = 3
    cfg = narrowband_reference_config()
    kern = FieldKernels(cfg)
    q = kern.q
    rng = np.random.default_rng(3)
    term = kern.contracted_kernel(2)
    worst = 0.0
    for _ in range(n_points):
        K1 = rng.normal(scale=0.8 / cfg.pump.waist, size=2)
        K3 = rng.normal(scale=0.8 / cfg.pump.waist, size=2)
        w1 = q.omega_deg + 0.5 * cfg.pump.bandwidth * rng.standard_normal()
        w3 = q.omega_deg + 0.5 * cfg.pump.bandwidth * rng.standard_normal()
        numeric = numeric_pair_contraction(kern, K1, K3, w1, w3)
        closed = term(K1, K3, w1, w3) * 2.0 / cfg.crystal.length**2
        worst = max(worst, abs(numeric - closed) / abs(closed))
    return _result("pair contraction vs order-2 closed form", worst, 1e-4, t0)


def check_diamond_algebra(cfg: ExperimentConfig) -> CheckResult:
    """Blockwise mode contraction against the grid, for the pair kernel h at
    z = L formed block by block from its per-axis tables: the blocks spread
    back against the dense kernel (which fails too if they drop coupling
    between blocks), the blockwise h h against the dense product on every
    8th row, and (h h) h against h (h h) per block.  The spreads are
    compared one omega row chunk at a time: chunk a holds the grid rows
    (i, a) of every K mode i."""
    t0 = time.perf_counter()
    grid = thin_reference_grid(cfg)
    ops = oracle.GridOperators(FieldKernels(cfg), grid)
    space = oracle.square_grid_blocks(grid)
    dims = oracle._block_dims(space)
    h = oracle._pair_kernel_blocks(ops, space, cfg.crystal.length)
    hh = [blk @ blk for blk in h]
    dense = ops.htilde(cfg.crystal.length)
    rows = np.arange(0, grid.size, 8)
    product = dense[rows] @ dense

    def largest(arrays):
        return max(float(np.max(np.abs(x), initial=0.0)) for x in arrays)

    nw = space.nw
    worst_h = worst_hh = top_h = 0.0
    for a, (h_rows, hh_rows) in enumerate(zip(space._spread_rows(h), space._spread_rows(hh))):
        mine = rows % nw == a
        worst_h = max(worst_h, largest([h_rows - dense[a::nw]]))
        top_h = max(top_h, largest([dense[a::nw]]))
        worst_hh = max(worst_hh, largest([hh_rows[rows[mine] // nw] - product[mine]]))
    left, right = [p @ blk for p, blk in zip(hh, h)], [blk @ p for p, blk in zip(hh, h)]
    worst = max(
        worst_h / top_h,
        worst_hh / largest([product]),
        largest([g - w for g, w in zip(left, right)]) / largest(right),
    )
    return _result("mode-contraction identity and associativity", worst, 1e-10, t0,
                   note=f"blocks {'/'.join(map(str, dims))}, {rows.size} rows")


def check_bogoliubov_constraint(
    squeezing: float = 0.2, k_count: int = 17, omega_count: int = 9
):
    """Bogoliubov identity defect of the default depth solve, the Taylor
    recurrence whose term count comes from its proven tail.  Returns the
    check plus the solution and workspace for reuse."""
    t0 = time.perf_counter()
    cfg = thin_reference_config(squeezing)
    kern = FieldKernels(cfg)
    grid = thin_reference_grid(cfg, k_count, omega_count)
    workspace = oracle.GridWorkspace(kern, grid)
    sol = oracle.solve_UV_ode(kern, grid, workspace=workspace)
    info = sol.info
    res = _result(
        f"Bogoliubov constraint (gain {squeezing}, grid "
        f"{k_count}x{k_count}x{omega_count})",
        sol.constraint_defect,
        1e-6,
        t0,
        note=f"Taylor {info['terms']} terms, tail bound {info['error_bound']:.1e} "
             f"(tol {info['tolerance']:g})",
    )
    return res, sol, workspace


def check_series_vs_ode(sol: oracle.BogoliubovSolution, workspace) -> CheckResult:
    """Order-4 series against the solution of `check_bogoliubov_constraint`; the
    defect is the largest entry difference of the weight-absorbed kernels (the
    natural dimensionless scale, on which the forward kernel is near identity)."""
    t0 = time.perf_counter()
    series = oracle.series_UV(workspace.kern, workspace.grid, order=4, z_nodes=9,
                              workspace=workspace)
    defect = max(workspace.space.spread_max_abs([a - b for a, b in zip(sk.blocks, dk.blocks)])
                 for sk, dk in zip(series, (sol.forward, sol.conjugate)))
    return _result("iterated-integral series vs depth integration", defect, 1e-5, t0)


def check_hyperbolic_sums() -> CheckResult:
    """Thin-crystal kernel sums against matrix cosh/sinh on a grid.

    The matrix functions are trustworthy only where every contraction in
    their power series is resolved by the grid, so the comparison runs on
    an interior block of modes with full coverage margins.
    """
    t0 = time.perf_counter()
    cfg = narrowband_reference_config()
    kern = FieldKernels(cfg)
    q = kern.q
    p = cfg.pump
    grid = oracle.build_grid(
        9.0 / p.waist, 17, q.omega_deg, 8.0 * p.bandwidth, 21, cfg=cfg
    )
    sel = np.where(
        (np.abs(grid.K[:, 0]) <= 2.9 / p.waist)
        & (np.abs(grid.K[:, 1]) <= 2.9 / p.waist)
        & (np.abs(grid.omega - q.omega_deg) <= 3.7 * p.bandwidth)
    )[0]
    cosh_sub, sinh_sub = oracle.hyperbolic_uv_subblock(kern, grid, sel)
    # exact hyperbolic identity on a small full grid
    small = oracle.build_grid(
        6.0 / p.waist, 9, q.omega_deg, 5.0 * p.bandwidth, 9, cfg=cfg
    )
    cosh_m, sinh_m = oracle.hyperbolic_matrix_uv(kern, small)
    cs_identity = cosh_m @ cosh_m - sinh_m @ sinh_m
    np.fill_diagonal(cs_identity, np.diagonal(cs_identity) - 1.0)
    hyper_defect = float(np.max(np.abs(cs_identity)))

    K1 = grid.K[sel][:, None, :]
    K2 = grid.K[sel][None, :, :]
    w1 = grid.omega[sel][:, None]
    w2 = grid.omega[sel][None, :]
    u_smooth, v_val, _ = kern.thin_crystal_uv(K1, K2, w1, w2)
    sw = np.sqrt(grid.weight[sel])
    scale = np.outer(sw, sw)
    u_mat = u_smooth * scale
    u_mat[np.arange(sel.size), np.arange(sel.size)] += 1.0
    v_mag = np.abs(v_val) * scale

    du = np.linalg.norm(u_mat - cosh_sub) / np.linalg.norm(cosh_sub)
    dv = np.linalg.norm(v_mag - sinh_sub) / np.linalg.norm(sinh_sub)
    res = _result(
        "thin-crystal sums vs matrix cosh/sinh",
        max(du, dv),
        1e-6,
        t0,
        note=f"cosh^2-sinh^2 defect {hyper_defect:.1e}",
    )
    res.passed = res.passed and hyper_defect < 1e-8
    return res


def check_squeezed_kernels() -> tuple[CheckResult, oracle.BogoliubovSolution]:
    """Composed squeezed-state kernels: positivity, Hermiticity, depth law.
    The bases of the blocks are real, so the eigenvalues of the kernel are
    those of its blocks and its anti-Hermitian part is the spread of theirs.
    Returns the check plus the gain-0.3 solution for reuse."""
    t0 = time.perf_counter()
    cfg = thin_reference_config(0.3)
    kern = FieldKernels(cfg)
    sol = oracle.solve_UV_ode(kern, thin_reference_grid(cfg))
    a_mat, _ = oracle.build_AB(sol.forward, sol.conjugate)
    skew = [a - a.conj().T for a in a_mat.blocks]
    herm = a_mat.space.spread_max_abs(skew) / a_mat.space.spread_max_abs(a_mat.blocks)
    min_eig = min(
        float(np.min(np.linalg.eigvalsh(0.5 * (a + a.conj().T)))) for a in a_mat.blocks
    )
    defect = oracle.ab_consistency_defect(kern, thin_reference_grid(cfg, 9, 1))
    res = _result(
        "squeezed kernels (Hermitian / >= identity / depth equations)",
        defect,
        1e-4,
        t0,
        note=f"depth-equation defect {defect:.2e} (tol 1e-4), min eig {min_eig:.9f}",
    )
    res.passed = res.passed and herm < 1e-6 and min_eig > 1.0 - 1e-6
    return res, sol


def check_uv_product_symmetry(sol: oracle.BogoliubovSolution) -> CheckResult:
    """Forward x conjugate product symmetry of `check_squeezed_kernels`' solution.

    (UV)^T = UV holds only while the pair kernel commutes with itself across
    depths, so this flags how far the configuration is from a thin crystal;
    the Bogoliubov identity U V^T = V U^T is in `check_bogoliubov_constraint`.
    """
    t0 = time.perf_counter()
    # U V block by block; the bases are real, so uv - uv^T spreads from the
    # blocks' own differences
    space = sol.forward.space
    uv = [u @ v for u, v in zip(sol.forward.blocks, sol.conjugate.blocks)]
    defect = space.spread_max_abs([p - p.T for p in uv]) / space.spread_max_abs(uv)
    return _result(
        "forward<>conjugate product symmetry (flags config if large)",
        defect,
        1e-3,
        t0,
        note="thin-crystal flag, not a Bogoliubov identity",
    )


def _seed_kernel_sums(kern: FieldKernels, grid: oracle.ModeGrid, k_rows: np.ndarray):
    """The seed transformed by the thin-crystal kernel sums, on the rows
    whose K mode ``k_rows`` selects (a mask over the grid's K modes, Kx
    then Ky) at every omega: the signal xi + u_smooth xi and the idler
    v conj(xi), each a (K rows, omega samples) array, and the last order and
    on-peak term of each sum.

    Each order of a sum is a K factor times an omega factor, so with the
    weighted seed X reshaped to (K modes, omega samples) its contraction is
    k_factor @ X @ w_factor.T, and no (rows x grid) array is formed.
    """
    nw = grid.omega_axis.size
    K, om = grid.K[::nw], grid.omega_axis
    xi = kern.seed_profile(grid.K, grid.omega).reshape(-1, nw)
    weighted = grid.weight.reshape(-1, nw) * xi
    sums, last = [], []
    for parity, x in (("even", weighted), ("odd", np.conj(weighted))):
        total = np.zeros((np.count_nonzero(k_rows), nw), dtype=complex)
        for m, peak, k_factor, w_factor in kern.thin_crystal_terms(
            parity, K[k_rows][:, None], K[None], om[:, None], om[None]
        ):
            total += k_factor @ x @ w_factor.T
        sums.append(total)
        last.append((m, peak))
    return xi[k_rows] + sums[0], kern.pair_phase * sums[1], last


def check_zeta_orders_consistency() -> CheckResult:
    """Per-order closed forms against the seed contracted with the kernel
    sums, on the K modes whose contraction support the grid fully covers
    (a tensor subset, at every omega).  The contraction runs order by order
    on K x omega factor pairs (`_seed_kernel_sums`)."""
    t0 = time.perf_counter()
    cfg = narrowband_reference_config(0.25)
    kern = FieldKernels(cfg)
    q = kern.q
    grid = oracle.build_grid(
        5.5 / cfg.seed.waist, 13, q.omega_deg, 6.0 * cfg.pump.bandwidth, 15, cfg=cfg
    )
    inner = 3.2 / cfg.seed.waist
    k_rows = ((np.abs(grid.kx) <= inner)[:, None] & (np.abs(grid.ky) <= inner)[None, :]).ravel()
    signal_grid, idler_grid, ((u_order, u_last), (v_order, v_last)) = _seed_kernel_sums(
        kern, grid, k_rows
    )
    K = grid.K[:: grid.omega_axis.size][k_rows]
    terms = zeta_orders(kern, 10)
    signal_cf, idler_cf = zeta_branches(terms, K[:, None], grid.omega_axis[None, :])
    err = max(
        np.linalg.norm(np.abs(on_grid) - np.abs(closed)) / np.linalg.norm(np.abs(closed))
        for on_grid, closed in ((signal_grid, signal_cf), (idler_grid, idler_cf))
    )
    return _result("per-order amplitudes vs kernel-sum contraction", err, 1e-3, t0,
                   note=f"u to order {u_order} (last term {u_last:.1e}), "
                        f"v to order {v_order} (last term {v_last:.1e})")


def check_idler_tca(cfg: ExperimentConfig, n_points: int = 9) -> CheckResult:
    """Idler closed form vs direct depth quadrature, L2 over the idler lobe."""
    t0 = time.perf_counter()
    kern = FieldKernels(cfg)
    q = kern.q
    shift = np.asarray(seed_shift(cfg, q))
    width = q.waist_sum / (cfg.pump.waist * cfg.seed.waist)  # K width of the lobe
    offsets = np.linspace(-2.0, 2.0, n_points)
    ks = -shift[None, :] + np.stack([offsets, np.zeros_like(offsets)], axis=-1) * (
        2.0 * width
    )
    closed = zeta2_tca(kern, ks, q.omega_deg)
    exact, quad_err = oracle.oracle_zeta2(kern, ks)
    err = np.linalg.norm(closed - exact) / np.linalg.norm(exact)
    return _result("idler closed form vs depth quadrature (L2)", err, 0.05, t0,
                   note=_quadrature_note(quad_err))


def check_background_tca(cfg: ExperimentConfig) -> CheckResult:
    t0 = time.perf_counter()
    kern = FieldKernels(cfg)
    q = kern.q
    radii = (0.0, q.radial_scale, 2.0 * q.radial_scale)
    exact, quad_errs = zip(*(oracle.oracle_background(kern, r) for r in radii))
    worst = max(abs(background_radial(kern, r) - e) / abs(e) for r, e in zip(radii, exact))
    return _result("background closed form vs double depth quadrature", worst, 0.05, t0,
                   note=_quadrature_note(max(quad_errs)))


def check_efficiency() -> CheckResult:
    t0 = time.perf_counter()
    worst = abs(efficiency_f(0.0, 0.0) - 1.0)
    a = np.linspace(-16.0, 16.0, 20001)
    vals = efficiency_f(a, 0.4)
    if np.any(vals < 0):
        worst = max(worst, 1.0)
    peak = a[np.argmax(vals)]
    if not -0.45 <= peak <= -0.33:
        worst = max(worst, 1.0)
    # continuity across the series crossover
    for beta in (0.0, 0.4, 2.0):
        for a0 in (2e-3, -2e-3):
            direct = efficiency_f(a0 * 1.0000001, beta)
            series = (
                (1.0 + beta**2 / 4.0)
                - (beta / 6.0) * a0
                - (1.0 / 12.0 + beta**2 / 72.0) * a0**2
                + (beta / 90.0) * a0**3
                + (1.0 / 360.0 + beta**2 / 2880.0) * a0**4
            )
            worst = max(worst, abs(direct - series) / direct)
    return _result("efficiency curve (limit / peak bracket / positivity)", worst, 1e-6, t0)


def check_background_crossover(cfg: ExperimentConfig) -> CheckResult:
    t0 = time.perf_counter()
    kern = FieldKernels(cfg)
    q = kern.q
    r0sq = q.ring_radius**2
    worst = 0.0
    for side in (1.0, -1.0):
        u = side * RADIAL_CROSSOVER * q.radial_scale**2
        if r0sq + u <= 0:
            continue
        r_edge = math.sqrt(r0sq + u)
        lo = background_radial(kern, r_edge * (1.0 - 1e-9))
        hi = background_radial(kern, r_edge * (1.0 + 1e-9))
        worst = max(worst, abs(hi - lo) / abs(hi))
    limit = background_peak_value(kern)
    worst_limit = abs(background_radial(kern, q.ring_radius) - limit) / limit
    res = _result(
        "background series/direct crossover continuity",
        worst,
        1e-8,
        t0,
        note=f"ring-radius value vs limit {worst_limit:.2e} (tol 1e-4)",
    )
    res.passed = res.passed and worst_limit < 1e-4
    return res


def run_validation(cfg: ExperimentConfig, full: bool = False) -> list[CheckResult]:
    """Run the standard table of checks; `full` uses the default-size grid
    for the depth integration and 25 idler points (slow on small machines)."""
    results = [
        check_spectrum_normalization(),
        check_prefactor_identity(cfg),
        check_mismatch_symmetry(cfg),
        check_kernel_magnitude(cfg),
        check_pair_contraction(),
        check_diamond_algebra(cfg),
    ]
    res, solution, workspace = check_bogoliubov_constraint(0.2, 17 if full else 9, 9)
    results += [res, check_series_vs_ode(solution, workspace)]
    del solution, workspace
    results.append(check_hyperbolic_sums())
    res, solution = check_squeezed_kernels()
    results += [res, check_uv_product_symmetry(solution)]
    del solution
    results.append(check_zeta_orders_consistency())
    results.append(check_idler_tca(cfg, n_points=9 if not full else 25))
    results.append(check_background_tca(cfg))
    results.append(check_efficiency())
    results.append(check_background_crossover(cfg))
    return results
