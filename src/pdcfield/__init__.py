"""Far-field intensity modeling of seeded parametric down-conversion,
with independent numerical validation and parameter fitting."""

from .config import (
    ConfigError,
    CrystalConfig,
    DetectorConfig,
    DerivedQuantities,
    ExperimentConfig,
    PumpConfig,
    SeedConfig,
    load_config,
    load_config_file,
    seed_shift,
    with_overrides,
)
from .kernels import FieldKernels, ContractedKernel, gaussian_spectrum
from .stimulated import (
    OrderTerm,
    efficiency_f,
    idler_modulation,
    optimal_seed_geometry,
    stimulated_intensity,
    zeta2_tca,
    zeta_branches,
    zeta_orders,
)
from .background import (
    background_intensity,
    background_peak_value,
    background_radial,
    hh_contraction,
)
from .oracle import (
    BlockKernel,
    BogoliubovSolution,
    KernelMatrix,
    ModeGrid,
    QuadratureError,
    build_AB,
    build_grid,
    oracle_background,
    oracle_zeta2,
    series_UV,
    solve_UV_ode,
)
from .fitting import (
    FitResult,
    ForwardModel,
    IntensityImage,
    combined_intensity,
    fit_parameters,
    synthesize_image,
)
from .validate import run_validation

__version__ = "0.1.0"
