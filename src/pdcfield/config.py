"""Experiment configuration: parsing, validation and derived constants.

All quantities are stored internally in SI units (m, s, rad/s).  Config
files are INI-style documents with sections [pump], [seed], [crystal]
and [detector].  One table, ``_SCHEMA``, names the keys of each section
and the unit kind of each key (length, angle, area, wavenumber, angular
frequency, bandwidth or dimensionless).  The parser converts each value
to SI as it reads it: a dimensioned value must carry a unit suffix of
its kind (e.g. ``waist = 0.2 mm``), a bandwidth may be given as a
duration, read as its reciprocal, and every number must be finite.  An
unknown section or an unknown key is an error, so a misspelled key or a
section nothing reads is never silently ignored.  The section builders
then apply the rules between keys, such as the pump's one frequency and
the seed's one shift style.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

SPEED_OF_LIGHT = 299792458.0  # m/s

_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12, "fs": 1e-15}
_ANGFREQ_UNITS = {"rad/s": 1.0, "1/s": 1.0}

# SI factor of each unit, by unit kind; a bandwidth may also be a duration
# (_TIME_UNITS), read as its reciprocal
_UNITS = {
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "μm": 1e-6,
               "nm": 1e-9},
    "angle": {"rad": 1.0, "mrad": 1e-3, "deg": math.pi / 180.0},
    "area": {"m^2": 1.0, "cm^2": 1e-4, "mm^2": 1e-6, "um^2": 1e-12, "nm^2": 1e-18},
    "wavenumber": {"1/m": 1.0, "1/mm": 1e3, "1/um": 1e6},
    "angular-frequency": _ANGFREQ_UNITS,
    "bandwidth": _ANGFREQ_UNITS,
    "dimensionless": None,
}

# The keys each section accepts and the unit kind of each
_SCHEMA = {
    "pump": {
        "wavelength": "length", "degenerate_wavelength": "length",
        "frequency": "angular-frequency", "bandwidth": "bandwidth", "waist": "length",
        "amplitude": "dimensionless", "phase": "angle",
    },
    "seed": {
        "photons": "dimensionless", "amplitude": "dimensionless", "waist": "length",
        "bandwidth": "bandwidth", "eta": "dimensionless", "frequency": "angular-frequency",
        "phase": "angle", "shift_x": "length", "shift_y": "length", "kx": "wavenumber",
        "ky": "wavenumber", "g_factor": "dimensionless",
    },
    "crystal": {
        "length": "length", "cross_section": "area", "refractive_index": "dimensionless",
        "pdc_angle": "angle", "squeezing": "dimensionless",
    },
    "detector": {"focal_length": "length", "aperture": "length", "bandwidth": "bandwidth"},
}


class ConfigError(ValueError):
    """Raised for malformed config documents or out-of-range values."""


def _parse_number(token: str, key: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(
            f"line {line}: value of '{key}' is not a number: {token!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(f"line {line}: value of '{key}' must be finite, got {token!r}")
    return value


def _to_si(key: str, value: float, unit: str | None, kind: str, line: int) -> float:
    """``value`` given in ``unit`` as an SI number of unit kind ``kind``."""
    table = _UNITS[kind]
    if table is None:
        if unit is not None:
            raise ConfigError(
                f"line {line}: '{key}' is dimensionless but has unit {unit!r}"
            )
        return value
    if kind == "bandwidth" and unit in _TIME_UNITS:
        tau = value * _TIME_UNITS[unit]
        if tau <= 0:
            raise ConfigError(f"line {line}: '{key}' must be positive")
        return 1.0 / tau
    if unit is None:
        raise ConfigError(
            f"line {line}: '{key}' is missing a {kind} unit suffix "
            f"(one of {', '.join(sorted(table))})"
        )
    if unit not in table:
        raise ConfigError(
            f"line {line}: '{key}' has unsupported {kind} unit "
            f"{unit!r} (expected one of {', '.join(sorted(table))})"
        )
    return value * table[unit]


def _parse_document(text: str) -> dict[str, dict]:
    """Parse an INI-like document into SI values by section and key.

    An unknown section, an unknown key of a known section or a value
    that does not fit its key's unit kind raises ConfigError naming it
    and its line."""
    sections: dict[str, dict] = {}
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header {raw!r}")
            name = line[1:-1].strip().lower()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            if name not in _SCHEMA:
                raise ConfigError(
                    f"line {lineno}: unknown section [{name}] "
                    f"(expected one of {', '.join(f'[{n}]' for n in _SCHEMA)})"
                )
            kinds = _SCHEMA[name]
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, _, rhs = line.partition("=")
        key = key.strip().lower()
        rhs = rhs.strip().strip('"').strip("'").strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before '='")
        if key not in kinds:
            raise ConfigError(
                f"line {lineno}: unknown key '{key}' in [{name}] "
                f"(expected one of {', '.join(sorted(kinds))})"
            )
        if not rhs:
            raise ConfigError(f"line {lineno}: missing value for '{key}'")
        parts = rhs.split(None, 1)
        value = _parse_number(parts[0], key, lineno)
        unit = parts[1].strip() if len(parts) == 2 else None
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        current[key] = _to_si(key, value, unit, kinds[key], lineno)
    return sections


def _require_positive(name: str, value: float) -> float:
    if not value > 0:
        raise ConfigError(f"'{name}' must be positive, got {value!r}")
    return value


@dataclass(frozen=True)
class PumpConfig:
    """Pump beam parameters (Gaussian profile in the Fourier domain)."""

    omega: float            # center angular frequency [rad/s]
    bandwidth: float        # spectral bandwidth [rad/s]
    waist: float            # beam waist radius [m]
    amplitude: float = 0.0  # |zeta_0|, dimensionless profile magnitude
    phase: float = 0.0      # phase of the complex pump amplitude [rad]

    def __post_init__(self):
        _require_positive("pump.omega", self.omega)
        _require_positive("pump.bandwidth", self.bandwidth)
        _require_positive("pump.waist", self.waist)
        if self.amplitude < 0:
            raise ConfigError("'pump.amplitude' must be non-negative")


@dataclass(frozen=True)
class SeedConfig:
    """Coherent seed beam parameters.

    The center frequency is pinned to the degenerate frequency; the
    transverse shift states where the seed lands in the output plane.
    """

    amplitude: float        # |xi_0| [sqrt(photons)]
    waist: float            # beam waist radius [m]
    bandwidth: float        # spectral bandwidth [rad/s]
    phase: float = 0.0      # seed phase [rad]
    shift: tuple[float, float] = (0.0, 0.0)   # transverse K shift [1/m]
    g_factor: float | None = None  # optional: shift = G * peak offset

    def __post_init__(self):
        _require_positive("seed.waist", self.waist)
        _require_positive("seed.bandwidth", self.bandwidth)
        if self.amplitude < 0:
            raise ConfigError("'seed.amplitude' must be non-negative")

    @property
    def photons(self) -> float:
        """Mean photon number of the seed, |xi_0|^2."""
        return self.amplitude**2


@dataclass(frozen=True)
class CrystalConfig:
    """Nonlinear crystal parameters (type-I, constant-index model)."""

    length: float               # crystal length along z [m]
    cross_section: float        # nonlinear cross-section sigma_ooe [m^2]
    refractive_index: float = 1.0
    pdc_angle: float = 0.0      # PDC emission angle at degeneracy [rad]
    squeezing: float | None = None  # optional target for the gain parameter

    def __post_init__(self):
        _require_positive("crystal.length", self.length)
        _require_positive("crystal.cross_section", self.cross_section)
        if self.refractive_index < 1.0:
            raise ConfigError("'crystal.refractive_index' must be >= 1")
        if not 0.0 <= self.pdc_angle < math.pi / 2:
            raise ConfigError("'crystal.pdc_angle' must lie in [0, pi/2)")
        if self.squeezing is not None and self.squeezing < 0:
            raise ConfigError("'crystal.squeezing' must be non-negative")


@dataclass(frozen=True)
class DetectorConfig:
    """Far-field detection: 2f system plus narrowband filtered point detector."""

    focal_length: float     # lens focal length [m]
    aperture: float         # aperture scale w_D in the crystal plane [m]
    bandwidth: float        # filter bandwidth [rad/s]

    def __post_init__(self):
        _require_positive("detector.focal_length", self.focal_length)
        _require_positive("detector.aperture", self.aperture)
        _require_positive("detector.bandwidth", self.bandwidth)


@dataclass(frozen=True)
class ExperimentConfig:
    pump: PumpConfig
    seed: SeedConfig
    crystal: CrystalConfig
    detector: DetectorConfig

    def derive(self) -> "DerivedQuantities":
        return derive_quantities(self)


@dataclass(frozen=True)
class DerivedQuantities:
    """Composite constants used by every downstream model expression.

    ``k_deg`` is the vacuum wavenumber at the degenerate frequency and is
    the one used in the 2f output-plane mapping; ``k_medium``/``kz_deg``
    are the in-crystal wavenumber and its beam-axis z-component.
    """

    omega_pump: float       # pump center frequency [rad/s]
    omega_deg: float        # degenerate frequency, omega_pump / 2 [rad/s]
    lambda_deg: float       # vacuum wavelength at omega_deg [m]
    k_deg: float            # 2*pi / lambda_deg [1/m]
    k_medium: float         # k(omega_deg) in the crystal [1/m]
    kz_deg: float           # k_z(omega_deg) = k(omega_deg) cos(theta_d) [1/m]
    k_pump: float           # phase-matched pump wavenumber, 2*kz_deg [1/m]
    angular_mismatch: float  # chi at omega_deg: k sin^2(theta)/cos(theta) [1/m]
    squeezing: float        # dimensionless gain parameter of one interaction order
    pump_amplitude: float   # |zeta_0| consistent with `squeezing`
    kernel_prefactor: float  # M0 [m^2 s^(1/2)]
    order_gain: float       # M1 [dimensionless]
    bandwidth_ratio: float  # eta = (pump bw / seed bw)^2
    detector_area: float    # output-plane resolution area [m^2]
    detector_gain: float    # K_D, converts |amplitude|^2 to photon counts
    waist_sum: float        # w0 = sqrt(w_p^2 + w_xi^2) [m]
    idler_beta: float       # L / (kz_deg * w0^2)
    crystal_beta: float     # beta_0 = L / (w_p^2 k_deg cos(theta_d))
    ring_radius: float      # r0 = f sin(theta_d) [m]
    radial_scale: float     # R = f / (k_deg w_p) [m]
    peak_radius: float | None  # sqrt(r0^2 - R^2/2) [m], None if not real


def squeezing_from_amplitude(cfg: ExperimentConfig, amplitude: float) -> float:
    """Gain parameter for a given pump profile magnitude |zeta_0|."""
    p, x = cfg.pump, cfg.crystal
    return (
        x.length
        * amplitude
        * x.cross_section
        * cfg.pump.omega**1.5
        * math.sqrt(p.bandwidth)
        / (math.sqrt(2.0) * math.pi**0.75 * SPEED_OF_LIGHT**2 * p.waist)
    )


def derive_quantities(cfg: ExperimentConfig) -> DerivedQuantities:
    p, s, x, d = cfg.pump, cfg.seed, cfg.crystal, cfg.detector
    omega_deg = 0.5 * p.omega
    lambda_deg = 2.0 * math.pi * SPEED_OF_LIGHT / omega_deg
    k_deg = 2.0 * math.pi / lambda_deg
    k_medium = x.refractive_index * omega_deg / SPEED_OF_LIGHT
    cos_t, sin_t = math.cos(x.pdc_angle), math.sin(x.pdc_angle)
    kz_deg = k_medium * cos_t
    angular_mismatch = k_medium * sin_t**2 / cos_t

    xi_from_amp = squeezing_from_amplitude(cfg, p.amplitude)
    if x.squeezing is None:
        squeezing = xi_from_amp
        amplitude = p.amplitude
    else:
        squeezing = x.squeezing
        unit = squeezing_from_amplitude(cfg, 1.0)
        amplitude = squeezing / unit
        if p.amplitude > 0 and abs(xi_from_amp - squeezing) > 1e-6 * max(
            squeezing, xi_from_amp
        ):
            raise ConfigError(
                "'crystal.squeezing' and 'pump.amplitude' are inconsistent: "
                f"amplitude implies {xi_from_amp:.9g}, config says {squeezing:.9g}"
            )

    kernel_prefactor = math.pi**1.25 * p.waist**2 / math.sqrt(p.bandwidth)
    order_gain = 8.0 * squeezing / p.omega

    area = 2.0 * math.pi * d.focal_length**2 / (k_deg**2 * d.aperture**2)
    detector_gain = (
        (2.0 * math.pi) ** 3
        * math.sqrt(math.pi)
        * k_deg**2
        * area
        * d.bandwidth
        / d.focal_length**2
    )

    waist_sum = math.hypot(p.waist, s.waist)
    idler_beta = x.length / (kz_deg * waist_sum**2)
    crystal_beta = x.length / (p.waist**2 * k_deg * cos_t)
    ring_radius = d.focal_length * sin_t
    radial_scale = d.focal_length / (k_deg * p.waist)
    peak_sq = ring_radius**2 - 0.5 * radial_scale**2
    peak_radius = math.sqrt(peak_sq) if peak_sq >= 0 else None

    return DerivedQuantities(
        omega_pump=p.omega,
        omega_deg=omega_deg,
        lambda_deg=lambda_deg,
        k_deg=k_deg,
        k_medium=k_medium,
        kz_deg=kz_deg,
        k_pump=2.0 * kz_deg,
        angular_mismatch=angular_mismatch,
        squeezing=squeezing,
        pump_amplitude=amplitude,
        kernel_prefactor=kernel_prefactor,
        order_gain=order_gain,
        bandwidth_ratio=(p.bandwidth / s.bandwidth) ** 2,
        detector_area=area,
        detector_gain=detector_gain,
        waist_sum=waist_sum,
        idler_beta=idler_beta,
        crystal_beta=crystal_beta,
        ring_radius=ring_radius,
        radial_scale=radial_scale,
        peak_radius=peak_radius,
    )


def seed_shift(cfg: ExperimentConfig, derived: DerivedQuantities | None = None):
    """Transverse seed shift K_xi [1/m] as a 2-vector, resolving g_factor."""
    if derived is None:
        derived = cfg.derive()
    if cfg.seed.g_factor is not None:
        if derived.peak_radius is None:
            raise ConfigError(
                "seed.g_factor requires a real peak offset "
                "(ring_radius^2 >= radial_scale^2 / 2)"
            )
        x_shift = cfg.seed.g_factor * derived.peak_radius
        k = derived.k_deg * x_shift / cfg.detector.focal_length
        return (k, 0.0)
    return cfg.seed.shift


def _required(sec: dict, section: str, *keys: str) -> dict:
    """``sec`` itself, once each of ``keys`` is found in it."""
    for key in keys:
        if key not in sec:
            raise ConfigError(f"[{section}] is missing '{key}'")
    return sec


def _pump_from_section(sec: dict) -> PumpConfig:
    if sum(k in sec for k in ("wavelength", "degenerate_wavelength", "frequency")) != 1:
        raise ConfigError(
            "[pump] needs exactly one of 'wavelength', 'degenerate_wavelength' "
            "or 'frequency'"
        )
    if "frequency" in sec:
        omega = sec["frequency"]
    elif "wavelength" in sec:
        omega = 2.0 * math.pi * SPEED_OF_LIGHT / _require_positive(
            "pump.wavelength", sec["wavelength"])
    else:
        omega = 4.0 * math.pi * SPEED_OF_LIGHT / _require_positive(
            "pump.degenerate_wavelength", sec["degenerate_wavelength"])
    _required(sec, "pump", "bandwidth", "waist")
    return PumpConfig(
        omega=omega,
        bandwidth=sec["bandwidth"],
        waist=sec["waist"],
        amplitude=sec.get("amplitude", 0.0),
        phase=sec.get("phase", 0.0),
    )


# The seed shift styles; a document may use one
_SHIFT_STYLES = (("shift_x", "shift_y"), ("kx", "ky"), ("g_factor",))


def _seed_from_section(sec: dict, pump: PumpConfig, k_deg: float, focal: float) -> SeedConfig:
    if "photons" in sec and "amplitude" in sec:
        raise ConfigError("[seed] takes 'photons' or 'amplitude', not both")
    if "photons" in sec:
        if sec["photons"] < 0:
            raise ConfigError("'seed.photons' must be non-negative")
        amplitude = math.sqrt(sec["photons"])
    else:
        amplitude = sec.get("amplitude", 0.0)

    if "bandwidth" in sec and "eta" in sec:
        raise ConfigError("[seed] takes 'bandwidth' or 'eta', not both")
    if "eta" in sec:
        if sec["eta"] <= 0:
            raise ConfigError("'seed.eta' must be positive")
        bandwidth = pump.bandwidth / math.sqrt(sec["eta"])
    elif "bandwidth" in sec:
        bandwidth = sec["bandwidth"]
    else:
        raise ConfigError("[seed] is missing 'bandwidth' (or 'eta')")

    if "frequency" in sec:
        omega_deg = 0.5 * pump.omega
        if abs(sec["frequency"] - omega_deg) > 1e-9 * omega_deg:
            raise ConfigError(
                "'seed.frequency' must equal the degenerate frequency "
                f"{omega_deg:.9g} rad/s"
            )

    if sum(any(k in sec for k in style) for style in _SHIFT_STYLES) > 1:
        raise ConfigError(
            "[seed] shift is over-specified; give shift_x/shift_y, kx/ky "
            "or g_factor, but only one style"
        )
    shift = (sec.get("kx", 0.0), sec.get("ky", 0.0))
    if "shift_x" in sec or "shift_y" in sec:
        shift = (k_deg * sec.get("shift_x", 0.0) / focal, k_deg * sec.get("shift_y", 0.0) / focal)

    _required(sec, "seed", "waist")
    return SeedConfig(
        amplitude=amplitude,
        waist=sec["waist"],
        bandwidth=bandwidth,
        phase=sec.get("phase", 0.0),
        shift=shift,
        g_factor=sec.get("g_factor"),
    )


def load_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; returns SI-unit configuration."""
    sections = _parse_document(text)
    for name in ("pump", "seed", "crystal", "detector"):
        if name not in sections:
            raise ConfigError(f"missing required section [{name}]")

    pump = _pump_from_section(sections["pump"])
    # the [crystal] and [detector] keys are the dataclass fields
    crystal = CrystalConfig(**_required(sections["crystal"], "crystal", "length",
                                        "cross_section"))
    detector = DetectorConfig(**_required(sections["detector"], "detector", "focal_length",
                                          "aperture", "bandwidth"))
    k_deg = 0.5 * pump.omega / SPEED_OF_LIGHT  # vacuum wavenumber at degeneracy
    seed = _seed_from_section(sections["seed"], pump, k_deg, detector.focal_length)

    cfg = ExperimentConfig(pump=pump, seed=seed, crystal=crystal, detector=detector)
    cfg.derive()  # surfaces inconsistent squeezing/amplitude settings early
    return cfg


def load_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())


def with_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Copy of ``cfg`` with selected physical parameters replaced.

    Supported keys: ``seed_photons``, ``squeezing``, ``seed_waist``,
    ``pdc_angle``, ``seed_shift`` (2-tuple) and ``g_factor``.
    """
    pump, seed, crystal = cfg.pump, cfg.seed, cfg.crystal
    for key, value in overrides.items():
        if key == "seed_photons":
            if value < 0:
                raise ConfigError("'seed_photons' must be non-negative")
            seed = replace(seed, amplitude=math.sqrt(value))
        elif key == "squeezing":
            crystal = replace(crystal, squeezing=float(value))
            pump = replace(pump, amplitude=0.0)
        elif key == "seed_waist":
            seed = replace(seed, waist=float(value))
        elif key == "pdc_angle":
            crystal = replace(crystal, pdc_angle=float(value))
        elif key == "seed_shift":
            seed = replace(seed, shift=(float(value[0]), float(value[1])), g_factor=None)
        elif key == "g_factor":
            seed = replace(seed, g_factor=float(value))
        else:
            raise ConfigError(f"unknown override {key!r}")
    return ExperimentConfig(pump=pump, seed=seed, crystal=crystal, detector=cfg.detector)
