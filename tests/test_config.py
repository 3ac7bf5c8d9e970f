import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from pdcfield.config import (
    ConfigError,
    ExperimentConfig,
    DetectorConfig,
    load_config,
    seed_shift,
    with_overrides,
)

DOC = """
# combined-field example configuration
[pump]
degenerate_wavelength = 0.8 um
bandwidth = 5e11 rad/s
waist = 0.2 mm

[seed]
photons = 4
waist = 0.2 mm
eta = 1
g_factor = 1.0

[crystal]
length = 3 mm
cross_section = 1e-22 m^2
pdc_angle = 10 mrad
squeezing = 1.0

[detector]
focal_length = 100 mm
aperture = 2 mm
bandwidth = 1e9 rad/s
"""


def test_load_document_round_trip():
    cfg = load_config(DOC)
    assert cfg.pump.omega == pytest.approx(4 * math.pi * 299792458.0 / 0.8e-6)
    assert cfg.pump.waist == pytest.approx(0.2e-3)
    assert cfg.seed.photons == pytest.approx(4.0)
    assert cfg.seed.bandwidth == pytest.approx(5e11)
    assert cfg.crystal.length == pytest.approx(3e-3)
    assert cfg.crystal.pdc_angle == pytest.approx(0.01)
    assert cfg.detector.focal_length == pytest.approx(0.1)


def test_zero_waist_rejected():
    bad = DOC.replace("waist = 0.2 mm", "waist = 0 mm", 1)
    with pytest.raises(ConfigError, match="pump.waist"):
        load_config(bad)


def test_missing_unit_is_parse_error():
    bad = DOC.replace("length = 3 mm", "length = 3")
    with pytest.raises(ConfigError, match="unit"):
        load_config(bad)
    # the error carries the line number of the offending key
    with pytest.raises(ConfigError, match="line"):
        load_config(bad)


def test_unknown_unit_rejected():
    bad = DOC.replace("length = 3 mm", "length = 3 parsec")
    with pytest.raises(ConfigError, match="parsec"):
        load_config(bad)


def test_duplicate_key_rejected():
    bad = DOC + "\n[pump]\nwaist = 1 mm\n"
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(bad)


@pytest.mark.parametrize("old, new, line, name", [
    ("pdc_angle = 10 mrad", "refractive_indx = 1.6", 17, "'refractive_indx' in [crystal]"),
    ("[detector]", "[detektor]", 20, "[detektor]"),
    ("eta = 1", "eta = 1\nbandwith = 5e11 rad/s", 12, "'bandwith' in [seed]"),
    ("[detector]", "[run]\nexposure = 50\n[detector]", 20, "[run]"),
], ids=["crystal-key", "section", "seed-key", "run-section"])
def test_unknown_key_or_section_rejected(old, new, line, name):
    # a misspelled key or section used to be ignored, leaving its default;
    # [run] was parsed and then read by nothing
    with pytest.raises(ConfigError, match=rf"^line {line}: unknown .*{re.escape(name)}"):
        load_config(DOC.replace(old, new))


def test_derived_wavenumber():
    q = load_config(DOC).derive()
    # 2*pi / 0.8 um, evaluated directly
    assert q.k_deg == pytest.approx(7.853982e6, rel=1e-6)
    assert q.omega_deg == pytest.approx(0.5 * q.omega_pump)


def test_derived_radial_scale():
    q = load_config(DOC).derive()
    # f / (k_deg * w_p) evaluated directly
    assert q.radial_scale == pytest.approx(0.1 / (7.853982e6 * 0.2e-3), rel=1e-6)
    assert q.radial_scale == pytest.approx(63.66e-6, rel=1e-4)


def test_derived_crystal_beta_collinear():
    cfg = load_config(DOC.replace("pdc_angle = 10 mrad", "pdc_angle = 0 rad"))
    q = cfg.derive()
    assert q.crystal_beta == pytest.approx(9.549e-3, rel=1e-4)
    assert q.ring_radius == 0.0
    assert q.peak_radius is None  # no real peak offset near collinear


def test_peak_radius():
    q = load_config(DOC).derive()
    assert q.peak_radius == pytest.approx(
        math.sqrt(q.ring_radius**2 - 0.5 * q.radial_scale**2)
    )


def test_detector_gain_identity():
    # K_D w_D^2 = (2 pi)^4 sqrt(pi) delta_D for any valid config
    for aperture, bw in ((1e-3, 1e9), (5e-3, 3e10), (0.3e-3, 2e8)):
        cfg = load_config(DOC)
        det = DetectorConfig(
            focal_length=cfg.detector.focal_length, aperture=aperture, bandwidth=bw
        )
        q = ExperimentConfig(cfg.pump, cfg.seed, cfg.crystal, det).derive()
        assert q.detector_gain * aperture**2 == pytest.approx(
            (2 * math.pi) ** 4 * math.sqrt(math.pi) * bw, rel=1e-12
        )


def test_scale_consistency_focal_length():
    cfg = load_config(DOC)
    q1 = cfg.derive()
    det2 = DetectorConfig(
        focal_length=2 * cfg.detector.focal_length,
        aperture=cfg.detector.aperture,
        bandwidth=cfg.detector.bandwidth,
    )
    q2 = ExperimentConfig(cfg.pump, cfg.seed, cfg.crystal, det2).derive()
    assert q2.ring_radius == pytest.approx(2 * q1.ring_radius)
    assert q2.radial_scale == pytest.approx(2 * q1.radial_scale)
    assert q2.idler_beta == pytest.approx(q1.idler_beta)
    assert q2.crystal_beta == pytest.approx(q1.crystal_beta)
    assert q2.squeezing == pytest.approx(q1.squeezing)


def test_bandwidth_ratio_unity():
    q = load_config(DOC).derive()
    assert q.bandwidth_ratio == pytest.approx(1.0)


def test_squeezing_amplitude_consistency():
    cfg = load_config(DOC)
    amp = cfg.derive().pump_amplitude
    # consistent pair accepted
    doc = DOC.replace("waist = 0.2 mm", f"waist = 0.2 mm\namplitude = {amp:.12g}", 1)
    load_config(doc)
    # inconsistent pair rejected
    doc = DOC.replace("waist = 0.2 mm", f"waist = 0.2 mm\namplitude = {2 * amp:.12g}", 1)
    with pytest.raises(ConfigError, match="inconsistent"):
        load_config(doc)


def test_seed_frequency_must_be_degenerate():
    cfg = load_config(DOC)
    doc = DOC.replace("photons = 4", f"photons = 4\nfrequency = {cfg.pump.omega:.12g} rad/s")
    with pytest.raises(ConfigError, match="degenerate"):
        load_config(doc)


def test_g_factor_resolves_shift():
    cfg = load_config(DOC)
    q = cfg.derive()
    k = seed_shift(cfg, q)
    assert k[0] == pytest.approx(q.k_deg * q.peak_radius / cfg.detector.focal_length)
    assert k[1] == 0.0


def test_shift_mm_parsing():
    doc = DOC.replace("g_factor = 1.0", "shift_x = 0.3 mm")
    cfg = load_config(doc)
    q = cfg.derive()
    assert cfg.seed.shift[0] == pytest.approx(q.k_deg * 0.3e-3 / 0.1)


def test_overrides():
    cfg = load_config(DOC)
    cfg2 = with_overrides(cfg, seed_photons=9.0, squeezing=0.5)
    assert cfg2.seed.amplitude == pytest.approx(3.0)
    assert cfg2.derive().squeezing == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        with_overrides(cfg, nonsense=1.0)


def test_bandwidth_time_unit():
    doc = DOC.replace("bandwidth = 5e11 rad/s", "bandwidth = 2000 fs", 1)
    cfg = load_config(doc)
    assert cfg.pump.bandwidth == pytest.approx(1.0 / 2e-12)


@pytest.mark.parametrize("old, new, line, key", [
    ("squeezing = 1.0", "squeezing = nan", 18, "squeezing"),
    ("pdc_angle = 10 mrad", "refractive_index = nan", 17, "refractive_index"),
    ("waist = 0.2 mm", "waist = 0.2 mm\nphase = nan rad", 7, "phase"),
    ("g_factor = 1.0", "g_factor = nan", 12, "g_factor"),
    ("length = 3 mm", "length = inf mm", 15, "length"),
    ("photons = 4", "photons = inf", 9, "photons"),
])
def test_non_finite_value_rejected(old, new, line, key):
    # nan and inf used to load; nan squeezing gave a nan gain
    with pytest.raises(ConfigError, match=rf"^line {line}: value of '{key}' must be finite"):
        load_config(DOC.replace(old, new, 1))


@pytest.mark.parametrize("pair", [
    "shift_y = 0.1 mm\nky = 5 1/mm", "shift_y = 0.1 mm\ng_factor = 1", "ky = 5 1/mm\ng_factor = 1",
])
def test_seed_shift_styles_counted_by_group(pair):
    # each pair used to load, dropping one of its two keys
    with pytest.raises(ConfigError, match="over-specified"):
        load_config(DOC.replace("g_factor = 1.0", pair))


def test_seed_shift_y_alone():
    q = load_config(DOC).derive()
    cfg = load_config(DOC.replace("g_factor = 1.0", "shift_y = 0.3 mm"))
    assert cfg.seed.shift == (0.0, q.k_deg * 0.3e-3 / 0.1)
    assert cfg.seed.g_factor is None
    assert load_config(DOC.replace("g_factor = 1.0", "ky = 5 1/mm")).seed.shift == (0.0, 5e3)


@pytest.mark.parametrize("key", ["wavelength", "degenerate_wavelength"])
def test_zero_wavelength_rejected(key):
    # a zero wavelength used to end in ZeroDivisionError
    doc = DOC.replace("degenerate_wavelength = 0.8 um", f"{key} = 0 um")
    with pytest.raises(ConfigError, match=f"pump.{key}' must be positive"):
        load_config(doc)


# test-owned unit tables: suffix and SI factor of each unit a kind accepts
LENGTH = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "μm": 1e-6, "nm": 1e-9}
ANGLE = {"rad": 1.0, "mrad": 1e-3, "deg": math.pi / 180.0}
AREA = {"m^2": 1.0, "cm^2": 1e-4, "mm^2": 1e-6, "um^2": 1e-12, "nm^2": 1e-18}
WAVENUMBER = {"1/m": 1.0, "1/mm": 1e3, "1/um": 1e6}
ANGFREQ = {"rad/s": 1.0, "1/s": 1.0}
DURATION = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12, "fs": 1e-15}


@st.composite
def quantity(draw, lo, hi, units):
    """(text, SI value) of a number near [lo, hi] in SI, written in a drawn unit
    of ``units`` (None: dimensionless); a duration stands for its reciprocal."""
    si = draw(st.floats(lo, hi))
    if units is None:
        return repr(si), si
    unit = draw(st.sampled_from(sorted(units)))
    if unit in DURATION and units is not DURATION:  # bandwidth given as a duration
        number = 1.0 / si / DURATION[unit]
        return f"{number!r} {unit}", 1.0 / (number * DURATION[unit])
    number = si / units[unit]
    return f"{number!r} {unit}", number * units[unit]


BANDWIDTH = {**ANGFREQ, **DURATION}
C = 299792458.0


@st.composite
def documents(draw):
    """A valid document over every key of every section, and the SI values
    the parsed config must hold."""
    lines, want = [], {}

    def put(key, pair):
        lines.append(f"{key} = {pair[0]}")
        return pair[1]

    def maybe():
        return draw(st.booleans())

    lines.append("[pump]")
    style = draw(st.sampled_from(["wavelength", "degenerate_wavelength", "frequency"]))
    if style == "frequency":
        want["omega"] = put(style, draw(quantity(1e15, 5e15, ANGFREQ)))
    else:
        wl = put(style, draw(quantity(0.2e-6, 2e-6, LENGTH)))
        want["omega"] = (2.0 if style == "wavelength" else 4.0) * math.pi * C / wl
    want["pump.bandwidth"] = put("bandwidth", draw(quantity(1e11, 1e12, BANDWIDTH)))
    want["pump.waist"] = put("waist", draw(quantity(0.1e-3, 1e-3, LENGTH)))
    want["pump.phase"] = put("phase", draw(quantity(0.0, 6.0, ANGLE))) if maybe() else 0.0
    gain_given = maybe()
    if not gain_given and maybe():
        want["pump.amplitude"] = put("amplitude", draw(quantity(0.0, 1e3, None)))

    lines.append("[seed]")
    if maybe():
        photons = put("photons", draw(quantity(0.0, 100.0, None)))
        want["seed.amplitude"] = math.sqrt(photons)
    elif maybe():
        want["seed.amplitude"] = put("amplitude", draw(quantity(0.0, 10.0, None)))
    want["seed.waist"] = put("waist", draw(quantity(0.1e-3, 1e-3, LENGTH)))
    if maybe():
        want["seed.bandwidth"] = put("bandwidth", draw(quantity(1e11, 1e12, BANDWIDTH)))
    else:
        eta = put("eta", draw(quantity(0.1, 10.0, None)))
        want["seed.bandwidth"] = want["pump.bandwidth"] / math.sqrt(eta)
    if maybe():
        unit = draw(st.sampled_from(sorted(ANGFREQ)))
        lines.append(f"frequency = {0.5 * want['omega']!r} {unit}")
    want["seed.phase"] = put("phase", draw(quantity(0.0, 6.0, ANGLE))) if maybe() else 0.0
    shift = draw(st.sampled_from(["none", "position", "wavenumber", "g_factor"]))
    want["shift_style"], want["seed.shift"], want["seed.g_factor"] = shift, [0.0, 0.0], None
    if shift == "g_factor":
        want["seed.g_factor"] = put("g_factor", draw(quantity(0.0, 3.0, None)))
    elif shift != "none":
        keys, size, units = {"position": (("shift_x", "shift_y"), 1e-3, LENGTH),
                             "wavenumber": (("kx", "ky"), 1e4, WAVENUMBER)}[shift]
        for axis in draw(st.sampled_from([(0,), (1,), (0, 1)])):
            want["seed.shift"][axis] = put(keys[axis], draw(quantity(-size, size, units)))
    lines.append("[crystal]")
    want["crystal.length"] = put("length", draw(quantity(0.1e-3, 10e-3, LENGTH)))
    want["crystal.cross_section"] = put("cross_section", draw(quantity(1e-23, 1e-21, AREA)))
    want["crystal.refractive_index"] = (put("refractive_index", draw(quantity(1.0, 3.0, None)))
                                        if maybe() else 1.0)
    want["crystal.pdc_angle"] = put("pdc_angle", draw(quantity(0.0, 0.5, ANGLE))) if maybe() else 0.0
    want["crystal.squeezing"] = (put("squeezing", draw(quantity(0.0, 3.0, None)))
                                 if gain_given else None)

    lines.append("[detector]")
    want["detector.focal_length"] = put("focal_length", draw(quantity(0.01, 1.0, LENGTH)))
    want["detector.aperture"] = put("aperture", draw(quantity(0.1e-3, 10e-3, LENGTH)))
    want["detector.bandwidth"] = put("bandwidth", draw(quantity(1e8, 1e11, BANDWIDTH)))
    return "\n".join(lines) + "\n", want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=documents())
def test_config_round_trip_property(doc):
    text, want = doc
    cfg = load_config(text)
    # a value given in SI: exactly number * factor, or 1/duration
    for name in ("pump.bandwidth", "pump.waist", "pump.phase", "seed.waist", "seed.phase",
                 "seed.g_factor", "crystal.length", "crystal.cross_section",
                 "crystal.refractive_index", "crystal.pdc_angle", "crystal.squeezing",
                 "detector.focal_length", "detector.aperture", "detector.bandwidth"):
        section, attr = name.split(".")
        assert getattr(getattr(cfg, section), attr) == want[name], name
    assert cfg.pump.amplitude == want.get("pump.amplitude", 0.0)
    # a value the builders derive from one given in SI
    assert cfg.pump.omega == pytest.approx(want["omega"], rel=1e-15)
    assert cfg.seed.amplitude == pytest.approx(want.get("seed.amplitude", 0.0), rel=1e-15)
    assert cfg.seed.bandwidth == pytest.approx(want["seed.bandwidth"], rel=1e-15)
    # an output-plane position maps to K = k_deg * position / f
    scale = (0.5 * cfg.pump.omega / C / cfg.detector.focal_length
             if want["shift_style"] == "position" else 1.0)
    assert cfg.seed.shift == pytest.approx([scale * v for v in want["seed.shift"]], rel=1e-15)

    # each supported override reads back as set, leaving the rest unchanged
    overrides = {"seed_photons": 2.5, "squeezing": 0.7, "seed_waist": 0.3e-3,
                 "pdc_angle": 0.02, "seed_shift": (1.5e3, -2e3), "g_factor": 1.2}
    for key, value in overrides.items():
        new = with_overrides(cfg, **{key: value})
        read = {
            "seed_photons": new.seed.photons, "squeezing": new.crystal.squeezing,
            "seed_waist": new.seed.waist, "pdc_angle": new.crystal.pdc_angle,
            "seed_shift": new.seed.shift, "g_factor": new.seed.g_factor,
        }[key]
        assert read == pytest.approx(value, rel=1e-15), key
        assert new.detector == cfg.detector
    assert with_overrides(cfg, squeezing=0.7).derive().squeezing == 0.7
    assert with_overrides(cfg, seed_shift=(1.0, 2.0)).seed.g_factor is None
