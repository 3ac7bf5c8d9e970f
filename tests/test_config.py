import math
import re

import pytest

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

[run]
exposure = 50
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
    assert cfg.run["exposure"] == 50


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
], ids=["crystal-key", "section", "seed-key"])
def test_unknown_key_or_section_rejected(old, new, line, name):
    # a misspelled key or section used to be ignored, leaving its default
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
