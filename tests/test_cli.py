import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdcfield.cli import main, _read_image
from pdcfield.config import ConfigError, load_config_file
from pdcfield import plotio
from pdcfield.fitting import ForwardModel, synthesize_image
from pdcfield.kernels import _PIXEL_BLOCK
from pdcfield.plotio import write_csv, read_csv, render_plot

CONFIG = """
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


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "experiment.cfg"
    path.write_text(CONFIG)
    return str(path)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "one.csv"
    write_csv(path, ["a", "b"], [[1.5], [-2.25e-7]])
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    assert rows.tolist() == [[1.5, -2.25e-7]]


def test_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "empty.csv", ["a"], [[]])


def test_csv_rejects_mismatched_columns(tmp_path):
    with pytest.raises(ValueError, match="equal length"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="expected 2 columns"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0]])


def per_row_reference(header, rows) -> bytes:
    """The row-by-row, value-by-value writer that the columnar one replaced,
    kept here as an independent reference for its bytes."""

    def number(value):
        if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
            return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
        return f"{value:.12g}"

    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else number(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


SPECIALS = [0.0, -0.0, float("nan"), float("inf"), float("-inf")]


def test_csv_special_values_match_per_row_writer(tmp_path):
    values = [0.0, -0.0, 0.0, float("nan"), float("inf"), float("-inf"), -0.0,
              1e-300, 2.5e20, 3, -7, 0.1]
    names = [f"v{i}" for i in range(len(values))]
    array = np.array(values)[::-1]
    header = ["name", "value", "array", "count"]
    columns = [names, values, array, list(range(len(values)))]
    path = write_csv(tmp_path / "specials.csv", header, columns)
    assert path.read_bytes() == per_row_reference(header, zip(*columns))
    assert path.read_text().splitlines()[1:] == [
        "v0,0,0.1,0", "v1,-0,-7,1", "v2,0,3,2", "v3,nan,2.5e+20,3",
        "v4,inf,1e-300,4", "v5,-inf,-0,5", "v6,-0,-inf,6", "v7,1e-300,inf,7",
        "v8,2.5e+20,nan,8", "v9,3,0,9", "v10,-7,-0,10", "v11,0.1,0,11",
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=st.lists(st.one_of(st.floats(width=64), st.sampled_from(SPECIALS)),
                       min_size=1, max_size=40))
def test_csv_float_columns_property(tmp_path_factory, values):
    array = np.array(values)[::-1]
    path = write_csv(tmp_path_factory.mktemp("csv") / "t.csv", ["a", "b"], [values, array])
    assert path.read_bytes() == per_row_reference(["a", "b"], zip(values, array.tolist()))
    header, data = read_csv(path)
    expected = np.array([[float(f"{a:.12g}"), float(f"{b:.12g}")]
                         for a, b in zip(values, array.tolist())])
    assert header == ["a", "b"]
    assert np.array_equal(np.isnan(data), np.isnan(expected))
    finite = ~np.isnan(expected)
    assert np.array_equal(data[finite], expected[finite])
    assert np.array_equal(np.signbit(data[finite]), np.signbit(expected[finite]))


@pytest.mark.parametrize("rows", [_PIXEL_BLOCK - 1, _PIXEL_BLOCK, _PIXEL_BLOCK + 1])
def test_csv_block_boundaries_match_per_row_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    values[rng.integers(0, rows, 64)] = rng.choice(SPECIALS, 64)
    names = [f"p{i % 97}" for i in range(rows)]
    counts = np.arange(rows) % 7
    header = ["name", "value", "count"]
    path = write_csv(tmp_path / "t.csv", header, [names, values, counts])
    assert path.read_bytes() == per_row_reference(
        header, zip(names, values.tolist(), counts.tolist()))


def test_csv_writer_memory_does_not_grow_with_the_table(tmp_path):
    # image tables of 256² and 512² rows; written whole, the 512² table
    # peaked at 30 MB
    peaks = []
    for side in (256, 512):
        axis = np.linspace(-1.5, 1.5, side)
        XX, YY = np.meshgrid(axis, axis)
        counts = np.random.default_rng(side).poisson(20.0, XX.shape).astype(float)
        columns = [XX.ravel(), YY.ravel(), counts.ravel()]
        tracemalloc.start()
        try:
            write_csv(tmp_path / f"{side}.csv", ["x_mm", "y_mm", "intensity"], columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_failed_write_leaves_no_table(tmp_path, monkeypatch):
    # a failure after whole blocks were written must not leave a shorter,
    # valid table behind, nor the table it was to replace
    rows = _PIXEL_BLOCK + 2
    names = ["ok"] * rows
    names[-1] = "caf\u00e9"  # in the last block
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [[1.0]])
    with pytest.raises(UnicodeEncodeError):
        write_csv(path, ["name", "value"], [names, np.arange(rows, dtype=float)])
    assert not path.exists()

    formatted = []

    def full_disk(column, end):
        formatted.append(end)
        if len(formatted) > 2:  # the second block of two columns
            raise OSError(28, "No space left on device")
        return format_column(column, end)

    format_column = plotio._format_column
    monkeypatch.setattr(plotio, "_format_column", full_disk)
    with pytest.raises(OSError, match="cannot write CSV"):
        write_csv(path, ["name", "value"], [["ok"] * rows, np.arange(rows, dtype=float)])
    assert not path.exists()


def test_render_plot_writes_svg(tmp_path):
    x = np.linspace(0, 1, 20)
    path = render_plot(tmp_path / "p.svg", [(x, x**2, "sq")], "x", "y", "t")
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_config_usage_error(tmp_path):
    code = main(["--outdir", str(tmp_path), "orders", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_unknown_config_key_usage_error(tmp_path, config_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(open(config_path).read().replace("pdc_angle", "pdc_angel"))
    code = main(["--outdir", str(tmp_path), "validate", "--config", str(bad), "--no-svg"])
    assert code == 2
    assert "unknown key 'pdc_angel' in [crystal]" in capsys.readouterr().err


def test_run_section_usage_error(tmp_path, config_path, capsys):
    # [run] was parsed and read by nothing, so its keys were silently ignored
    bad = tmp_path / "run.cfg"
    bad.write_text(open(config_path).read() + "\n[run]\nexposure = 50\n")
    code = main(["--outdir", str(tmp_path), "validate", "--config", str(bad), "--no-svg"])
    assert code == 2
    assert "unknown section [run]" in capsys.readouterr().err
    assert not (tmp_path / "validate.csv").exists()


def test_efficiency_csv(tmp_path):
    code = main([
        "--outdir", str(tmp_path), "efficiency",
        "--beta", "0.4", "--a-range", "-16:16", "--no-svg",
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "efficiency.csv")
    assert header == ["a", "f"]
    arr = np.asarray(rows)
    peak = arr[np.argmax(arr[:, 1]), 0]
    assert -0.45 <= peak <= -0.33


def test_efficiency_bad_range(tmp_path):
    assert main(["--outdir", str(tmp_path), "efficiency", "--a-range", "5:1"]) == 2


def test_background_csv_sorted(tmp_path, config_path):
    code = main([
        "--outdir", str(tmp_path), "background", "--config", config_path,
        "--points", "101", "--no-svg",
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "background.csv")
    radii = [row[0] for row in rows]
    assert radii == sorted(radii)
    assert header[0] == "r_mm"


def test_orders_csv(tmp_path, config_path):
    code = main([
        "--outdir", str(tmp_path), "orders", "--config", config_path,
        "--m-max", "3", "--points", "101", "--no-svg",
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "orders.csv")
    assert header[0] == "x_mm"
    assert header[1:5] == ["order0_amp", "order1_amp", "order2_amp", "order3_amp"]
    assert len(rows) == 101


def test_combined_idler_peak_tallest_at_g1(tmp_path, config_path):
    code = main([
        "--outdir", str(tmp_path), "combined", "--config", config_path,
        "--G", "0.8,1.0,1.2", "--points", "801", "--no-svg",
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "combined.csv")
    arr = np.asarray(rows)
    x = arr[:, 0]
    idler_side = x < -0.2  # idler features sit at negative x
    peaks = [np.max(arr[idler_side, 1 + j]) for j in range(3)]
    assert peaks[1] > peaks[0] and peaks[1] > peaks[2]


def test_image_deterministic(tmp_path, config_path):
    args = [
        "--outdir", str(tmp_path), "image", "--config", config_path,
        "--nx", "24", "--ny", "12", "--noise", "poisson", "--seed", "5",
        "--exposure", "30", "--no-svg",
    ]
    assert main(args) == 0
    first = (tmp_path / "image.csv").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "image.csv").read_bytes() == first


def test_image_header_contract(tmp_path, config_path):
    main([
        "--outdir", str(tmp_path), "image", "--config", config_path,
        "--nx", "8", "--ny", "8", "--no-svg",
    ])
    header, _ = read_csv(tmp_path / "image.csv")
    assert header == ["x_mm", "y_mm", "intensity"]


def test_fit_round_trip_via_cli(tmp_path, config_path):
    main([
        "--outdir", str(tmp_path), "image", "--config", config_path,
        "--nx", "48", "--ny", "16", "--exposure", "40", "--no-svg",
    ])
    code = main([
        "--outdir", str(tmp_path), "fit", "--config", config_path,
        "--image", str(tmp_path / "image.csv"), "--exposure", "40",
        "--init", "seed_photons=2.0,squeezing=0.6", "--no-svg",
    ])
    assert code == 0
    # first column is a parameter name, so read the text directly
    text = (tmp_path / "fit.csv").read_text().splitlines()
    assert text[0] == "parameter,value,std_error"
    values = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in text[1:]}
    assert values["seed_photons"] == pytest.approx(4.0, rel=1e-3)
    assert values["squeezing"] == pytest.approx(1.0, rel=1e-3)


def test_read_image_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        _read_image(path)


def test_image_csv_matches_per_row_writer(tmp_path, config_path):
    half = 1.5e-3
    x = np.linspace(-half, half, 96)
    y = np.linspace(-half * 24 / 96, half * 24 / 96, 24)
    model = ForwardModel(load_config_file(config_path))
    for noise in ("poisson", "none"):  # integer counts, then non-integer intensities
        assert main([
            "--outdir", str(tmp_path), "image", "--config", config_path,
            "--nx", "96", "--ny", "24", "--noise", noise, "--seed", "9",
            "--exposure", "40", "--no-svg",
        ]) == 0
        image = synthesize_image(model, x, y, noise=noise, seed=9, exposure=40.0)
        rows = [
            [float(x[i] * 1e3), float(y[j] * 1e3), float(image.values[j, i])]
            for j in range(y.size)
            for i in range(x.size)
        ]
        ref = per_row_reference(["x_mm", "y_mm", "intensity"], rows)
        assert (tmp_path / "image.csv").read_bytes() == ref
        read = _read_image(tmp_path / "image.csv")
        if noise == "poisson":
            assert np.array_equal(read.values, image.values)
        else:
            assert np.allclose(read.values, image.values, rtol=1e-11, atol=0)
        assert np.allclose(read.x, x, rtol=1e-11) and np.allclose(read.y, y, rtol=1e-11)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_fit_rejects_non_finite_pixel(tmp_path, config_path, bad):
    assert main([
        "--outdir", str(tmp_path), "image", "--config", config_path,
        "--nx", "8", "--ny", "4", "--no-svg",
    ]) == 0
    lines = (tmp_path / "image.csv").read_text().splitlines()
    x_mm, y_mm, _ = lines[5].split(",")
    lines[5] = f"{x_mm},{y_mm},{bad}"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="finite"):
        _read_image(path)
    code = main([
        "--outdir", str(tmp_path), "fit", "--config", config_path,
        "--image", str(path), "--no-svg",
    ])
    assert code == 2


@pytest.mark.parametrize("body", [
    "0,0,1\n1,0\n", "0,0,1\n1,0,abc\n", "",
    # past the first read buffer of a text handle, so np.loadtxt meets it
    "0,0,1\n" * 3000 + "1,0,2\u00b5\n",
], ids=["ragged", "non-numeric", "no-rows", "non-ascii"])
def test_fit_rejects_malformed_image_csv(tmp_path, config_path, capsys, body):
    path = tmp_path / "bad.csv"
    path.write_text("x_mm,y_mm,intensity\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_csv(path)
    with pytest.raises(ConfigError, match="bad.csv"):
        _read_image(path)
    code = main([
        "--outdir", str(tmp_path), "fit", "--config", config_path,
        "--image", str(path), "--no-svg",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text, line", [
    ("x_mm,y_mm,intensity\n0,0,1\n1,0\n0,1,1\n", 3),
    ("x_mm,y_mm,intensity\n0,0,1\n1,0,abc\n0,1,1\n", 3),
    ("x_\u00b5m,y_mm,intensity\n0,0,1\n", 1),
], ids=["ragged", "non-numeric", "non-ascii-header"])
def test_read_csv_names_the_bad_line(tmp_path, text, line):
    # np.loadtxt numbers the first two "row 2" and "row 1"; the file line is 3
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: ")):
        read_csv(path)


@pytest.mark.parametrize("edit", [
    lambda rows: [rows[1], rows[0], *rows[2:]],
    lambda rows: [*rows[:7], rows[6], *rows[7:]],
    lambda rows: [*rows[:13], *rows[14:]],
    lambda rows: rows[::-1],
], ids=["permuted", "repeated-pixel", "missing-pixel", "reversed"])
def test_read_image_rejects_other_layouts(tmp_path, config_path, capsys, edit):
    assert main([
        "--outdir", str(tmp_path), "image", "--config", config_path,
        "--nx", "8", "--ny", "4", "--no-svg",
    ]) == 0
    header, *rows = (tmp_path / "image.csv").read_text().splitlines()
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header, *edit(rows)]) + "\n")
    with pytest.raises(ConfigError, match="y-major with x varying fastest"):
        _read_image(path)
    capsys.readouterr()
    assert main([
        "--outdir", str(tmp_path), "fit", "--config", config_path,
        "--image", str(path), "--no-svg",
    ]) == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_read_csv_crlf_equals_lf(tmp_path):
    lf = write_csv(tmp_path / "lf.csv", ["a", "b"],
                   [[1.5, -0.0, 3.0], [2.25e-7, float("nan"), float("-inf")]])
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    (h_lf, a_lf), (h_crlf, a_crlf) = read_csv(lf), read_csv(crlf)
    assert h_crlf == h_lf == ["a", "b"]
    assert np.array_equal(a_crlf, a_lf, equal_nan=True)
    assert np.array_equal(np.signbit(a_crlf), np.signbit(a_lf))


@pytest.mark.parametrize("flag, value", [
    ("--free", "seed_photons,g_factor"),
    ("--init", "squeezing"),
    ("--init", "squeezing=abc"),
    ("--init", "g_factor=1.0"),
], ids=["unknown-free", "init-without-value", "init-non-numeric", "unknown-init"])
def test_fit_rejects_bad_parameter_arguments(tmp_path, config_path, capsys, flag, value):
    assert main([
        "--outdir", str(tmp_path), "image", "--config", config_path,
        "--nx", "8", "--ny", "4", "--no-svg",
    ]) == 0
    capsys.readouterr()
    code = main([
        "--outdir", str(tmp_path), "fit", "--config", config_path,
        "--image", str(tmp_path / "image.csv"), flag, value, "--no-svg",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}") and "Traceback" not in err
    assert not (tmp_path / "fit.csv").exists()


def test_non_finite_config_value_usage_error(tmp_path, config_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(open(config_path).read().replace("squeezing = 1.0", "squeezing = nan"))
    code = main(["--outdir", str(tmp_path), "validate", "--config", str(bad), "--no-svg"])
    assert code == 2
    assert "value of 'squeezing' must be finite" in capsys.readouterr().err
    assert not (tmp_path / "validate.csv").exists()


@pytest.mark.parametrize("exposure", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["image", "fit"])
def test_bad_exposure_usage_error(tmp_path, config_path, capsys, command, exposure):
    # image used to end in a traceback; fit used to fit anyway, or end in one
    assert main(["--outdir", str(tmp_path / "src"), "image", "--config", config_path,
                 "--nx", "8", "--ny", "4", "--no-svg"]) == 0
    capsys.readouterr()
    extra = ["--image", str(tmp_path / "src" / "image.csv")] if command == "fit" else []
    code = main(["--outdir", str(tmp_path), command, "--config", config_path, *extra,
                 f"--exposure={exposure}", "--no-svg"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --exposure") and "Traceback" not in err
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, flag, value", [
    ("image", "--nx", "0"),
    ("image", "--nx", "-3"),
    ("image", "--ny", "0"),
    ("image", "--nx", "2.5"),
    ("image", "--half-width", "nan"),
    ("image", "--half-width", "-1"),
    ("image", "--half-width", "0"),
    ("image", "--half-width", "inf"),
    ("orders", "--points", "0"),
    ("orders", "--half-width", "nan"),
    ("combined", "--points", "0"),
    ("combined", "--half-width", "0"),
    ("background", "--points", "0"),
    ("efficiency", "--points", "0"),
])
def test_bad_scan_geometry_usage_error(tmp_path, config_path, capsys, command, flag, value):
    # these ended in tracebacks (a division by zero, an empty table, a
    # negative count, a non-finite intensity), or, for a non-positive image
    # half width, wrote an x axis that fit then rejected
    needs_config = [] if command == "efficiency" else ["--config", config_path]
    with pytest.raises(SystemExit) as exc:
        main(["--outdir", str(tmp_path / "out"), command, *needs_config, flag, value,
              "--no-svg"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: expected a" in err and "Traceback" not in err
    # rejected before any work: not even the output directory is made
    assert not (tmp_path / "out").exists()
