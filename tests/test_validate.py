"""Validation-table integration: the CLI `validate` subcommand on the
standard configuration must pass every check and exit 0."""

import csv
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pdcfield import oracle, validate
from pdcfield.kernels import FieldKernels
from pdcfield.config import load_config
from pdcfield.cli import main

from test_cli import CONFIG


def test_validate_cli_all_pass(tmp_path, capsys, monkeypatch):
    # each reference kernel pair is solved once by the Taylor recurrence
    # (gain 0.2, then gain 0.3 on 9x9x9, each evaluated at the crystal's
    # end), then once more for the depth-equation check, evaluated at its 8
    # stations and one step either side.  A depth solve runs either the
    # recurrence or a fixed-step RK4, so these exact counts also mean that
    # no RK4 runs
    depths = []
    taylor = oracle._taylor_blocks

    def counted(workspace, zetas=(1.0,)):
        depths.append(len(zetas))
        return taylor(workspace, zetas)

    monkeypatch.setattr(oracle, "_taylor_blocks", counted)
    path = tmp_path / "experiment.cfg"
    path.write_text(CONFIG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--outdir", str(tmp_path), "validate", "--config", str(path)])
    out = capsys.readouterr().out
    assert "checks passed" in out
    with open(tmp_path / "validate.csv", newline="", encoding="ascii") as fh:
        reader = csv.DictReader(fh)
        table = list(reader)
    assert reader.fieldnames == ["check", "value", "tolerance", "passed", "seconds"]
    # DictReader files surplus fields under None and fills missing ones with None
    assert all(None not in row and None not in row.values() for row in table)
    names = [row["check"] for row in table]
    assert len(names) == len(set(names)) == 16
    assert "Bogoliubov constraint (gain 0.2, grid 9x9x9)" in names
    assert all(float(row["passed"]) == 1.0 for row in table), out
    assert depths == [1, 1, 24], depths
    assert not caught, [str(w.message) for w in caught]
    assert code == 0


@pytest.fixture(scope="module")
def rows():
    return {r.name: r for r in validate.run_validation(load_config(CONFIG))}


def test_bogoliubov_row_reports_step_count_and_estimate(rows):
    row = rows["Bogoliubov constraint (gain 0.2, grid 9x9x9)"]
    match = re.fullmatch(r"Taylor (\d+) terms, tail bound (\S+) \(tol (\S+)\), "
                         r"identity Frobenius norm (\S+) on the blocks", row.note)
    assert match, row.note
    terms = int(match.group(1))
    bound, tol, frobenius = map(float, match.groups()[1:])
    assert terms == 9
    assert tol == oracle.DEPTH_TOL and bound <= tol
    assert row.value < 1e-10
    # the Frobenius norm bounds the largest grid entry, the row's value
    assert row.value <= frobenius < 1e-9


def test_quadrature_rows_report_achieved_error(rows):
    for name in ("idler closed form vs depth quadrature (L2)",
                 "background closed form vs double depth quadrature"):
        match = re.fullmatch(r"quadrature error (\S+) \(rtol (\S+)\)", rows[name].note)
        assert match, rows[name].note
        err, rtol = map(float, match.groups())
        assert rtol == 1e-9 and err < rtol


def test_mode_contraction_row_reports_blocks_and_rows(rows):
    row = rows["mode-contraction identity and associativity"]
    assert row.note == "blocks 135/54/90/90/180, 92 rows"
    assert row.passed and row.value < 1e-10


def test_mode_contraction_row_flags_corrupted_blocks(monkeypatch):
    cfg = load_config(CONFIG)
    exchange, blocks_for = oracle._exchange_columns, oracle.square_grid_blocks

    def unscaled(n, sign):
        first, second, scale = exchange(n, sign)
        return first, second, np.ones_like(scale)

    def mixed(grid):
        # orthonormal and complete, but the first even and odd mirror
        # vectors are rotated into each other, so the kernel couples blocks
        space = blocks_for(grid)
        even, odd = space.sectors[0][0], space.sectors[1][0]
        e, o = even.copy(), odd.copy()
        e[:, 0] = math.sqrt(0.5) * (even[:, 0] + odd[:, 0])
        o[:, 0] = math.sqrt(0.5) * (even[:, 0] - odd[:, 0])
        return oracle._BlockSpace([(e, e), (o, o), (e, o)], space.blocks, space.nw)

    for name, corrupt in (("_exchange_columns", unscaled), ("square_grid_blocks", mixed)):
        with monkeypatch.context() as patch:
            patch.setattr(oracle, name, corrupt)
            res = validate.check_diamond_algebra(cfg)
        assert res.value > 1e-10 and not res.passed, name
    assert validate.check_diamond_algebra(cfg).value < 1e-10


def test_per_order_row_reports_last_orders(rows):
    row = rows["per-order amplitudes vs kernel-sum contraction"]
    match = re.fullmatch(
        r"u to order (\d+) \(last term (\S+)\), v to order (\d+) \(last term (\S+)\)", row.note
    )
    assert match, row.note
    u_order, v_order = int(match.group(1)), int(match.group(3))
    assert u_order % 2 == 0 and v_order % 2 == 1
    assert 0.0 < float(match.group(2)) < 1e-10 and 0.0 < float(match.group(4)) < 1e-10


def test_per_order_row_factored_contraction_matches_dense():
    # the K x omega factor pairs against the dense kernel sums, on a grid
    # and row mask without x/y symmetry (the seed is shifted along x); the
    # broad pump bandwidth makes the omega factors asymmetric and the seed
    # phase makes the idler's conjugate seed differ from the seed
    base = validate.thin_reference_config(0.25)
    cfg = replace(base, seed=replace(base.seed, phase=0.7, shift=(300.0, 0.0)))
    kern = FieldKernels(cfg)
    grid = oracle.build_grid(5.5 / cfg.seed.waist, 9, kern.q.omega_deg,
                             6.0 * cfg.pump.bandwidth, 8)
    k_mask = (np.abs(grid.kx) <= 3.2 / cfg.seed.waist)[:, None] & (grid.ky <= 1.0 / cfg.seed.waist)
    signal, idler, last = validate._seed_kernel_sums(kern, grid, k_mask.ravel())

    rows = np.flatnonzero(np.repeat(k_mask.ravel(), grid.omega_axis.size))
    xi = kern.seed_profile(grid.K, grid.omega)
    u, v, info = kern.thin_crystal_uv(grid.K[rows][:, None], grid.K[None],
                                      grid.omega[rows][:, None], grid.omega[None])
    dense = (xi[rows] + (u * grid.weight) @ xi, (v * grid.weight) @ np.conj(xi))
    assert signal.shape == idler.shape == (k_mask.sum(), grid.omega_axis.size)
    for got, want in zip((signal, idler), dense):
        assert np.max(np.abs(got.ravel() - want)) <= 1e-12 * np.max(np.abs(want))
    assert last == [(info["u_order"], info["u_last"]), (info["v_order"], info["v_last"])]


def test_per_order_row_forms_no_grid_sized_array():
    # one (rows x grid) complex array of the 13x13x15 check is 30 MB
    tracemalloc.start()
    try:
        res = validate.check_zeta_orders_consistency()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak < 5e6, peak
