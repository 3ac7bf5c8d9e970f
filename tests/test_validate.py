"""Validation-table integration: the CLI `validate` subcommand on the
standard configuration must pass every check and exit 0."""

import re
import warnings

from pdcfield import oracle, validate
from pdcfield.config import load_config
from pdcfield.cli import main

from test_cli import CONFIG


def test_validate_cli_all_pass(tmp_path, capsys, monkeypatch):
    # each reference kernel pair is integrated once per run: gain 0.2 and
    # gain 0.3 on 9x9x9, and the single-frequency depth-equation trajectory
    integrations = []
    rk4 = oracle._rk4_blocks

    def counted(*args, **kwargs):
        integrations.append(args[2:4])
        return rk4(*args, **kwargs)

    monkeypatch.setattr(oracle, "_rk4_blocks", counted)
    path = tmp_path / "experiment.cfg"
    path.write_text(CONFIG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--outdir", str(tmp_path), "validate", "--config", str(path)])
    out = capsys.readouterr().out
    assert "checks passed" in out
    lines = (tmp_path / "validate.csv").read_text().splitlines()
    assert lines[0] == "check,value,tolerance,passed,seconds"
    names = [ln.rsplit(",", 4)[0] for ln in lines[1:]]
    assert len(names) == len(set(names)) == 16
    flags = [float(ln.rsplit(",", 2)[-2]) for ln in lines[1:]]
    assert all(f == 1.0 for f in flags), out
    assert len(integrations) == 3, integrations
    assert not caught, [str(w.message) for w in caught]
    assert code == 0


def test_quadrature_rows_report_achieved_error():
    rows = {r.name: r for r in validate.run_validation(load_config(CONFIG))}
    for name in ("idler closed form vs depth quadrature (L2)",
                 "background closed form vs double depth quadrature"):
        match = re.fullmatch(r"quadrature error (\S+) \(rtol (\S+)\)", rows[name].note)
        assert match, rows[name].note
        err, rtol = map(float, match.groups())
        assert rtol == 1e-9 and err < rtol
