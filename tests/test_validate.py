"""Validation-table integration: the CLI `validate` subcommand on the
standard configuration must pass every check and exit 0."""

import warnings

import pytest
from scipy.integrate import IntegrationWarning

from pdcfield import oracle, validate
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
    assert not [w for w in caught if issubclass(w.category, IntegrationWarning)]
    assert code == 0


def test_quadrature_warnings_counted_and_others_reissued():
    def compute():
        warnings.warn("roundoff", IntegrationWarning)
        warnings.warn("overflow", RuntimeWarning)
        return 7

    with pytest.warns(RuntimeWarning, match="overflow") as caught:
        assert validate._count_quad_warnings(compute) == (7, 1)
    assert not [w for w in caught if issubclass(w.category, IntegrationWarning)]
