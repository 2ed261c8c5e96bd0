"""`cli.main` maps each error class to its exit status and stderr line."""

import pytest

from msvol import cli, diagnostics
from msvol.errors import NotPositiveDefinite
from test_cli import simulate_csv, write


def test_negative_seed_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "sim"
    assert cli.main(["--simulate", "2,50,0.9", "--seed", "-1",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_nonpositive_simulate_dimension_is_a_configuration_error(tmp_path, capsys):
    assert cli.main(["--simulate=-1,10,0.9", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: dimension must be >= 1, got -1\n"


@pytest.mark.parametrize("mode, body, n", [
    ("returns", "0.1,0.2\n", 1),
    ("levels", "1.0,2.0\n1.1,2.1\n", 1),
    ("levels", "1.0,2.0\n", 0)])
def test_too_few_returns_is_a_data_error(tmp_path, capsys, mode, body, n):
    csv = write(tmp_path / "short.csv", "a,b\n" + body)
    out = tmp_path / "run"
    assert cli.main(["--input", csv, "--mode", mode, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {csv}: need at least 2 returns for the default prior, got {n}\n")
    assert not out.exists()


def test_out_naming_a_file_is_a_file_error(tmp_path, capsys):
    csv = simulate_csv(tmp_path)
    target = write(tmp_path / "taken", "keep\n")
    assert cli.main(["--input", csv, "--out", target]) == 2
    assert cli.main(["--simulate", "2,50,0.9", "--out", target]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: ") and target in line for line in err)
    with open(target, encoding="utf-8") as fh:
        assert fh.read() == "keep\n"


def test_failed_baseline_row_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    csv = simulate_csv(tmp_path)
    real = diagnostics.default_prior_scale

    def fail_at_baseline(data, delta, prior_window):
        if delta == 0.95:
            raise NotPositiveDefinite("prior scale is singular")
        return real(data, delta, prior_window)

    monkeypatch.setattr(diagnostics, "default_prior_scale", fail_at_baseline)
    out = tmp_path / "run"
    assert cli.main(["--input", csv, "--deltas", "0.9,0.95",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: baseline row failed\n"
        "  delta=0.9: baseline row failed; Bayes factors unavailable\n"
        "  delta=0.95: NotPositiveDefinite: prior scale is singular\n")
    assert not out.exists()


def test_singular_baseline_from_data_is_a_numerical_failure(tmp_path, capsys):
    # two moving rows then flat days: at delta 0.7 the scale matrix decays
    # until its factor is singular, before the last row
    csv = write(tmp_path / "flat.csv",
                "a,b\n0.1,0.2\n0.2,0.1\n" + "0,0\n" * 6000)
    out = tmp_path / "run"
    assert cli.main(["--input", csv, "--deltas", "0.7", "--baseline", "0.7",
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: baseline row failed\n"
                          "  delta=0.7: NotPositiveDefinite: filter scale "
                          "matrix lost positive definiteness at step ")
    assert err.count("\n") == 2
    assert not out.exists()
