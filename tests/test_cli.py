import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from msvol import cli, diagnostics, filtering, matstat
from msvol.errors import MissingValue, NonPositiveLevel, ParseError


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


class TestLoadCsv:
    def test_returns_passthrough(self, tmp_path):
        f = write(tmp_path / "r.csv", "a,b\n0.1,0.2\n-0.3,0.4\n")
        frame = cli.load_csv(f, "returns")
        assert frame.labels == ["a", "b"]
        assert frame.times == [1, 2]
        np.testing.assert_allclose(frame.values, [[0.1, 0.2], [-0.3, 0.4]])

    def test_levels_log_differences(self, tmp_path):
        e = math.e
        f = write(tmp_path / "l.csv", "x\n1\n%r\n%r\n" % (e, e * e))
        frame = cli.load_csv(f, "levels")
        np.testing.assert_allclose(frame.values, [[1.0], [1.0]], rtol=1e-12)
        assert frame.times == [2, 3]

    def test_constant_levels_give_zero_returns(self, tmp_path):
        f = write(tmp_path / "l.csv", "x,y\n5,2\n5,2\n5,2\n")
        frame = cli.load_csv(f, "levels")
        np.testing.assert_array_equal(frame.values, np.zeros((2, 2)))

    def test_time_label_column(self, tmp_path):
        f = write(tmp_path / "t.csv",
                  "date,a,b\n2001-01-01,0.1,0.2\n2001-01-02,0.3,0.4\n")
        frame = cli.load_csv(f, "returns")
        assert frame.labels == ["a", "b"]
        assert frame.times == ["2001-01-01", "2001-01-02"]
        assert frame.values.shape == (2, 2)

    def test_missing_value_names_position(self, tmp_path):
        f = write(tmp_path / "m.csv", "a,b\n0.1,0.2\n0.3,NaN\n")
        with pytest.raises(MissingValue, match="row 3.*column b"):
            cli.load_csv(f, "returns")
        f2 = write(tmp_path / "m2.csv", "a,b\n0.1,\n0.3,0.4\n")
        with pytest.raises(MissingValue, match="row 2"):
            cli.load_csv(f2, "returns")

    def test_parse_error(self, tmp_path):
        f = write(tmp_path / "p.csv", "a\n0.1\nbogus\n")
        with pytest.raises(ParseError, match="bogus"):
            cli.load_csv(f, "returns")

    def test_non_finite_cell(self, tmp_path):
        for cell in ("inf", "-Infinity", "1e999"):
            f = write(tmp_path / "i.csv", f"a,b\n1.0,2.0\n{cell},0.5\n0.3,0.1\n")
            with pytest.raises(ParseError, match="row 3, column a"):
                cli.load_csv(f, "returns")

    def test_ragged_row(self, tmp_path):
        f = write(tmp_path / "rg.csv", "a,b\n0.1,0.2\n0.3\n")
        with pytest.raises(ParseError, match="row 3"):
            cli.load_csv(f, "returns")

    def test_nonpositive_level(self, tmp_path):
        f = write(tmp_path / "np.csv", "a\n1.0\n0.0\n2.0\n")
        with pytest.raises(NonPositiveLevel, match="row 3"):
            cli.load_csv(f, "levels")
        # the same file is fine as returns
        assert cli.load_csv(f, "returns").values.shape == (3, 1)

    @pytest.mark.parametrize("text, mode, error", [
        ("a,b\n0.1,0.2\n\n0.3,oops\n", "returns", ParseError),
        ("a,b\n0.1,0.2\n\n0.3,\n", "returns", MissingValue),
        ("a,b\n0.1,0.2\n\n0.3\n", "returns", ParseError),
        ("\na,b\n0.1,0.2\n0.3,oops\n", "returns", ParseError),
        ("a\n1.0\n\n0.0\n", "levels", NonPositiveLevel),
    ], ids=["bad-cell", "missing-cell", "ragged-row", "blank-before-header",
            "level"])
    def test_blank_line_keeps_file_line(self, tmp_path, text, mode, error):
        # the bad cell is on line 4 of the file, past a blank line
        f = write(tmp_path / "b.csv", text)
        with pytest.raises(error, match=r"row 4\b"):
            cli.load_csv(f, mode)

    def test_rows_carry_file_lines(self, tmp_path):
        f = write(tmp_path / "l.csv", "x\n1\n\n2\n\n\n4\n")
        assert list(cli.load_csv(f, "returns").lines) == [2, 4, 7]
        # a log difference sits on the later price's line
        assert list(cli.load_csv(f, "levels").lines) == [4, 7]

    def test_header_only(self, tmp_path):
        f = write(tmp_path / "h.csv", "a,b\n")
        with pytest.raises(ParseError):
            cli.load_csv(f, "returns")

    def test_first_error_in_file_order(self, tmp_path):
        # a bad cell on line 3 comes before a ragged row on line 5
        f = write(tmp_path / "o.csv", "a,b\n0.1,0.2\n0.3,oops\n0.4,0.5\n0.6\n")
        with pytest.raises(ParseError, match=r"row 3\b.*column b"):
            cli.load_csv(f, "returns")

    def test_byte_order_mark_is_not_a_label(self, tmp_path):
        # the start of an Excel "CSV UTF-8" export
        f = write(tmp_path / "bom.csv", "\ufeffa,b\n0.1,0.2\n0.3,0.4\n")
        assert cli.load_csv(f, "returns").labels == ["a", "b"]

    def test_dated_levels_peak_memory(self, tmp_path):
        # one pass over the file keeps the time labels and the numbers:
        # about 2.5 MB at the peak for 20000 dated rows; holding every line
        # and split row as Python objects as well takes about 10 MB
        rng = np.random.default_rng(3)
        prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((20_001, 2)),
                                          axis=0))
        dates = [f"{d}" for d in np.arange("1960-01-01", 20_001, dtype="datetime64[D]")]
        f = write(tmp_path / "levels.csv", "date,P1,P2\n" + "".join(
            "%s,%.17g,%.17g\n" % (d, *row) for d, row in zip(dates, prices.tolist())))
        tracemalloc.start()
        try:
            frame = cli.load_csv(f, "levels")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert frame.labels == ["P1", "P2"]
        assert frame.times == dates[1:]
        np.testing.assert_array_equal(frame.values, np.diff(np.log(prices), axis=0))
        np.testing.assert_array_equal(frame.lines, np.arange(3, 20_003))


class TestEmitSeries:
    def test_correlation_of_equicorrelated_scale(self, tmp_path):
        # posterior mean a I + b 11' has off-diagonal correlation b/(a+b)
        a, b = 2.0, 0.5
        cfg = filtering.new_config(3, 0.9, np.eye(3))
        scale = (a * np.eye(3) + b * np.ones((3, 3))) / cfg.posterior_mean_coef
        frame = cli.ReturnsFrame(labels=["x", "y", "z"], times=["t1"],
                                 values=np.zeros((1, 3)))
        # the run's packed factors: R_{-1}, then R_0 with R_0'R_0 = scale
        packed = filtering.pack_upper(np.stack([np.eye(3), matstat.chol_upper(scale)]))
        run = filtering.FilterRun(cfg=cfg, factors_packed=packed, w=np.zeros((1, 3)),
                                  q=np.zeros(1), logdet_pre=np.zeros(1))
        paths = cli.emit_series(str(tmp_path), frame, {0.9: run})
        assert paths == [str(tmp_path / "series_delta_0.9.csv")]
        with open(paths[0], encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            row = fh.readline().strip().split(",")
        assert header == ["time", "sigma_x", "sigma_y", "sigma_z",
                          "rho_x_y", "rho_x_z", "rho_y_z"]
        assert row[0] == "t1"
        for sigma in row[1:4]:
            assert math.isclose(float(sigma), math.sqrt(a + b), rel_tol=1e-9)
        for rho in row[4:]:
            assert math.isclose(float(rho), b / (a + b), rel_tol=1e-9)


def simulate_csv(tmp_path, p=2, n=400, delta=0.9, seed=3):
    status = cli.main(["--simulate", f"{p},{n},{delta}",
                       "--out", str(tmp_path), "--seed", str(seed)])
    assert status == 0
    return os.path.join(str(tmp_path), "simulated_returns.csv")


class TestMainAnalysis:
    def test_end_to_end(self, tmp_path):
        csv = simulate_csv(tmp_path)
        out = tmp_path / "run"
        status = cli.main(["--input", csv, "--out", str(out),
                           "--deltas", "0.8,0.9,0.95", "--baseline", "0.95"])
        assert status == 0
        names = {"grid_report.tsv", "grid_report.json", "bayes_factors.csv",
                 "manifest.json", "series_delta_0.8.csv",
                 "series_delta_0.9.csv", "series_delta_0.95.csv"}
        assert names <= set(os.listdir(out))

        with open(out / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["n_observations"] == 400
        assert manifest["n_series"] == 2
        assert manifest["best_delta"] in (0.8, 0.9, 0.95)
        assert manifest["failed_rows"] == {}
        assert sorted(manifest["outputs"]) == sorted(names - {"manifest.json"})

        with open(out / "grid_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        deltas = [r["delta"] for r in report["rows"]]
        assert deltas == sorted(deltas) == [0.8, 0.9, 0.95]
        base = next(r for r in report["rows"] if r["delta"] == 0.95)
        assert base["mean_h"] == 0.0
        # the per-series MSSE is on the selected row only
        with_msse = [r for r in report["rows"] if r["msse"] is not None]
        assert [r["delta"] for r in with_msse] == [manifest["best_delta"]]
        assert len(with_msse[0]["msse"]) == 2

        with open(out / "series_delta_0.9.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 401
        header = lines[0].split(",")
        assert header == ["time", "sigma_y1", "sigma_y2", "rho_y1_y2"]
        rho = np.array([float(ln.split(",")[3]) for ln in lines[1:]])
        assert np.all((rho >= -1.0) & (rho <= 1.0))
        sig = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        assert np.all(sig > 0)

        with open(out / "bayes_factors.csv", encoding="utf-8") as fh:
            bf_lines = fh.read().splitlines()
        assert bf_lines[0] == "time,H_0.8,H_0.9,H_0.95"
        assert len(bf_lines) == 401
        assert all(float(ln.split(",")[3]) == 0.0 for ln in bf_lines[1:])

    def test_rerun_is_byte_identical(self, tmp_path):
        csv = simulate_csv(tmp_path, n=200)
        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert cli.main(["--input", csv, "--out", str(out),
                             "--deltas", "0.8,0.95"]) == 0
            blob = {}
            for f in sorted(os.listdir(out)):
                if f == "manifest.json":
                    continue                    # timings differ between runs
                with open(out / f, "rb") as fh:
                    blob[f] = fh.read()
            outputs.append(blob)
        assert outputs[0] == outputs[1]

    def test_levels_mode(self, tmp_path):
        rng = np.random.default_rng(0)
        levels = np.exp(np.cumsum(0.02 * rng.standard_normal((300, 2)), axis=0))
        body = "\n".join(",".join("%.12g" % v for v in row) for row in levels)
        csv = write(tmp_path / "levels.csv", "a,b\n" + body + "\n")
        out = tmp_path / "run"
        assert cli.main(["--input", csv, "--mode", "levels",
                         "--out", str(out)]) == 0
        with open(out / "manifest.json", encoding="utf-8") as fh:
            assert json.load(fh)["n_observations"] == 299

    def test_scale_flag(self, tmp_path):
        csv = simulate_csv(tmp_path, n=150)
        assert cli.main(["--input", csv, "--out", str(tmp_path / "s"),
                         "--scale", "100", "--deltas", "0.9", "--baseline",
                         "0.9"]) == 0

    def test_close_deltas_keep_their_own_outputs(self, tmp_path):
        # equal under %g: each delta still gets its file, column and keys
        csv = simulate_csv(tmp_path, n=100)
        out = tmp_path / "run"
        assert cli.main(["--input", csv, "--out", str(out),
                         "--deltas", "0.9,0.9000001", "--baseline", "0.9"]) == 0
        series = {"series_delta_0.9.csv", "series_delta_0.9000001.csv"}
        assert series <= set(os.listdir(out))
        with open(out / "bayes_factors.csv", encoding="utf-8") as fh:
            assert fh.readline() == "time,H_0.9,H_0.9000001\n"
        with open(out / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert sorted(manifest["outputs"]) == sorted(
            series | {"grid_report.tsv", "grid_report.json", "bayes_factors.csv"})
        assert set(manifest["flat_day_counts"]) == {"0.9", "0.9000001"}


class TestExitCodes:
    def test_config_errors(self, tmp_path, capsys):
        csv = simulate_csv(tmp_path, n=50)
        assert cli.main(["--input", csv, "--deltas", ""]) == 1
        assert cli.main(["--input", csv, "--deltas", "0.5,0.9"]) == 1
        assert cli.main(["--input", csv, "--deltas", "0.8,0.9",
                         "--baseline", "0.85"]) == 1
        assert cli.main(["--input", csv, "--deltas", "0.8;0.9"]) == 1
        assert cli.main(["--input", csv, "--scale", "-1"]) == 1
        assert cli.main(["--input", csv, "--prior-window", "1"]) == 1
        assert cli.main(["--input", csv, "--prior-window", "0"]) == 1
        # checked before the CSV is read: a missing file would exit 2
        assert cli.main(["--input", str(tmp_path / "missing.csv"),
                         "--prior-window", "1"]) == 1
        capsys.readouterr()
        # the grid is checked by diagnostics.check_grid, also before reading
        assert cli.main(["--input", str(tmp_path / "missing.csv"),
                         "--deltas", "0.5,0.9,1.2", "--baseline", "0.9"]) == 1
        assert "got 0.5" in capsys.readouterr().err
        assert cli.main([]) == 1
        with pytest.raises(SystemExit) as exc:
            cli.main(["--mode", "prices", "--input", csv])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_simulate_config_errors(self, tmp_path, capsys):
        assert cli.main(["--simulate", "2,100", "--out", str(tmp_path)]) == 1
        assert cli.main(["--simulate", "2,100,0.5", "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_simulate_overflow_exits_1_naming_step(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = cli.main(["--simulate", "4,3000,0.7", "--seed", "0",
                               "--out", str(tmp_path)])
        assert status == 1
        assert "step 2066" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "simulated_returns.csv")

    def test_data_errors(self, tmp_path, capsys):
        assert cli.main(["--input", str(tmp_path / "missing.csv")]) == 2
        bad = write(tmp_path / "bad.csv", "a\n1.0\noops\n")
        assert cli.main(["--input", bad]) == 2
        neg = write(tmp_path / "neg.csv", "a\n1.0\n-2.0\n")
        assert cli.main(["--input", neg, "--mode", "levels"]) == 2
        inf = write(tmp_path / "inf.csv", "a,b\n1.0,2.0\ninf,0.5\n0.3,0.1\n")
        assert cli.main(["--input", inf]) == 2
        assert "row 3, column a" in capsys.readouterr().err
        latin = tmp_path / "latin.csv"
        latin.write_bytes(b"a,b\n0.1,0.2\n\xff\xfe,0.3\n0.2,0.1\n")
        assert cli.main(["--input", str(latin)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "latin.csv: not UTF-8" in err
        assert err.count("latin.csv") == 1
        # main names the file once, and the file-level messages do not
        for name, text in (("empty.csv", "a,b\n"), ("labels.csv", "t\nmon\n")):
            path = write(tmp_path / name, text)
            assert cli.main(["--input", path]) == 2
            assert capsys.readouterr().err.count(name) == 1
        # --scale overflows a finite cell: a data error naming the CSV cell
        big = write(tmp_path / "big.csv", "a,b\n0.1,1e300\n0.2,0.3\n")
        levels = write(tmp_path / "levels.csv", "a,b\n1.0,1.0\n1e300,2.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["--input", big, "--scale", "1e10"]) == 2
            assert "row 2, column b" in capsys.readouterr().err
            assert cli.main(["--input", levels, "--mode", "levels",
                             "--scale", "1e307"]) == 2
            assert "row 3, column a" in capsys.readouterr().err
            # past a blank line, both messages name the file line
            blank = write(tmp_path / "blank.csv", "a,b\n0.1,0.2\n\n0.3,oops\n")
            assert cli.main(["--input", blank]) == 2
            assert "row 4, column b" in capsys.readouterr().err
            blank_big = write(tmp_path / "blank_big.csv", "a,b\n0.1,0.2\n\n0.3,1e300\n")
            assert cli.main(["--input", blank_big, "--scale", "1e10"]) == 2
            assert "row 4, column b" in capsys.readouterr().err
        capsys.readouterr()

    def test_failed_rows_do_not_abort(self, tmp_path, capsys):
        # constant data: every filter sees zero variance; the default prior
        # falls back with a warning and the run still completes
        csv = write(tmp_path / "flat.csv",
                    "a,b\n" + "0.0,0.0\n" * 40)
        out = tmp_path / "run"
        with pytest.warns(UserWarning):
            status = cli.main(["--input", csv, "--out", str(out),
                               "--deltas", "0.9,0.95"])
        assert status == 0
        with open(out / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["flat_day_counts"]["0.9"] == 40
        capsys.readouterr()

    def test_no_partial_outputs_on_failure(self, tmp_path):
        bad = write(tmp_path / "bad.csv", "a\n1.0\noops\n")
        out = tmp_path / "run"
        assert cli.main(["--input", bad, "--out", str(out)]) == 2
        assert not out.exists()


def worst_case_returns(n, p, window, magnitude, seed=0):
    """Returns of one magnitude with random signs, the burn-in rows
    alternating in sign, which gives them the largest sample variance."""
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=(n, p))
    signs[:window] = np.where(np.arange(window) % 2 == 0, 1.0, -1.0)[:, None]
    return magnitude * signs


def write_returns(path, values):
    labels = "abcdefgh"[:values.shape[1]]
    return write(path, ",".join(labels) + "\n" + "".join(
        ",".join("%.17g" % x for x in row) + "\n" for row in values))


class TestHugeReturns:
    """Returns too large for the scale matrix are a data error, exit 2."""

    # default --deltas and --prior-window, two columns
    BOUND = cli._return_bound(cli.DEFAULT_DELTAS, 2, 30)

    @pytest.mark.parametrize("scale", [1.0, 1e100])
    def test_just_below_bound_runs_clean(self, tmp_path, capsys, scale):
        values = worst_case_returns(400, 2, 30, 0.999 * self.BOUND / scale)
        csv = write_returns(tmp_path / "r.csv", values)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["--input", csv, "--out", str(out),
                             "--scale", repr(scale)]) == 0
        with open(out / "grid_report.json", encoding="utf-8") as fh:
            assert all(r["error"] is None for r in json.load(fh)["rows"])
        capsys.readouterr()

    @pytest.mark.parametrize("cell, scale", [
        (1.001 * BOUND, 1.0), (-1.001 * BOUND / 1e100, 1e100),
        (1e300, 1.0), (1e200, 1e100)])
    def test_at_or_above_bound_is_a_data_error(self, tmp_path, capsys, cell, scale):
        values = worst_case_returns(400, 2, 30, 0.5 * self.BOUND / scale)
        values[5, 1] = cell
        csv = write_returns(tmp_path / "r.csv", values)
        out = tmp_path / "run"
        args = ["--input", csv, "--out", str(out)]
        if scale != 1.0:
            args += ["--scale", repr(scale)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "row 7, column b" in err
        assert ("--scale" in err) == (scale != 1.0)
        assert "%.4g" % self.BOUND in err
        assert not out.exists()

    def test_bound_is_where_the_grid_overflows(self):
        # worst-case returns 1% above the bound overflow the largest delta's
        # row, so the bound rejects no data the grid could score
        data = worst_case_returns(400, 2, 30, 1.01 * self.BOUND)
        with np.errstate(over="raise"):
            report = diagnostics.grid_search(data, cli.DEFAULT_DELTAS, 0.95)
        top = max(report.rows, key=lambda r: r.delta)
        assert "overflow" in top.error
