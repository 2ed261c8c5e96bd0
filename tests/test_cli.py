import json
import math
import os
import warnings

import numpy as np
import pytest

from msvol import cli, filtering
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

    def test_header_only(self, tmp_path):
        f = write(tmp_path / "h.csv", "a,b\n")
        with pytest.raises(ParseError):
            cli.load_csv(f, "returns")


class TestEmitSeries:
    def test_correlation_of_equicorrelated_scale(self, tmp_path):
        # posterior mean a I + b 11' has off-diagonal correlation b/(a+b)
        a, b = 2.0, 0.5
        cfg = filtering.new_config(3, 0.9, np.eye(3))
        scale = (a * np.eye(3) + b * np.ones((3, 3))) / cfg.posterior_mean_coef
        frame = cli.ReturnsFrame(labels=["x", "y", "z"], times=["t1"],
                                 values=np.zeros((1, 3)))
        run = filtering.FilterRun(cfg=cfg, scales=scale[None], u=np.zeros((1, 3)),
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


class TestExitCodes:
    def test_config_errors(self, tmp_path, capsys):
        csv = simulate_csv(tmp_path, n=50)
        assert cli.main(["--input", csv, "--deltas", ""]) == 1
        assert cli.main(["--input", csv, "--deltas", "0.5,0.9"]) == 1
        assert cli.main(["--input", csv, "--deltas", "0.8,0.9",
                         "--baseline", "0.85"]) == 1
        assert cli.main(["--input", csv, "--deltas", "0.8;0.9"]) == 1
        assert cli.main(["--input", csv, "--scale", "-1"]) == 1
        assert cli.main([]) == 1
        with pytest.raises(SystemExit) as exc:
            cli.main(["--mode", "prices", "--input", csv])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_simulate_config_errors(self, tmp_path, capsys):
        assert cli.main(["--simulate", "2,100", "--out", str(tmp_path)]) == 1
        assert cli.main(["--simulate", "2,100,0.5", "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_data_errors(self, tmp_path, capsys):
        assert cli.main(["--input", str(tmp_path / "missing.csv")]) == 2
        bad = write(tmp_path / "bad.csv", "a\n1.0\noops\n")
        assert cli.main(["--input", bad]) == 2
        neg = write(tmp_path / "neg.csv", "a\n1.0\n-2.0\n")
        assert cli.main(["--input", neg, "--mode", "levels"]) == 2
        inf = write(tmp_path / "inf.csv", "a,b\n1.0,2.0\ninf,0.5\n0.3,0.1\n")
        assert cli.main(["--input", inf]) == 2
        assert "row 3, column a" in capsys.readouterr().err
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
