import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from condsurv.cli import main
from conftest import fresh_python

BASIC = "x,z,delta\n0.5,1.0,1\n0.5,2.0,0\n0.5,3.0,1\n"


def write_data(tmp_path, text=BASIC, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_curve(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,s_hat"
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


class TestFit:
    def test_fit_reproduces_hand_values(self, tmp_path):
        data = write_data(tmp_path)
        out = tmp_path / "fit"
        code = main([
            "fit", "--data", data, "--estimator", "beran", "--x0", "0.5",
            "--h", "1.0", "--n-grid", "4", "--t-max", "4.0", "--out", str(out),
        ])
        assert code == 0
        curve = read_curve(tmp_path / "fit_x0p5.csv")
        assert_allclose(curve[:, 0], [1.0, 2.0, 3.0, 4.0])
        assert_allclose(curve[:, 1], [2 / 3, 2 / 3, 0.0, 0.0], atol=1e-15)
        meta = json.loads((tmp_path / "fit_x0p5.json").read_text())
        assert meta["n"] == 3
        assert meta["censoring_fraction"] == pytest.approx(1 / 3)
        assert meta["h"] == 1.0
        assert meta["seed"] is None

    def test_curve_csv_golden_bytes(self, tmp_path):
        data = write_data(tmp_path)
        code = main([
            "fit", "--data", data, "--estimator", "beran", "--x0", "0.5",
            "--h", "1.0", "--n-grid", "4", "--t-max", "4.0", "--out", str(tmp_path / "fit"),
        ])
        assert code == 0
        assert (tmp_path / "fit_x0p5.csv").read_bytes() == (
            b"t,s_hat\r\n1,0.66666666666666674\r\n2,0.66666666666666674\r\n3,0\r\n4,0\r\n"
        )

    def test_beran_fit_records_no_time_bandwidth(self, tmp_path):
        data = write_data(tmp_path)
        code = main([
            "fit", "--data", data, "--estimator", "beran", "--x0", "0.5", "--h", "1.0", "--g", "0.1",
            "--n-grid", "4", "--t-max", "4.0", "--out", str(tmp_path / "fit"),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "fit_x0p5.json").read_text())
        assert meta["h"] == 1.0 and meta["g"] is None

    def test_data_with_a_byte_order_mark(self, tmp_path):
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + BASIC.encode())
        code = main([
            "fit", "--data", str(data), "--estimator", "beran", "--x0", "0.5",
            "--h", "1.0", "--n-grid", "4", "--t-max", "4.0", "--out", str(tmp_path / "bom"),
        ])
        assert code == 0
        assert_allclose(read_curve(tmp_path / "bom_x0p5.csv")[:, 1], [2 / 3, 2 / 3, 0.0, 0.0], atol=1e-15)

    def test_kaplan_meier_ignores_x0(self, tmp_path):
        data = write_data(tmp_path)
        out = tmp_path / "km"
        code = main([
            "fit", "--data", data, "--estimator", "kaplan-meier",
            "--n-grid", "4", "--t-max", "4.0", "--out", str(out),
        ])
        assert code == 0
        curve = read_curve(tmp_path / "km_km.csv")
        assert_allclose(curve[:, 1], [2 / 3, 2 / 3, 0.0, 0.0], atol=1e-15)

    def test_default_grid_uses_095_quantile(self, tmp_path):
        data = write_data(tmp_path)
        out = tmp_path / "q"
        main(["fit", "--data", data, "--estimator", "kaplan-meier", "--out", str(out)])
        meta = json.loads((tmp_path / "q_km.json").read_text())
        assert meta["t_max"] == pytest.approx(float(np.quantile([1.0, 2.0, 3.0], 0.95)))
        assert meta["n_grid"] == 100

    def test_missing_h_is_validation_error(self, tmp_path):
        data = write_data(tmp_path)
        code = main(["fit", "--data", data, "--estimator", "beran", "--x0", "0.5", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_smoothed_fit(self, tmp_path):
        data = write_data(tmp_path)
        out = tmp_path / "sm"
        code = main([
            "fit", "--data", data, "--estimator", "smoothed-beran", "--x0", "0.5",
            "--h", "1.0", "--g", "0.5", "--n-grid", "4", "--t-max", "4.0", "--out", str(out),
        ])
        assert code == 0
        curve = read_curve(tmp_path / "sm_x0p5.csv")
        assert np.all(np.diff(curve[:, 1]) <= 1e-12)


class TestErrors:
    def test_schema_error_exit_2_and_error_json(self, tmp_path):
        bad = write_data(tmp_path, "a,b,c\n1,2,3\n", name="bad.csv")
        err_path = tmp_path / "err.json"
        code = main([
            "fit", "--data", bad, "--estimator", "kaplan-meier",
            "--out", str(tmp_path / "x"), "--error-json", str(err_path),
        ])
        assert code == 2
        record = json.loads(err_path.read_text())
        assert record["error"] == "SchemaError"
        assert record["exit_code"] == 2

    def test_repeated_column_exit_2_and_error_json(self, tmp_path):
        bad = write_data(tmp_path, "x,z,delta,z\n0.5,1,1,9\n0.5,2,0,8\n", name="twice.csv")
        err_path = tmp_path / "err.json"
        code = main([
            "fit", "--data", bad, "--estimator", "kaplan-meier",
            "--out", str(tmp_path / "x"), "--error-json", str(err_path),
        ])
        assert code == 2
        record = json.loads(err_path.read_text())
        assert record["error"] == "SchemaError"
        assert "['z'] appear more than once" in record["message"]
        assert not (tmp_path / "x.csv").exists()

    def test_row_error_records_line_number(self, tmp_path):
        bad = write_data(tmp_path, "x,z,delta\n1,2,5\n", name="bad2.csv")
        err_path = tmp_path / "err2.json"
        code = main([
            "fit", "--data", bad, "--estimator", "kaplan-meier",
            "--out", str(tmp_path / "x"), "--error-json", str(err_path),
        ])
        assert code == 2
        assert json.loads(err_path.read_text())["line_number"] == 2

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_non_finite_covariate_records_line_number(self, tmp_path, x):
        bad = write_data(tmp_path, f"x,z,delta\n0.5,2,1\n{x},1,0\n", name="bad3.csv")
        err_path = tmp_path / "err3.json"
        code = main([
            "fit", "--data", bad, "--estimator", "kaplan-meier",
            "--out", str(tmp_path / "x"), "--error-json", str(err_path),
        ])
        assert code == 2
        record = json.loads(err_path.read_text())
        assert record["error"] == "DataValidationError"
        assert record["line_number"] == 3
        assert "covariate must be finite" in record["message"]

    def test_numerical_error_exit_3(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = ["x,z,delta"]
        for _ in range(20):
            rows.append(f"{rng.random()},{rng.exponential()},1")
        data = write_data(tmp_path, "\n".join(rows) + "\n", name="num.csv")
        code = main([
            "region", "--data", data, "--x0", "100.0", "--h", "0.01",
            "--B", "5", "--seed", "1", "--out", str(tmp_path / "r"),
        ])
        assert code == 3

    @pytest.mark.parametrize("flags, exit_code", [
        (["--data", "missing.csv", "--h", "0.3"], 2),
        (["--h", "1e-310"], 3),
    ])
    def test_unwritable_error_record_keeps_the_exit_code(self, tmp_path, capsys, flags, exit_code):
        if "missing.csv" not in flags:
            flags = [*flags, "--data", _model_csv(tmp_path)]
        # a directory cannot be opened as the record's file
        code = main(["fit", *flags, "--x0", "0.5", "--out", str(tmp_path / "o"), "--error-json", str(tmp_path)])
        assert code == exit_code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and all(line.startswith("error: ") for line in lines)
        assert f"the error record {str(tmp_path)!r} could not be written" in lines[1]


    def test_no_finite_mise_exits_3(self, tmp_path, monkeypatch):
        import condsurv.benchmark as benchmark

        # a covariate spread so small that the study box is (1e-8, 2e-7): every kernel weight underflows
        monkeypatch.setattr(benchmark, "_quantile_spread", lambda values: 2e-7)
        err_path = tmp_path / "err.json"
        code = main([
            "simulate", "--n", "20", "--n-samples", "1", "--B", "2", "--n-grid", "8",
            "--seed", "3", "--mise-samples", "3", "--mise-grid", "3",
            "--out", str(tmp_path / "sim"), "--error-json", str(err_path),
        ])
        assert code == 3
        assert json.loads(err_path.read_text())["error"] == "SelectionFailedError"


class TestConfigFile:
    def run_fit(self, tmp_path, entries):
        data = write_data(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(entries))
        err_path = tmp_path / "err.json"
        code = main([
            "fit", "--data", data, "--estimator", "beran", "--x0", "0.5", "--h", "1.0", "--n-grid", "4",
            "--t-max", "4.0", "--out", str(tmp_path / "fit"), "--config", str(config),
            "--error-json", str(err_path),
        ])
        return code, (json.loads(err_path.read_text()) if err_path.exists() else None)

    def test_entries_use_the_flag_types(self, tmp_path):
        code, record = self.run_fit(tmp_path, {"x0": 0.25, "support": [0, 1], "n-grid": 3})
        assert code == 0 and record is None
        assert len(read_curve(tmp_path / "fit_x0p25.csv")) == 3
        assert not (tmp_path / "fit_x0p5.csv").exists()

    @pytest.mark.parametrize("entries", [
        {"hh": 3},
        {"x0": "abc"},
        {"n_grid": 2.5},
        {"estimator": "cox"},
        {"h": [1.0]},
        {"support": True},
        {"support": [0, float("inf")]},
        {"x0": float("nan")},
    ])
    def test_bad_entries_exit_2_with_error_json(self, tmp_path, entries):
        code, record = self.run_fit(tmp_path, entries)
        assert code == 2
        assert record["exit_code"] == 2 and record["error"] == "ValueError"

    def test_non_object_config_exit_2(self, tmp_path):
        code, record = self.run_fit(tmp_path, [1, 2])
        assert code == 2 and record["exit_code"] == 2


class TestSelectBandwidth:
    def test_smoke_and_trace_length(self, tmp_path):
        import time

        rng = np.random.default_rng(0)
        rows = ["x,z,delta"]
        for _ in range(30):
            t, c = rng.exponential(), rng.exponential()
            rows.append(f"{rng.random()},{min(t, c)},{int(t <= c)}")
        data = write_data(tmp_path, "\n".join(rows) + "\n", name="sel.csv")
        out = tmp_path / "sel"
        start = time.perf_counter()
        code = main([
            "select-bandwidth", "--data", data, "--x0", "0.5", "--B", "10",
            "--seed", "3", "--strategy", "grid", "--grid-size", "12", "--out", str(out),
        ])
        assert time.perf_counter() - start < 10.0
        assert code == 0
        payload = json.loads((tmp_path / "sel_x0p5.json").read_text())
        assert len(payload["objective_trace"]) == 12
        assert payload["B"] == 10
        assert payload["pilot_r"] > 0
        lo, hi = payload["search_box"][0]
        assert lo <= payload["h_star"] <= hi


class TestRegionCommand:
    def test_smoke_columns_and_sidecar(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = ["x,z,delta"]
        for _ in range(40):
            t, c = rng.exponential(), rng.exponential(2.0)
            rows.append(f"{rng.random()},{min(t, c)},{int(t <= c)}")
        data = write_data(tmp_path, "\n".join(rows) + "\n", name="reg.csv")
        out = tmp_path / "reg"
        code = main([
            "region", "--data", data, "--method", "2", "--x0", "0.5",
            "--h", "0.3", "--B", "20", "--seed", "2", "--n-grid", "15", "--out", str(out),
        ])
        assert code == 0
        lines = (tmp_path / "reg_x0p5.csv").read_text().strip().splitlines()
        assert lines[0] == "t,lower,estimate,upper"
        cells = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(cells[:, 3] - cells[:, 1] >= 0.0)
        meta = json.loads((tmp_path / "reg_x0p5.json").read_text())
        assert meta["method"] == "method2"
        assert meta["level"] == 0.95
        assert meta["average_width"] >= 0

    def test_rerun_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = ["x,z,delta"]
        for _ in range(30):
            t, c = rng.exponential(), rng.exponential(2.0)
            rows.append(f"{rng.random()},{min(t, c)},{int(t <= c)}")
        data = write_data(tmp_path, "\n".join(rows) + "\n", name="det.csv")
        for tag in ("a", "b"):
            main([
                "region", "--data", data, "--method", "1", "--x0", "0.4",
                "--h", "0.3", "--B", "15", "--seed", "9", "--n-grid", "10",
                "--out", str(tmp_path / tag),
            ])
        assert (tmp_path / "a_x0p4.csv").read_bytes() == (tmp_path / "b_x0p4.csv").read_bytes()
        assert (tmp_path / "a_x0p4.json").read_bytes() == (tmp_path / "b_x0p4.json").read_bytes()

    @pytest.mark.parametrize("method", ["1", "2"])
    def test_alpha_outside_unit_interval_exit_2(self, tmp_path, method):
        rng = np.random.default_rng(2)
        rows = ["x,z,delta"]
        for _ in range(30):
            t, c = rng.exponential(), rng.exponential(2.0)
            rows.append(f"{rng.random()},{min(t, c)},{int(t <= c)}")
        data = write_data(tmp_path, "\n".join(rows) + "\n", name="alpha.csv")
        code = main([
            "region", "--data", data, "--method", method, "--x0", "0.4", "--h", "0.3",
            "--B", "15", "--seed", "9", "--n-grid", "10", "--alpha", "-0.1",
            "--out", str(tmp_path / "reg"), "--error-json", str(tmp_path / "err.json"),
        ])
        assert code == 2
        assert "alpha" in json.loads((tmp_path / "err.json").read_text())["message"]


class TestFlagValidation:
    """Bad flag values exit 2 with an error record, before any resample is drawn."""

    def run(self, tmp_path, *flags):
        err_path = tmp_path / "err.json"
        code = main([
            *flags, "--data", _model_csv(tmp_path), "--seed", "3", "--B", "4", "--n-grid", "8",
            "--out", str(tmp_path / "out"), "--error-json", str(err_path),
        ])
        record = json.loads(err_path.read_text()) if err_path.exists() else None
        return code, record, sorted(p.name for p in tmp_path.glob("out*"))

    @pytest.mark.parametrize("flags", [
        ("region", "--x0", "0.5", "--h", "-0.2"),
        ("region", "--x0", "0.5", "--h", "nan"),
        ("region", "--method", "2", "--estimator", "smoothed-beran", "--x0", "0.5",
         "--h", "0.2", "--g", "-0.08"),
    ])
    def test_region_bandwidths_must_be_positive(self, tmp_path, flags):
        code, record, written = self.run(tmp_path, *flags)
        assert code == 2 and record["exit_code"] == 2
        assert "must be a positive finite number" in record["message"]
        assert written == []

    @pytest.mark.parametrize("flags, message", [
        (("fit", "--estimator", "beran", "--x0", "0.5"), "h must be given"),
        (("fit", "--estimator", "smoothed-beran", "--x0", "0.5", "--h", "0.2"), "g must be given"),
        (("fit", "--x0", "0.5", "--h", "0"), "h must be a positive finite number"),
        (("region", "--x0", "0.5", "--h", "-0.2", "--seed", "3"), "h must be a positive finite number"),
        (("region", "--estimator", "smoothed-beran", "--x0", "0.5", "--h", "0.2", "--seed", "3"), "g must be given"),
        (("region", "--x0", "0.5", "--h", "0.2", "--alpha", "1.5", "--seed", "3"), "alpha must lie in (0, 1)"),
        (("region", "--x0", "0.5", "--h", "0.2", "--B", "1", "--seed", "3"), "B must be at least 2 for method 1"),
        (("region", "--method", "1", "--estimator", "smoothed-beran", "--x0", "0.5", "--h", "0.2", "--g", "0.1",
          "--B", "1", "--seed", "3"), "B must be at least 2 for method 1"),
    ])
    def test_bandwidths_and_alpha_are_checked_before_the_data_are_read(self, tmp_path, monkeypatch, flags,
                                                                       message):
        import condsurv.cli

        def no_read(*args, **kwargs):
            raise AssertionError("the data file was read before the flags were checked")

        monkeypatch.setattr(condsurv.cli, "load_csv", no_read)
        err_path = tmp_path / "err.json"
        code = main([*flags, "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "out"),
                     "--error-json", str(err_path)])
        record = json.loads(err_path.read_text())
        assert code == 2 and record["exit_code"] == 2
        assert record["message"].startswith(message)

    def test_method_2_takes_one_replicate(self, tmp_path):
        # only method 1's sigma* needs two bootstrap curves
        code = main(["region", "--method", "2", "--data", _model_csv(tmp_path), "--x0", "0.5", "--h", "0.3",
                     "--B", "1", "--seed", "3", "--n-grid", "8", "--out", str(tmp_path / "out")])
        assert code == 0 and (tmp_path / "out_x0p5.csv").exists()

    @pytest.mark.parametrize("flags", [
        ("region", "--h", "0.3"),
        ("select-bandwidth", "--strategy", "grid", "--grid-size", "3"),
    ])
    def test_empty_x0_list(self, tmp_path, flags):
        code, record, written = self.run(tmp_path, *flags, "--x0", ",")
        assert code == 2 and "--x0" in record["message"]
        assert written == []

    def test_empty_search_grid(self, tmp_path):
        code, record, written = self.run(
            tmp_path, "select-bandwidth", "--x0", "0.5", "--strategy", "grid", "--grid-size", "0"
        )
        assert code == 2 and "grid_size" in record["message"]
        assert written == []

    def test_empty_search_grid_exits_before_resampling(self, tmp_path, monkeypatch):
        import condsurv.cli

        monkeypatch.setattr(condsurv.cli, "resample", lambda *a, **k: pytest.fail("resamples were drawn"))
        code, record, written = self.run(
            tmp_path, "select-bandwidth", "--x0", "0.5", "--estimator", "smoothed-beran", "--strategy", "grid",
            "--grid-size", "0"
        )
        assert code == 2 and record["exit_code"] == 2 and "grid_size=0" in record["message"]
        assert written == []

    @pytest.mark.parametrize("flags", [
        ("region", "--x0", "0.5", "--h", "0.3"),
        ("select-bandwidth", "--x0", "0.5", "--estimator", "smoothed-beran"),
    ])
    def test_infinite_pilot_constant(self, tmp_path, flags):
        code, record, written = self.run(tmp_path, *flags, "--c", "inf")
        assert code == 2 and record["exit_code"] == 2
        assert "pilot_r must be positive and finite" in record["message"]
        assert written == []

    @pytest.mark.parametrize("flags", [
        ("fit", "--x0", "0.5", "--h", "abc"),
        ("region", "--x0", "0.5", "--h", "0.3", "--bogus"),
        ("region", "--x0", "0.5"),
    ])
    def test_usage_errors_get_the_record(self, tmp_path, flags):
        code, record, _ = self.run(tmp_path, *flags)
        assert code == 2 and record == {
            "error": "ValueError", "message": record["message"], "exit_code": 2,
        }

    def test_fresh_resamples_flag_is_gone(self, tmp_path):
        code, record, written = self.run(tmp_path, "select-bandwidth", "--x0", "0.5", "--fresh-resamples")
        assert code == 2 and record == {
            "error": "ValueError", "message": "unrecognized arguments: --fresh-resamples", "exit_code": 2,
        }
        assert written == []

    @pytest.mark.parametrize("flags, bad", [
        (("select-bandwidth", "--x0", "0.5", "--strategy", "grid", "--grid-size", "3"), ("--box", "0.1,inf")),
        (("select-bandwidth", "--strategy", "grid", "--grid-size", "3"), ("--x0", "nan")),
        (("select-bandwidth", "--x0", "0.5", "--estimator", "smoothed-beran", "--strategy", "grid",
          "--grid-size", "3"), ("--box-g", "0.01,inf")),
        (("region", "--x0", "0.5", "--h", "0.3"), ("--support", "0,inf")),
    ])
    def test_non_finite_list_values(self, tmp_path, flags, bad):
        code, record, written = self.run(tmp_path, *flags, *bad)
        assert code == 2 and record["message"].startswith(f"argument {bad[0]}: invalid")
        assert written == []

    @pytest.mark.parametrize("flags", [
        ("fit", "--h", "0.3"),
        ("select-bandwidth", "--seed", "3", "--B", "4"),
        ("region", "--h", "0.3", "--seed", "3", "--B", "4"),
    ])
    def test_colliding_x0_tags_exit_2_before_loading(self, tmp_path, monkeypatch, flags):
        import condsurv.cli

        # 6 significant digits make one tag, so one file would hold the second curve only
        monkeypatch.setattr(condsurv.cli, "_load_dataset", lambda args: pytest.fail("the data were loaded"))
        err_path = tmp_path / "err.json"
        code = main([
            *flags, "--data", "data.csv", "--x0", "0.1234561,0.1234562",
            "--out", str(tmp_path / "out"), "--error-json", str(err_path),
        ])
        record = json.loads(err_path.read_text())
        assert code == 2 and "share the output tag '0p123456'" in record["message"]
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("flags", [
        ("fit", "--h", "0.3"),
        ("select-bandwidth", "--seed", "3", "--B", "4"),
        ("region", "--h", "0.3", "--seed", "3", "--B", "4"),
    ])
    def test_repeated_x0_exits_2_before_loading(self, tmp_path, monkeypatch, flags):
        import condsurv.cli

        monkeypatch.setattr(condsurv.cli, "_load_dataset", lambda args: pytest.fail("the data were loaded"))
        err_path = tmp_path / "err.json"
        code = main([
            *flags, "--data", "data.csv", "--x0", "0.4,0.6,0.4",
            "--out", str(tmp_path / "out"), "--error-json", str(err_path),
        ])
        record = json.loads(err_path.read_text())
        assert code == 2 and record["exit_code"] == 2
        assert record["message"] == "--x0 value 0.4 is given twice"
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("out", ["missing/x", "missing/"])
    @pytest.mark.parametrize("flags", [
        ("fit", "--h", "0.3"),
        ("select-bandwidth", "--seed", "3", "--B", "4"),
        ("region", "--h", "0.3", "--seed", "3", "--B", "4"),
    ])
    def test_missing_output_directory_exits_2_before_loading(self, tmp_path, monkeypatch, flags, out):
        import condsurv.cli

        monkeypatch.setattr(condsurv.cli, "load_csv", lambda *a, **k: pytest.fail("the data were loaded"))
        err_path = tmp_path / "err.json"
        code = main([*flags, "--data", "data.csv", "--x0", "0.5", "--out", f"{tmp_path}/{out}",
                     "--error-json", str(err_path)])
        record = json.loads(err_path.read_text())
        assert code == 2 and record["error"] == "FileNotFoundError"
        assert "missing" in record["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["err.json"]


def _model_csv(tmp_path, n=60, seed=4):
    from condsurv.dataio import save_csv
    from condsurv.simulation import generate_sample, make_model

    path = tmp_path / "model.csv"
    save_csv(generate_sample(make_model("model1", 0.2), n, np.random.default_rng(seed)), path)
    return str(path)


def _outputs(tmp_path, stem, x0_tags):
    return {
        f"{tag}{ext}": (tmp_path / f"{stem}_x{tag}{ext}").read_bytes()
        for tag in x0_tags
        for ext in (".json", ".csv")
        if (tmp_path / f"{stem}_x{tag}{ext}").exists()
    }


class TestSharedResamples:
    """Resamples are drawn once per command, so a multi-x0 run equals separate runs."""

    def run_each_way(self, tmp_path, flags):
        main([*flags, "--x0", "0.4,0.6", "--out", str(tmp_path / "both")])
        for x0 in ("0.4", "0.6"):
            main([*flags, "--x0", x0, "--out", str(tmp_path / "one")])
        both = _outputs(tmp_path, "both", ("0p4", "0p6"))
        assert both and both == _outputs(tmp_path, "one", ("0p4", "0p6"))
        return both

    @pytest.mark.parametrize("method", ["1", "2"])
    def test_smoothed_region_multi_x0_equals_single_runs(self, tmp_path, method):
        data = _model_csv(tmp_path)
        both = self.run_each_way(tmp_path, [
            "region", "--data", data, "--method", method, "--estimator", "smoothed-beran",
            "--h", "0.25", "--g", "0.1", "--B", "12", "--seed", "5", "--n-grid", "15",
            "--support", "0,1",
        ])
        assert len(both) == 4
        counters = json.loads(both["0p4.json"])["resampling"]
        assert set(counters) == {"saturated_time_draws", "saturated_censoring_draws", "retried_draws"}
        assert all(isinstance(v, int) and v >= 0 for v in counters.values())

    def test_grid_selection_multi_x0_equals_single_runs(self, tmp_path):
        data = _model_csv(tmp_path)
        both = self.run_each_way(tmp_path, [
            "select-bandwidth", "--data", data, "--estimator", "beran", "--B", "8",
            "--seed", "6", "--strategy", "grid", "--grid-size", "5", "--n-grid", "15",
        ])
        assert len(both) == 2
        payload = json.loads(both["0p6.json"])
        assert len(payload["objective_trace"]) == 5
        assert set(payload["resampling"]) == {
            "saturated_time_draws", "saturated_censoring_draws", "retried_draws"
        }

    def test_smoothed_region_builds_the_bootstrap_tensor_once(self, tmp_path, monkeypatch):
        # one batch serves every x0; the pilot and the centre stay batches of one per x0
        from condsurv.estimators import _CurveBatch

        rows = []
        original = _CurveBatch._ik_tensor

        def counted(batch, g):
            rows.append(batch.B)
            return original(batch, g)

        monkeypatch.setattr(_CurveBatch, "_ik_tensor", counted)
        code = main([
            "region", "--data", _model_csv(tmp_path), "--method", "1", "--estimator", "smoothed-beran",
            "--x0", "0.4,0.5,0.6", "--h", "0.25", "--g", "0.1", "--B", "12", "--seed", "5",
            "--n-grid", "15", "--support", "0,1", "--out", str(tmp_path / "r"),
        ])
        assert code == 0
        assert rows.count(12) == 1
        assert len(rows) == 7

    def test_smoothed_multistart_selection_multi_x0_equals_single_runs(self, tmp_path, monkeypatch):
        # the searches share each level's tensors; only the build counter tells the runs apart
        from condsurv.estimators import _CurveBatch

        rows = []
        original = _CurveBatch._ik_tensor

        def counted(batch, g):
            rows.append(batch.B)
            return original(batch, g)

        monkeypatch.setattr(_CurveBatch, "_ik_tensor", counted)
        flags = ["select-bandwidth", "--data", _model_csv(tmp_path), "--estimator", "smoothed-beran",
                 "--B", "6", "--seed", "3", "--n-grid", "15", "--support", "0,1"]
        tags = ("0p3", "0p45", "0p6")
        assert main([*flags, "--x0", "0.3,0.45,0.6", "--out", str(tmp_path / "all")]) == 0
        shared = rows.count(6)
        rows.clear()
        for x0 in ("0.3", "0.45", "0.6"):
            assert main([*flags, "--x0", x0, "--out", str(tmp_path / "one")]) == 0
        alone = rows.count(6)
        together = {tag: json.loads((tmp_path / f"all_x{tag}.json").read_text()) for tag in tags}
        apart = {tag: json.loads((tmp_path / f"one_x{tag}.json").read_text()) for tag in tags}
        builds = [payload["search"].pop("tensor_builds") for payload in together.values()]
        assert sum(builds) == shared
        assert sum(payload["search"].pop("tensor_builds") for payload in apart.values()) == alone
        assert together == apart
        assert shared < alone

    def test_resample_calls_per_command(self, tmp_path, monkeypatch):
        import condsurv.bandwidth
        import condsurv.cli

        seeds = {"shared": [], "per candidate": []}
        for module, key in ((condsurv.cli, "shared"), (condsurv.bandwidth, "per candidate")):
            def counted(sample, plan, *rest, _draw=module.resample, _key=key):
                seeds[_key].append(plan.seed)
                return _draw(sample, plan, *rest)

            monkeypatch.setattr(module, "resample", counted)
        data = _model_csv(tmp_path)
        code = main([
            "select-bandwidth", "--data", data, "--estimator", "beran", "--x0", "0.4,0.6",
            "--B", "6", "--seed", "6", "--strategy", "grid", "--grid-size", "3",
            "--n-grid", "10", "--out", str(tmp_path / "sel"),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "sel_x0p4.json").read_text())
        assert seeds == {"shared": [6], "per candidate": []}
        assert payload["resampling"] is not None


def test_import_leaves_scipy_optimize_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import condsurv

    src = str(Path(condsurv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, condsurv; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_2d_search_leaves_scipy_optimize_unloaded(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import condsurv

    src = str(Path(condsurv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["select-bandwidth", "--data", _model_csv(tmp_path), "--estimator", "smoothed-beran",
            "--x0", "0.5", "--B", "3", "--n-grid", "8", "--seed", "2", "--out", str(tmp_path / "s")]
    code = f"import sys; from condsurv.cli import main; print(main({argv!r}), 'scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
    payload = json.loads((tmp_path / "s_x0p5.json").read_text())
    trace = payload["objective_trace"]
    assert payload["search"] == {
        "objective_evals": len(trace),
        "nonfinite_evals": sum(not np.isfinite(entry[-1]) for entry in trace),
        "tensor_builds": len({entry[1] for entry in trace}),
    }


class TestSimulateCommand:
    def test_bandwidth_mode_smoke(self, tmp_path):
        out = tmp_path / "sim"
        code = main([
            "simulate", "--model", "model1", "--censoring", "0.2", "--mode", "bandwidth",
            "--n", "20", "--n-samples", "1", "--B", "2", "--n-grid", "10",
            "--seed", "4", "--strategy", "grid", "--grid-size", "5",
            "--mise-samples", "3", "--mise-grid", "4", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "bandwidth"
        assert report["samples_completed"] == 1
        assert (out / "bandwidth_table.csv").exists()

    def test_config_file_overrides_flags(self, tmp_path):
        out = tmp_path / "cfg"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": 25, "seed": 12}))
        code = main([
            "simulate", "--mode", "bandwidth", "--n", "99", "--n-samples", "1",
            "--B", "2", "--n-grid", "8", "--seed", "1", "--strategy", "grid",
            "--grid-size", "4", "--mise-samples", "3", "--mise-grid", "4",
            "--out", str(out), "--config", str(config),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n"] == 25
        assert report["seed"] == 12

    def test_budget_exceeded_exit_code(self, tmp_path):
        out = tmp_path / "budget"
        code = main([
            "simulate", "--mode", "bandwidth", "--n", "20", "--n-samples", "3",
            "--B", "2", "--n-grid", "8", "--seed", "1", "--strategy", "grid",
            "--grid-size", "4", "--mise-samples", "3", "--mise-grid", "4",
            "--budget-minutes", "1e-9", "--out", str(out),
        ])
        assert code == 4
        report = json.loads((out / "report.json").read_text())
        assert report["incomplete"]


    def test_beran_regions_report_records_no_time_bandwidth(self, tmp_path):
        argv = ["simulate", "--mode", "regions", "--estimator", "beran", "--n", "30", "--n-samples", "1",
                "--B", "4", "--n-grid", "8", "--seed", "2", "--h", "0.3"]
        assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
        assert main([*argv, "--g", "0.1", "--out", str(tmp_path / "with_g")]) == 0
        report = (tmp_path / "with_g" / "report.json").read_bytes()
        assert report == (tmp_path / "plain" / "report.json").read_bytes()
        assert json.loads(report)["bandwidth_g"] is None


@pytest.mark.parametrize("argv, exit_code", [
    (["fit", "--estimator", "beran", "--x0", "0.5", "--h", "1e-310"], 3),
    (["fit", "--estimator", "smoothed-beran", "--x0", "0.5", "--h", "0.2", "--g", "1e-310"], 0),
    (["select-bandwidth", "--estimator", "smoothed-beran", "--x0", "0.5", "--box-g", "1e-310,1e-309",
      "--strategy", "grid", "--grid-size", "2", "--B", "3", "--seed", "1"], 0),
])
def test_tiny_bandwidths_raise_no_overflow_warning(tmp_path, argv, exit_code):
    import warnings

    err_path = tmp_path / "err.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, "--data", _model_csv(tmp_path), "--out", str(tmp_path / "out"),
                     "--error-json", str(err_path)])
    assert code == exit_code
    assert err_path.exists() == (exit_code != 0)
    if exit_code:
        assert json.loads(err_path.read_text())["error"] == "DegenerateWeightsError"


class TestBenchCommand:
    def test_non_finite_sizes_exit_2(self, tmp_path):
        err_path = tmp_path / "err.json"
        code = main([
            "bench", "--mode", "scaling", "--sizes", "30,inf", "--B", "2", "--seed", "3",
            "--out", str(tmp_path / "scale"), "--error-json", str(err_path),
        ])
        assert code == 2 and "expected finite numbers" in json.loads(err_path.read_text())["message"]

    @pytest.mark.parametrize("sizes", ["60.9,80", "0,80", "60,-80"])
    def test_sizes_must_be_whole_numbers_of_at_least_one(self, tmp_path, monkeypatch, sizes):
        import condsurv.cli as cli

        monkeypatch.setattr(cli, "scaling_study", lambda *a, **k: pytest.fail("the study ran"))
        err_path = tmp_path / "err.json"
        code = main([
            "bench", "--mode", "scaling", "--sizes", sizes, "--B", "2", "--seed", "3",
            "--out", str(tmp_path / "scale"), "--error-json", str(err_path),
        ])
        record = json.loads(err_path.read_text())
        assert code == 2 and record["error"] == "ValueError" and "whole numbers" in record["message"]
        assert not (tmp_path / "scale").exists()

    def test_sizes_from_a_config_list(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sizes": [30, 40]}))
        out = tmp_path / "scale"
        code = main(["bench", "--mode", "scaling", "--config", str(config), "--B", "2", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        assert set(json.loads((out / "timings.json").read_text())["timings_seconds"]) == {"30", "40"}

    def test_scaling_mode(self, tmp_path):
        out = tmp_path / "scale"
        code = main([
            "bench", "--mode", "scaling", "--sizes", "30,60", "--B", "2",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings["timings_seconds"]) == {"30", "60"}


class TestSimulateCountsCheckedFirst:
    """Bad counts and α exit 2 with the record before any sample is drawn."""

    BASE = ["--n", "30", "--B", "3", "--n-grid", "6", "--mise-samples", "2", "--mise-grid", "3",
            "--strategy", "grid", "--grid-size", "3", "--seed", "1"]

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    @pytest.mark.parametrize("flags, field", [
        (["--n-samples", "0"], "n_samples"),
        (["--mise-samples", "0"], "mise_samples"),
        (["--mise-grid", "0"], "mise_grid"),
        (["--B", "0"], "B"),
        (["--mode", "regions", "--alpha", "1.5"], "alpha"),
        (["--budget-minutes", "nan"], "budget_seconds"),
        (["--budget-minutes", "-1"], "budget_seconds"),
        (["--mode", "regions", "--h", "-1"], "bandwidth_h"),
        (["--mode", "regions", "--estimator", "smoothed-beran", "--g", "0.05"], "bandwidth_g"),
        (["--mode", "regions", "--estimator", "smoothed-beran", "--h", "0.2"], "bandwidth_g"),
        (["--mode", "regions", "--h", "0.2", "--B", "1"], "B"),
        (["--mode", "regions", "--B", "1"], "B"),
    ])
    def test_exit_2_before_any_draw(self, tmp_path, monkeypatch, command, flags, field):
        import condsurv.benchmark

        def no_draw(*args, **kwargs):
            raise AssertionError("a sample was drawn before the configuration was checked")

        monkeypatch.setattr(condsurv.benchmark, "generate_sample", no_draw)
        err_path = tmp_path / "err.json"
        code = main([command, *self.BASE, *flags, "--out", str(tmp_path / "s"),
                     "--error-json", str(err_path)])
        record = json.loads(err_path.read_text())
        assert code == 2 and record["exit_code"] == 2
        assert record["message"].startswith(f"{field} must")
        assert not (tmp_path / "s").exists()


def test_memory_error_exits_3_with_the_record(tmp_path, monkeypatch):
    import condsurv.cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB for an array with shape (20000, 20000)")

    monkeypatch.setattr(condsurv.cli, "resample", out_of_memory)
    err_path = tmp_path / "err.json"
    code = main([
        "region", "--data", _model_csv(tmp_path), "--estimator", "beran", "--x0", "0.5", "--h", "0.2",
        "--B", "4", "--seed", "1", "--out", str(tmp_path / "r"), "--error-json", str(err_path),
    ])
    record = json.loads(err_path.read_text())
    assert code == 3
    assert record == {"error": "MemoryError", "exit_code": 3,
                      "message": "Unable to allocate 2.98 GiB for an array with shape (20000, 20000)"}


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="counts threads under /proc/self/task, and BLAS starts workers only on two or more cores")
@pytest.mark.parametrize("preset", [{}, {"OMP_NUM_THREADS": "2"}])
def test_console_main_starts_no_scipy_blas_worker(tmp_path, preset):
    # scipy's OpenBLAS loads with ndtri during a smoothed run; unless the user set a thread variable, the
    # process ends with the threads it had right after `import numpy`, and a set variable is left as given
    code = f"""
import os, sys
import numpy
threads = len(os.listdir("/proc/self/task"))
before = dict(os.environ)
from condsurv.cli import console_main
sys.argv = ["condsurv", "region", "--data", {_model_csv(tmp_path)!r}, "--estimator", "smoothed-beran",
            "--x0", "0.5", "--h", "0.3", "--g", "0.1", "--B", "4", "--seed", "3", "--n-grid", "8",
            "--out", {str(tmp_path / "out")!r}]
try:
    console_main()
except SystemExit as exc:
    added = {{k: v for k, v in os.environ.items() if before.get(k) != v}}
    print(exc.code, threads, len(os.listdir("/proc/self/task")), added)
"""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES} | preset
    proc = fresh_python(["-c", code], env=env)
    assert proc.returncode == 0, proc.stderr
    code, after_numpy, at_exit, added = proc.stdout.split(maxsplit=3)
    assert code == "0"
    if preset:
        assert added.strip() == "{}"
    else:
        assert at_exit == after_numpy
        assert added.strip() == "{'OPENBLAS_NUM_THREADS': '1'}"


LAZY_MODULES = ("scipy.special", "concurrent.futures.process")


def test_import_leaves_scipy_special_and_the_process_pool_unloaded():
    code = f"import sys, condsurv; print([m in sys.modules for m in {LAZY_MODULES!r}])"
    proc = fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"


def test_version_leaves_scipy_special_and_the_process_pool_unloaded():
    proc = fresh_python(["-X", "importtime", "-m", "condsurv", "--version"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("condsurv ")
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "condsurv.cli" in imported
    assert not imported & set(LAZY_MODULES)


def _loads_scipy_special(tmp_path, argv, preload=""):
    # the package, or the array-API backends its init loads
    modules = ["scipy.special", "scipy.special._support_alternative_backends"]
    code = f"import sys; {preload}from condsurv.cli import main; print(main({argv!r}), any(m in sys.modules for m in {modules!r}))"
    proc = fresh_python(["-c", code], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded = proc.stdout.split()
    assert exit_code == "0"
    return loaded == "True"


@pytest.mark.parametrize("command", [
    ["fit", "--estimator", "beran", "--x0", "0.5", "--h", "0.3"],
    ["select-bandwidth", "--estimator", "beran", "--x0", "0.5", "--B", "4", "--seed", "2",
     "--strategy", "grid", "--grid-size", "3"],
    ["region", "--method", "1", "--estimator", "beran", "--x0", "0.5", "--h", "0.3", "--B", "8", "--seed", "2"],
], ids=["fit", "select-bandwidth", "region"])
def test_beran_commands_leave_scipy_special_unloaded(tmp_path, command):
    argv = [command[0], "--data", _model_csv(tmp_path), *command[1:], "--n-grid", "8", "--out", str(tmp_path / "o")]
    assert not _loads_scipy_special(tmp_path, argv)


def test_beran_simulate_leaves_scipy_special_unloaded(tmp_path):
    argv = ["simulate", "--estimator", "beran", "--workers", "1", *TestSimulateCountsCheckedFirst.BASE,
            "--n-samples", "1", "--out", str(tmp_path / "s")]
    assert not _loads_scipy_special(tmp_path, argv)
    assert json.loads((tmp_path / "s" / "report.json").read_text())["samples_completed"] == 1


SMOOTHED_COMMANDS = {
    "fit": ["fit", "--x0", "0.5", "--h", "0.3", "--g", "0.2"],
    "select-bandwidth": ["select-bandwidth", "--x0", "0.5", "--B", "4", "--seed", "2",
                         "--strategy", "grid", "--grid-size", "3"],
    "region": ["region", "--method", "1", "--x0", "0.5", "--h", "0.3", "--g", "0.2", "--B", "8", "--seed", "2"],
}


def _smoothed_argv(tmp_path, name, out):
    command = SMOOTHED_COMMANDS[name]
    return [command[0], "--data", _model_csv(tmp_path), "--estimator", "smoothed-beran", *command[1:],
            "--n-grid", "8", "--out", str(tmp_path / out)]


@pytest.mark.parametrize("name", sorted(SMOOTHED_COMMANDS))
def test_smoothed_commands_leave_scipy_special_unloaded(tmp_path, name):
    assert not _loads_scipy_special(tmp_path, _smoothed_argv(tmp_path, name, "o"))


def test_smoothed_region_bytes_do_not_depend_on_how_the_ufuncs_load(tmp_path):
    # with scipy.special imported first the kernels take the public import
    assert not _loads_scipy_special(tmp_path, _smoothed_argv(tmp_path, "region", "loader"))
    assert _loads_scipy_special(tmp_path, _smoothed_argv(tmp_path, "region", "public"), "import scipy.special; ")
    outputs = {stem: sorted(tmp_path.glob(f"{stem}_*")) for stem in ("loader", "public")}
    assert [p.name.replace("loader", "public") for p in outputs["loader"]] == [p.name for p in outputs["public"]]
    assert outputs["loader"] and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(outputs["loader"], outputs["public"])
    )


@pytest.mark.parametrize("command", ["simulate", "bench"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_rejects_fewer_than_one_worker(tmp_path, monkeypatch, command, workers):
    import condsurv.benchmark

    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn before the configuration was checked")

    monkeypatch.setattr(condsurv.benchmark, "generate_sample", no_draw)
    err_path = tmp_path / "err.json"
    code = main([command, *TestSimulateCountsCheckedFirst.BASE, "--n-samples", "1", "--workers", workers,
                 "--out", str(tmp_path / "s"), "--error-json", str(err_path)])
    record = json.loads(err_path.read_text())
    assert code == 2 and record["exit_code"] == 2
    assert record["message"] == f"workers must be at least 1, got {int(workers)!r}"
    assert not (tmp_path / "s").exists()


RUN_RECORD = {"command", "estimator", "n", "censoring_fraction", "n_grid", "t_max", "filters", "version"}


def test_fit_selection_and_region_share_the_run_record(tmp_path):
    header, *rows = Path(_model_csv(tmp_path)).read_text().splitlines()
    data = tmp_path / "grouped.csv"
    data.write_text("\n".join([f"{header},group", *(f"{row},a" for row in rows)]) + "\n")
    common = ["--data", str(data), "--filter", "group=a", "--x0", "0.5", "--n-grid", "8", "--t-max", "1.5"]
    assert main(["fit", *common, "--h", "0.3", "--out", str(tmp_path / "fit")]) == 0
    assert main(["select-bandwidth", *common, "--strategy", "grid", "--grid-size", "3", "--B", "3",
                 "--seed", "1", "--out", str(tmp_path / "sel")]) == 0
    assert main(["region", *common, "--h", "0.3", "--B", "4", "--seed", "1", "--out", str(tmp_path / "reg")]) == 0
    records = {name: json.loads((tmp_path / f"{name}_x0p5.json").read_text()) for name in ("fit", "sel", "reg")}
    assert [records[name]["command"] for name in records] == ["fit", "select-bandwidth", "region"]
    for doc in records.values():
        assert RUN_RECORD <= doc.keys()
        assert {key: doc[key] for key in RUN_RECORD - {"command"}} == {
            key: records["fit"][key] for key in RUN_RECORD - {"command"}}
    assert records["fit"]["n"] == 60 and records["fit"]["n_grid"] == 8 and records["fit"]["t_max"] == 1.5
    assert records["fit"]["filters"] == [["group", ["a"]]]
    assert records["fit"]["seed"] is None
    assert {"strategy", "resampling"} <= records["sel"].keys()
    assert records["reg"]["B"] == 4 and "resampling" in records["reg"]


def test_readme_cli_lines_parse():
    from condsurv.cli import build_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("condsurv ")]
    assert len(lines) == 7
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


class TestBenchConfigFromFlags:
    RENAMED = {"bandwidth_h", "bandwidth_g", "budget_seconds"}
    FLAGS = ["--model", "model2", "--censoring", "0.5", "--mode", "regions", "--estimator", "smoothed-beran",
             "--n", "30", "--n-samples", "2", "--B", "7", "--n-grid", "9", "--seed", "5", "--strategy", "grid",
             "--grid-size", "4", "--alpha", "0.1", "--h", "0.2", "--g", "0.1", "--mise-samples", "3",
             "--mise-grid", "5", "--workers", "2", "--budget-minutes", "1.5"]

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    def test_each_field_has_a_same_named_flag(self, command):
        from dataclasses import fields

        from condsurv.benchmark import BenchConfig
        from condsurv.cli import build_parser

        commands = next(a for a in build_parser()._actions if a.dest == "command")
        dests = {a.dest for a in commands.choices[command]._actions}
        names = {f.name for f in fields(BenchConfig)} - self.RENAMED - {"methods", "keep_regions"}
        assert names <= dests

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    def test_flags_build_the_config(self, tmp_path, monkeypatch, command):
        from types import SimpleNamespace

        import condsurv.cli
        from condsurv.benchmark import BenchConfig

        captured = []
        monkeypatch.setattr(condsurv.cli, "run_benchmark",
                            lambda config: captured.append(config) or SimpleNamespace(incomplete=False))
        monkeypatch.setattr(condsurv.cli, "write_report", lambda report, out: None)
        assert main([command, *self.FLAGS, "--out", str(tmp_path / "s")]) == 0
        assert captured == [BenchConfig(
            model="model2", censoring=0.5, estimator="smoothed-beran", mode="regions", n=30, n_samples=2, B=7,
            n_grid=9, seed=5, strategy="grid", grid_size=4, alpha=0.1, bandwidth_h=0.2, bandwidth_g=0.1,
            mise_samples=3, mise_grid=5, workers=2, budget_seconds=90.0)]
