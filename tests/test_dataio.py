import numpy as np
import pytest
from numpy.testing import assert_allclose

from condsurv import DatasetSchema, LoadedDataset, SurvivalSample, filter_subpopulation, load_csv, save_csv
from condsurv.dataio import _write_csv
from condsurv.errors import DataValidationError, EmptyDatasetError, SchemaError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASIC = "x,z,delta\n52.0,10.0,1\n71.5,21.0,0\n33.0,6.5,1\n"


class TestLoad:
    def test_basic_three_rows(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC))
        assert ds.n == 3
        assert ds.sample.censoring_fraction == pytest.approx(1 / 3)
        assert_allclose(ds.sample.x, [52.0, 71.5, 33.0])
        assert_allclose(ds.sample.z, [10.0, 21.0, 6.5])
        assert_allclose(ds.sample.delta, [1.0, 0.0, 1.0])

    def test_missing_column(self, tmp_path):
        with pytest.raises(SchemaError):
            load_csv(write(tmp_path, "x,time,delta\n1,2,1\n"))

    def test_custom_schema_and_factors(self, tmp_path):
        text = "age,stay,event,sex\n40,3,1,male\n60,5,0,female\n70,8,1,female\n"
        schema = DatasetSchema("age", "stay", "event", filter_columns=("sex",))
        ds = load_csv(write(tmp_path, text), schema)
        assert ds.factors["sex"].tolist() == ["male", "female", "female"]
        assert_allclose(ds.sample.x, [40.0, 60.0, 70.0])

    def test_bad_status_rejected_with_line_number(self, tmp_path):
        text = "x,z,delta\n1,2,1\n3,4,2\n"
        with pytest.raises(DataValidationError) as err:
            load_csv(write(tmp_path, text))
        assert err.value.line_number == 3
        assert "3" in str(err.value)

    def test_unparsable_cell(self, tmp_path):
        with pytest.raises(DataValidationError) as err:
            load_csv(write(tmp_path, "x,z,delta\n1,abc,1\n"))
        assert err.value.line_number == 2

    def test_negative_and_nonfinite_times(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_csv(write(tmp_path, "x,z,delta\n1,-2,1\n"))
        with pytest.raises(DataValidationError):
            load_csv(write(tmp_path, "x,z,delta\n1,inf,1\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(DataValidationError) as err:
            load_csv(write(tmp_path, "x,z,delta\n1,2\n"))
        assert err.value.line_number == 2

    def test_empty_inputs(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_csv(write(tmp_path, ""))
        with pytest.raises(EmptyDatasetError):
            load_csv(write(tmp_path, "x,z,delta\n"))

    def test_blank_lines_skipped(self, tmp_path):
        ds = load_csv(write(tmp_path, "x,z,delta\n1,2,1\n\n3,4,0\n"))
        assert ds.n == 2

    @pytest.mark.parametrize("header, schema, repeated", [
        ("x,z,delta,z", DatasetSchema(), "['z']"),
        ("x,z,x,delta,delta", DatasetSchema(), "['x', 'delta']"),
        ("x,z,delta,site,site", DatasetSchema(filter_columns=("site",)), "['site']"),
    ])
    def test_a_read_column_given_twice_is_rejected(self, tmp_path, header, schema, repeated):
        row = ",".join(["1"] * len(header.split(",")))
        with pytest.raises(SchemaError) as err:
            load_csv(write(tmp_path, f"{header}\n{row}\n"), schema)
        assert f"columns {repeated} appear more than once" in str(err.value)

    def test_a_repeated_column_the_schema_does_not_read_loads(self, tmp_path):
        # the two blank headers a spreadsheet writes for empty trailing columns
        ds = load_csv(write(tmp_path, "x,z,delta,,\n1,2,1,,\n3,4,0,,\n"))
        assert_allclose(ds.sample.z, [2.0, 4.0])

    def test_schema_distinct_columns(self):
        with pytest.raises(SchemaError):
            DatasetSchema("x", "x", "delta")


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        # value ranges shaped like hospital stay data: times 1..105, ages 0..106
        rng = np.random.default_rng(0)
        n = 200
        sample = SurvivalSample(
            x=rng.uniform(0.0, 106.0, n),
            z=rng.uniform(1.0, 105.0, n),
            delta=(rng.random(n) < 0.9).astype(float),
        )
        factors = {"sex": np.array(["m", "f"] * (n // 2))}
        path = tmp_path / "ward.csv"
        save_csv(LoadedDataset(sample=sample, factors=factors), path)
        loaded = load_csv(path, DatasetSchema(filter_columns=("sex",)))
        assert_allclose(loaded.sample.x, sample.x, rtol=0, atol=0)
        assert_allclose(loaded.sample.z, sample.z, rtol=0, atol=0)
        assert_allclose(loaded.sample.delta, sample.delta, rtol=0, atol=0)
        path2 = tmp_path / "ward2.csv"
        save_csv(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_save_csv_golden_bytes(self, tmp_path):
        sample = SurvivalSample(x=[0.1, 0.25, 1e-20], z=[2.0, 1 / 3, 7.5], delta=[1, 0, 1])
        path = tmp_path / "golden.csv"
        save_csv(LoadedDataset(sample=sample, factors={"ward": np.array(["ICU", "général", "ICU"])}), path)
        assert path.read_bytes() == (
            b"x,z,delta,ward\r\n"
            b"0.10000000000000001,2,1,ICU\r\n"
            b"0.25,0.33333333333333331,0,g\xc3\xa9n\xc3\xa9ral\r\n"
            b"9.9999999999999995e-21,7.5,1,ICU\r\n"
        )

    def test_save_bare_sample(self, tmp_path):
        sample = SurvivalSample(x=[0.125], z=[3.0], delta=[1])
        path = tmp_path / "one.csv"
        save_csv(sample, path)
        assert load_csv(path).sample.x[0] == 0.125


class TestFilter:
    def _dataset(self, tmp_path):
        text = (
            "x,z,delta,sex,copd\n"
            "40,3,1,male,yes\n"
            "60,5,0,female,no\n"
            "70,8,1,female,yes\n"
            "52,2,1,male,no\n"
        )
        schema = DatasetSchema(filter_columns=("sex", "copd"))
        return load_csv(write(tmp_path, text), schema)

    def test_match_all_is_identity(self, tmp_path):
        ds = self._dataset(tmp_path)
        out = filter_subpopulation(ds, {"sex": {"male", "female"}})
        assert out.n == ds.n
        assert_allclose(out.sample.z, ds.sample.z)

    def test_match_none_raises(self, tmp_path):
        ds = self._dataset(tmp_path)
        with pytest.raises(EmptyDatasetError):
            filter_subpopulation(ds, {"sex": "other"})

    def test_complementary_predicates_partition(self, tmp_path):
        ds = self._dataset(tmp_path)
        men = filter_subpopulation(ds, {"sex": "male"})
        women = filter_subpopulation(ds, {"sex": "female"})
        assert men.n + women.n == ds.n

    def test_conjunction(self, tmp_path):
        ds = self._dataset(tmp_path)
        out = filter_subpopulation(ds, {"sex": "female", "copd": "yes"})
        assert out.n == 1
        assert out.sample.x[0] == 70.0

    def test_source_not_mutated(self, tmp_path):
        ds = self._dataset(tmp_path)
        before = ds.sample.x.copy()
        filter_subpopulation(ds, {"sex": "male"})
        assert_allclose(ds.sample.x, before)
        assert ds.n == 4

    def test_unknown_column(self, tmp_path):
        ds = self._dataset(tmp_path)
        with pytest.raises(SchemaError):
            filter_subpopulation(ds, {"ward": "icu"})


def test_write_csv_golden_bytes(tmp_path):
    # floats, numpy floats included, get 17 significant digits; other cells are written as given
    path = tmp_path / "table.csv"
    _write_csv(path, ["value", "label"], [(0.1, "ward"), (np.float64(1.0) / 3.0, 'icu, "step-down"')])
    assert path.read_bytes() == (
        b"value,label\r\n"
        b"0.10000000000000001,ward\r\n"
        b'0.33333333333333331,"icu, ""step-down"""\r\n'
    )
