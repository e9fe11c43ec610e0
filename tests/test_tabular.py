import dataclasses
import tracemalloc

import numpy as np
import pytest

from knewimp.imputer import mean_impute
from knewimp.tabular import (
    CsvFormatError,
    StandardizationStats,
    TabularDataset,
    from_complete,
    initialize_missing,
    load_csv,
    standardize,
    write_csv,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_parse_with_missing(self, tmp_path):
        ds = load_csv(write(tmp_path, "1.0,\n,2.0\n"))
        assert ds.values[0, 0] == 1.0 and ds.values[1, 1] == 2.0
        assert np.isnan(ds.values[0, 1]) and np.isnan(ds.values[1, 0])
        assert ds.mask.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_header_row(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b\n1,2\n"), has_header=True)
        assert ds.column_names == ["a", "b"]
        assert ds.values.tolist() == [[1.0, 2.0]]

    def test_unparsable_cell_names_row_and_column(self, tmp_path):
        with pytest.raises(CsvFormatError, match="row 1, column 2"):
            load_csv(write(tmp_path, "1.0,xy\n"))

    def test_cell_error_names_file(self, tmp_path):
        path = write(tmp_path, "a\n1\ninf\n")
        with pytest.raises(CsvFormatError, match=r"data\.csv: cell at row 2, column 1 is not finite"):
            load_csv(path, has_header=True)

    def test_header_width_mismatch_names_file(self, tmp_path):
        path = write(tmp_path, "a,b,c\n1,2,3,4\n")
        with pytest.raises(
            CsvFormatError, match=r"data\.csv: header has 3 cells, data rows have 4"
        ):
            load_csv(path, has_header=True)

    def test_nan_tokens_accepted(self, tmp_path):
        ds = load_csv(write(tmp_path, "NaN,nan\n1,2\n"))
        assert ds.mask[0].tolist() == [0.0, 0.0]

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(write(tmp_path, "1,2\n3\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(CsvFormatError):
            load_csv(write(tmp_path, ""))

    def test_infinite_cell_rejected(self, tmp_path):
        with pytest.raises(CsvFormatError, match="not finite"):
            load_csv(write(tmp_path, "inf,1\n"))

    def test_scientific_notation(self, tmp_path):
        ds = load_csv(write(tmp_path, "1e-3,2.5E+2\n"))
        assert ds.values.tolist() == [[1e-3, 250.0]]

    def test_no_data_rows_after_header(self, tmp_path):
        with pytest.raises(CsvFormatError, match=r"data\.csv: no data rows"):
            load_csv(write(tmp_path, "a,b\n"), has_header=True)

    @pytest.mark.parametrize("text, header, message", [
        ("a,b,c\n1,2\nx,1,1,1\n", True, "header has 3 cells, data rows have 2"),
        ("1,2\n3,x\n4\n", False, "cell at row 2, column 2 is not numeric"),
        ("1,2\n4\n3,x\n", False, "row 2 has 1 cells, expected 2"),
    ], ids=["header", "cell-before-width", "width-before-cell"])
    def test_first_failure_in_file_order_wins(self, tmp_path, text, header, message):
        with pytest.raises(CsvFormatError, match=message):
            load_csv(write(tmp_path, text), has_header=header)

    def test_trailing_empty_lines_skipped(self, tmp_path):
        ds = load_csv(write(tmp_path, "1,2\n3,4\n\n\n"))
        assert ds.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("text, header, row", [
        ("1,2\n\n3,4\n", False, 2),
        ("a,b\n1,2\n\n\n3,4\n", True, 2),
        ("\n1,2\n", False, 1),
    ], ids=["middle", "after-header", "first"])
    def test_empty_line_before_data_names_row(self, tmp_path, text, header, row):
        with pytest.raises(CsvFormatError, match=rf"data\.csv: row {row} is empty"):
            load_csv(write(tmp_path, text), has_header=header)

    @pytest.mark.parametrize("blank", [" ", "\t", "  \t "])
    def test_whitespace_line_is_an_empty_line(self, tmp_path, blank):
        ds = load_csv(write(tmp_path, f"1\n2\n{blank}\n"))
        assert ds.values.tolist() == [[1.0], [2.0]]
        with pytest.raises(CsvFormatError, match=r"data\.csv: row 2 is empty"):
            load_csv(write(tmp_path, f"1,2\n{blank}\n3,4\n"))

    def test_missing_cells_are_rows(self, tmp_path):
        # A line with a comma, or a quoted empty cell, is a row of missing
        # cells, as write_csv writes one.
        ds = load_csv(write(tmp_path, "1,2\n , \n3,4\n"))
        assert ds.mask.tolist() == [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]
        out = str(tmp_path / "out.csv")
        write_csv(out, np.array([[1.0], [np.nan], [2.0]]))
        assert load_csv(out).mask.tolist() == [[1.0], [0.0], [1.0]]

    def test_only_empty_lines_is_no_data(self, tmp_path):
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(write(tmp_path, "a,b\n\n"), has_header=True)

    def test_utf8_bom_dropped(self, tmp_path):
        ds = load_csv(write(tmp_path, "\ufeff1,2\n3,4\n"))
        assert ds.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_utf8_bom_dropped_from_header(self, tmp_path):
        ds = load_csv(write(tmp_path, "\ufeffa,b\n1,2\n"), has_header=True)
        assert ds.column_names == ["a", "b"]
        out = str(tmp_path / "out.csv")
        write_csv(out, ds.values, ds.column_names)
        assert open(out, encoding="utf-8").read() == "a,b\n1.0,2.0\n"

    def test_traced_peak_within_twice_the_output(self, tmp_path):
        # Rows are parsed as they stream: no list of the file's 55 000 cell
        # strings is held, so the peak stays within twice the values and
        # mask that load_csv returns.
        path = str(tmp_path / "big.csv")
        write_csv(path, np.random.default_rng(3).standard_normal((5000, 11)))
        tracemalloc.start()
        try:
            ds = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = ds.values.nbytes + ds.mask.nbytes
        assert peak <= 2 * output, (peak, output)


class TestCsvRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((20, 4))
        values[rng.random((20, 4)) < 0.3] = np.nan
        if np.isnan(values).all(axis=0).any():  # keep every column observed
            values[0] = 1.0
        path = str(tmp_path / "rt.csv")
        write_csv(path, values, column_names=list("abcd"))
        ds = load_csv(path, has_header=True)
        assert np.array_equal(ds.values, values, equal_nan=True)
        assert ds.column_names == list("abcd")


class TestDatasetInvariants:
    def test_mask_is_derived_from_empty_cells(self):
        values = np.array([[1.0, np.nan], [np.nan, 4.0], [5.0, 6.0]])
        ds = TabularDataset(values=values, truth=np.arange(6.0).reshape(3, 2))
        assert np.array_equal(ds.mask, (~np.isnan(values)).astype(np.float64))
        assert ds.mask.dtype == np.float64
        bare = dataclasses.replace(ds, truth=None)
        assert bare.truth is None
        assert np.array_equal(bare.mask, ds.mask)

    def test_mask_is_not_an_argument(self):
        with pytest.raises(TypeError):
            TabularDataset(values=np.array([[1.0]]), mask=np.array([[1.0]]))

    def test_mask_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            from_complete(np.array([[1.0, 2.0]]), np.array([[0.5, 1.0]]))

    def test_from_complete_rejects_mis_shaped_mask(self):
        with pytest.raises(ValueError, match="mask shape"):
            from_complete(np.array([[1.0, 2.0]]), np.array([[1.0, 0.0, 1.0]]))

    def test_truth_must_be_complete(self):
        with pytest.raises(ValueError, match="truth"):
            TabularDataset(values=np.array([[1.0]]), truth=np.array([[np.nan]]))

    def test_from_complete(self):
        truth = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[1.0, 0.0], [0.0, 1.0]])
        ds = from_complete(truth, mask)
        assert np.isnan(ds.values[0, 1]) and ds.values[0, 0] == 1.0
        assert np.array_equal(ds.truth, truth)


class TestStandardize:
    def test_two_point_column(self):
        ds = from_complete(
            np.array([[1.0], [3.0]]), np.array([[1.0], [1.0]])
        )
        out, stats = standardize(ds)
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.std[0] == pytest.approx(np.sqrt(2.0))  # ddof=1
        assert out.values[:, 0] == pytest.approx(
            [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]
        )

    def test_constant_column_clamped(self):
        ds = from_complete(np.full((3, 1), 5.0), np.ones((3, 1)))
        out, stats = standardize(ds)
        assert stats.std[0] == 1e-12
        assert np.all(out.values == 0.0)

    def test_missing_entries_untouched(self):
        ds = from_complete(
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            np.array([[1.0, 0.0], [1.0, 1.0]]),
        )
        out, _ = standardize(ds)
        assert np.isnan(out.values[0, 1])
        assert out.mask.tolist() == ds.mask.tolist()

    def test_round_trip_relative_error(self):
        rng = np.random.default_rng(2)
        truth = rng.standard_normal((30, 5)) * 7.0 + 3.0
        mask = (rng.random((30, 5)) > 0.3).astype(float)
        mask[0] = 1.0
        ds = from_complete(truth, mask)
        out, stats = standardize(ds)
        back = stats.invert(out.values)
        obs = ds.mask == 1.0
        rel = np.abs(back[obs] - ds.values[obs]) / np.maximum(
            np.abs(ds.values[obs]), 1.0
        )
        assert rel.max() < 1e-12

    def test_identity_stats(self):
        stats = StandardizationStats(mean=np.zeros(2), std=np.ones(2))
        x = np.array([[3.0, -4.0]])
        assert np.array_equal(stats.invert(x), x)
        assert stats.invert(np.array([[-1.0, 0.0]]))[0, 0] == -1.0

    def test_invert_example(self):
        stats = StandardizationStats(mean=np.array([2.0]), std=np.array([1.0]))
        assert stats.invert(np.array([[-1.0]]))[0, 0] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        stats = StandardizationStats(mean=np.zeros(2), std=np.ones(2))
        with pytest.raises(ValueError):
            stats.invert(np.zeros((1, 3)))

    def test_fully_missing_column_rejected(self):
        values = np.array([[1.0, np.nan], [2.0, np.nan]])
        ds = TabularDataset(values=values)
        with pytest.raises(ValueError, match="no observed entries"):
            standardize(ds)

    def test_truth_transformed_with_same_stats(self):
        truth = np.array([[0.0, 10.0], [2.0, 30.0], [4.0, 20.0]])
        mask = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        out, stats = standardize(from_complete(truth, mask))
        assert np.allclose(out.truth, stats.apply(truth), equal_nan=True)


class TestInitializeMissing:
    def make(self):
        return TabularDataset(values=np.array([[1.0, 10.0], [3.0, np.nan], [np.nan, 30.0]]))

    def test_zero_noise_gives_column_means(self):
        # Once the seed's N(0, 0.1^2) jitter is taken off, every missing
        # cell sits exactly on its observed column mean.
        ds = self.make()
        x = initialize_missing(ds, seed=0)
        jitter = 0.1 * np.random.default_rng(0).standard_normal(ds.values.shape)
        assert x[2, 0] - jitter[2, 0] == pytest.approx(2.0)   # mean of {1, 3}
        assert x[1, 1] - jitter[1, 1] == pytest.approx(20.0)  # mean of {10, 30}

    def test_observed_copied_verbatim(self):
        ds = self.make()
        x = initialize_missing(ds, seed=3)
        obs = ds.mask == 1.0
        assert np.array_equal(x[obs], ds.values[obs])

    def test_deterministic(self):
        ds = self.make()
        a = initialize_missing(ds, seed=42)
        b = initialize_missing(ds, seed=42)
        assert np.array_equal(a, b)
        c = initialize_missing(ds, seed=43)
        assert not np.array_equal(a, c)

    def test_noise_scale_monte_carlo(self):
        # With ~10^4 missing cells the jitter must be centred on the column
        # means (5 standard errors) with a sample std tightly around 0.1.
        rng = np.random.default_rng(8)
        n, d = 5000, 4
        truth = rng.standard_normal((n, d))
        mask = (rng.random((n, d)) > 0.5).astype(float)
        mask[0] = 1.0
        ds = from_complete(truth, mask)
        x = initialize_missing(ds, seed=77)
        means = np.nanmean(ds.values, axis=0)
        jitter = (x - means)[ds.mask == 0.0]
        assert jitter.size > 9000
        assert abs(jitter.mean()) <= 0.005
        assert 0.09 <= jitter.std() <= 0.11

    @pytest.mark.parametrize(
        "bad", [2.5, 3.0, True, -1], ids=["fraction", "whole-float", "bool", "negative"]
    )
    def test_bad_seed_names_the_field(self, bad):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            initialize_missing(self.make(), seed=bad)

    def test_numpy_integer_seed_accepted(self):
        ds = self.make()
        assert np.array_equal(initialize_missing(ds, seed=np.uint32(4)),
                              initialize_missing(ds, seed=4))

    def test_fully_missing_column_rejected(self):
        values = np.array([[np.nan, 1.0]])
        ds = TabularDataset(values=values)
        with pytest.raises(ValueError, match="no observed entries"):
            initialize_missing(ds, seed=0)


@pytest.mark.parametrize(
    "fill",
    (standardize, lambda ds: initialize_missing(ds, seed=0), mean_impute),
    ids=("standardize", "initialize_missing", "mean_impute"),
)
def test_empty_column_is_named(fill):
    values = np.array([[1.0, np.nan, 2.0], [3.0, np.nan, np.nan]])
    ds = TabularDataset(values=values)
    with pytest.raises(ValueError, match="column 1 has no observed entries"):
        fill(ds)
