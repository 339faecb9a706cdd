import csv
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frscn import (
    CsvParseError,
    NormalizationStats,
    SchemaError,
    TimeSeriesDataset,
    add_gaussian_noise,
    fit_normalization,
    generate_plant_sequence,
    load_csv,
    plant_response,
)
from frscn.dataset import benchmark_test_input, write_series_csv
from frscn.errors import ConfigError


class TestPlantResponse:
    def test_initial_conditions(self):
        # y(1..4) = 0, 0, 0, 0.1 regardless of input
        for mode, n in (("train-random", 50), ("paper-test", 1000)):
            ds = generate_plant_sequence(n, mode=mode, seed=3, washout=5)
            assert ds.inputs[0, :4] == pytest.approx([0.0, 0.0, 0.0, 0.1], abs=0)

    def test_zero_input_hand_recursion(self):
        # with u == 0 the plant reduces to y(n+1) = 0.72 y(n)
        y = plant_response(np.zeros(10))
        assert y[4] == pytest.approx(0.72 * 0.1, abs=0)  # y(5) = 0.072
        for m in range(5, 11):
            assert y[m] == pytest.approx(0.72 * y[m - 1], abs=0)

    def test_hand_recursion_general_input(self):
        # independent hand evaluation of the full recursion on a short input
        u = np.array([0.5, -0.3, 0.8, 0.2, -0.6, 0.1])
        y = plant_response(u)
        expect = [0.0, 0.0, 0.0, 0.1]
        for m in range(4, 7):
            expect.append(
                0.72 * expect[m - 1]
                + 0.025 * expect[m - 2] * u[m - 2]
                + 0.01 * u[m - 3] ** 2
                + 0.2 * u[m - 4]
            )
        assert y.tolist() == pytest.approx(expect, abs=0)

    def test_target_regeneration_is_exact(self):
        ds = generate_plant_sequence(500, mode="train-random", seed=11, washout=10)
        y = plant_response(ds.inputs[1])
        assert np.array_equal(y[1:501], ds.targets[0])
        assert np.array_equal(y[:500], ds.inputs[0])


class TestBenchmarkInput:
    def test_pinned_values(self):
        u = benchmark_test_input(1000)
        assert u[99] == pytest.approx(math.sin(100 * math.pi / 25), abs=1e-12)  # ~0
        assert abs(u[99]) < 1e-12
        assert u[299] == 1.0
        assert u[599] == -1.0

    def test_segment_boundaries(self):
        u = benchmark_test_input(1000)
        assert u[248] == pytest.approx(math.sin(249 * math.pi / 25), abs=1e-12)
        assert u[249] == 1.0 and u[498] == 1.0
        assert u[499] == -1.0 and u[748] == -1.0
        n = 750.0
        fourth = (
            0.6 * math.cos(math.pi * n / 10)
            + 0.1 * math.cos(math.pi * n / 32)
            + 0.3 * math.sin(math.pi * n / 25)
        )
        assert u[749] == pytest.approx(fourth, abs=1e-12)

    def test_requires_1000_samples(self):
        with pytest.raises(ValueError):
            generate_plant_sequence(999, mode="paper-test")
        with pytest.raises(ValueError):
            benchmark_test_input(500)


class TestGeneratePlantSequence:
    def test_deterministic_per_seed(self):
        a = generate_plant_sequence(200, seed=5)
        b = generate_plant_sequence(200, seed=5)
        c = generate_plant_sequence(200, seed=6)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            generate_plant_sequence(4)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            generate_plant_sequence(100, mode="bogus")

    def test_shapes_and_washout(self):
        ds = generate_plant_sequence(300, seed=0, washout=100)
        assert ds.inputs.shape == (2, 300)
        assert ds.targets.shape == (1, 300)
        assert ds.washout == 100


class TestDatasetInvariants:
    def test_sample_count_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeriesDataset(np.zeros((2, 5)), np.zeros((1, 4)))

    def test_washout_bounds(self):
        with pytest.raises(ValueError):
            TimeSeriesDataset(np.zeros((1, 5)), np.zeros((1, 5)), washout=5)
        with pytest.raises(ValueError):
            TimeSeriesDataset(np.zeros((1, 5)), np.zeros((1, 5)), washout=-1)

    def test_non_finite_rejected(self):
        bad = np.zeros((1, 5))
        bad[0, 2] = np.nan
        with pytest.raises(ValueError):
            TimeSeriesDataset(bad, np.zeros((1, 5)))
        with pytest.raises(ValueError):
            TimeSeriesDataset(np.zeros((1, 5)), bad)


class TestGaussianNoise:
    def test_zero_sigma_identity(self):
        ds = generate_plant_sequence(100, seed=1, washout=0)
        noisy = add_gaussian_noise(ds, 0.0, seed=9)
        assert np.array_equal(noisy.targets, ds.targets)
        assert np.array_equal(noisy.inputs, ds.inputs)

    def test_deterministic(self):
        ds = generate_plant_sequence(100, seed=1, washout=0)
        a = add_gaussian_noise(ds, 0.1, seed=4)
        b = add_gaussian_noise(ds, 0.1, seed=4)
        assert np.array_equal(a.targets, b.targets)

    def test_negative_sigma(self):
        ds = generate_plant_sequence(100, seed=1, washout=0)
        with pytest.raises(ValueError):
            add_gaussian_noise(ds, -0.1)

    def test_noise_mean_law_of_large_numbers(self):
        n = 100_000
        ds = TimeSeriesDataset(np.zeros((1, n)), np.zeros((1, n)))
        sigma = 0.5
        noisy = add_gaussian_noise(ds, sigma, seed=123)
        mean = (noisy.targets - ds.targets).mean()
        assert abs(mean) < 3 * sigma / math.sqrt(n)

    def test_inputs_untouched(self):
        ds = generate_plant_sequence(100, seed=1, washout=0)
        noisy = add_gaussian_noise(ds, 1.0, seed=4)
        assert np.array_equal(noisy.inputs, ds.inputs)
        assert not np.array_equal(noisy.targets, ds.targets)


class TestLoadCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_lag_shift(self, tmp_path):
        path = self.write(tmp_path, "y,u\n1.0,10.0\n2.0,20.0\n3.0,30.0\n")
        ds = load_csv(path, ["y", "u"], ["y"], washout=0, shifts=(("y", 1),))
        assert ds.n_samples == 2
        # rows 2..3 survive; the shifted input is the previous row's y
        assert ds.inputs[0].tolist() == [2.0, 3.0]
        assert ds.inputs[2].tolist() == [1.0, 2.0]
        assert ds.targets[0].tolist() == [2.0, 3.0]

    def test_missing_column_named(self, tmp_path):
        path = self.write(tmp_path, "y,u\n1,2\n3,4\n5,6\n")
        with pytest.raises(SchemaError, match="u1"):
            load_csv(path, ["u1"], ["y"])

    def test_repeated_column_it_reads_is_named(self, tmp_path):
        # {name: index} would keep the last copy and read the fourth column as y
        path = self.write(tmp_path, "y,u,y_next,y\n1,2,3,4\n5,6,7,8\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: column 'y' appears 2 times")):
            load_csv(path, ["y", "u"], ["y_next"])
        # a repeat among columns the load does not read still loads
        ds = load_csv(path, ["u"], ["y_next"])
        assert ds.inputs.tolist() == [[2.0, 6.0]] and ds.targets.tolist() == [[3.0, 7.0]]

    def test_parse_error_locates_cell(self, tmp_path):
        path = self.write(tmp_path, "y,u\n1,2\n3,oops\n5,6\n")
        with pytest.raises(CsvParseError, match="row 3.*'u'"):
            load_csv(path, ["y", "u"], ["y"])

    def test_parse_error_names_file_line_past_blank_rows(self, tmp_path):
        path = self.write(tmp_path, "y,u,y_next\n1,2,3\n\n\n1,abc,3\n4,5,6\n")
        with pytest.raises(CsvParseError, match="row 5, column 'u': cannot parse 'abc'"):
            load_csv(path, ["y", "u"], ["y_next"])

    def test_too_few_rows(self, tmp_path):
        path = self.write(tmp_path, "y,u\n1,2\n3,4\n")
        with pytest.raises(ConfigError, match="washout 2 out of range for 2 samples"):
            load_csv(path, ["y"], ["y"], washout=2)

    def test_shift_longer_than_the_file_names_it(self, tmp_path):
        path = self.write(tmp_path, "y,u\n1,2\n3,4\n")
        assert load_csv(path, ["y"], ["u"], shifts=(("y", 1),)).n_samples == 1
        with pytest.raises(ValueError, match=re.escape(f"{path}: needs more than 2 data rows")):
            load_csv(path, ["y"], ["u"], shifts=(("y", 2),))

    def test_industrial_split_protocol(self, tmp_path):
        # 2394 rows; the first 1500 become the training set by slicing
        rows = "\n".join(f"{i / 2394},{(i * 7 % 100) / 100}" for i in range(2394))
        path = self.write(tmp_path, "y,u\n" + rows + "\n")
        full = load_csv(path, ["u"], ["y"], washout=0, shifts=(("y", 1),))
        assert full.n_samples == 2393
        train = TimeSeriesDataset(full.inputs[:, :1500], full.targets[:, :1500], washout=100)
        assert train.n_samples == 1500

    def test_round_trip_precision(self, tmp_path):
        vals = np.random.default_rng(0).uniform(-1, 1, 20)
        text = "x\n" + "\n".join(repr(float(v)) for v in vals) + "\n"
        path = self.write(tmp_path, text)
        ds = load_csv(path, ["x"], ["x"])
        assert np.array_equal(ds.inputs[0], vals)


def _parses(cell) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


class TestLoadCsvProperties:
    CELLS = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["", " ", "x", "1e", "--1", "0x10", "nan", "inf", " 2.5 "]),
    )

    @settings(max_examples=80, deadline=None)
    @given(good=st.lists(st.lists(st.floats(-1e6, 1e6).map(repr), min_size=3, max_size=3)
                         .map(",".join), max_size=8),
           planted=st.lists(st.tuples(st.integers(0, 8),
                                      st.one_of(st.lists(CELLS, max_size=4).map(",".join),
                                                st.sampled_from(["", "  "]))), max_size=3),
           washout=st.integers(0, 3))
    def test_malformed_files_fail_typed_and_name_the_line(self, good, planted, washout):
        lines = list(good)
        for at, line in planted:  # bad cells, short or long rows, blank lines
            lines.insert(at, line)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_text("a,b,c\n" + "\n".join(lines) + "\n")
            try:
                ds = load_csv(path, ["a", "b"], ["c"], washout=washout)
            except CsvParseError as exc:
                line, col = re.search(r"row (\d+), column '(\w)'", str(exc)).groups()
                cells = (["a,b,c"] + lines)[int(line) - 1].split(",")
                idx = "abc".index(col)
                assert idx >= len(cells) or not _parses(cells[idx])
                return
            except (SchemaError, ValueError):
                return
        rows = [ln.split(",") for ln in lines if ln.strip(" ,")]
        assert ds.n_samples == len(rows)
        assert ds.inputs.tolist() == [[float(r[0]) for r in rows], [float(r[1]) for r in rows]]


class TestWriteSeriesCsv:
    @settings(max_examples=40, deadline=None)
    @given(columns=st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(st.floats(), min_size=n, max_size=n), min_size=1, max_size=3)))
    def test_bytes_are_a_row_by_row_csv_writer(self, columns):
        columns = [list(range(1, len(columns[0]) + 1))] + columns
        header = ["n"] + [f"y{i}" for i in range(len(columns) - 1)]
        want = io.StringIO(newline="")
        csv.writer(want).writerow(header)
        want.writelines(",".join(map(repr, row)) + "\r\n" for row in zip(*columns))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.csv"
            write_series_csv(path, header, columns)
            assert path.read_bytes() == want.getvalue().encode()
            values = np.array(columns[1:])
            if values.shape[1] >= 2 and np.isfinite(values).all():  # a loadable dataset
                assert np.array_equal(load_csv(path, header[1:], header[1:]).inputs, values)

    @pytest.mark.parametrize("n_rows", [1023, 1024, 1025, 5000])
    def test_rows_written_in_blocks_are_a_row_by_row_csv_writer(self, tmp_path, n_rows):
        values = np.random.default_rng(n_rows).normal(size=n_rows).tolist()
        columns = [list(range(n_rows)), values]
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["n", "y"])
        writer.writerows(zip(*columns))
        write_series_csv(tmp_path / "out.csv", ["n", "y"], columns)
        assert (tmp_path / "out.csv").read_bytes() == want.getvalue().encode()


class TestNormalization:
    def test_affine_endpoints(self):
        ds = TimeSeriesDataset(np.array([[0.0, 10.0]]), np.array([[0.0, 10.0]]))
        stats = fit_normalization(ds)
        out = stats.apply_inputs(ds.inputs)
        assert out[0].tolist() == [-1.0, 1.0]

    def test_constant_dimension_maps_to_zero(self):
        ds = TimeSeriesDataset(np.array([[5.0, 5.0, 5.0]]), np.array([[1.0, 2.0, 3.0]]))
        stats = fit_normalization(ds)
        assert stats.apply_inputs(ds.inputs)[0].tolist() == [0.0, 0.0, 0.0]
        back = stats.invert_inputs(np.zeros((1, 3)))
        assert back[0].tolist() == [5.0, 5.0, 5.0]

    def test_round_trip_identity(self):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(3, 50)) * [[10.0], [0.1], [1000.0]]
        targets = rng.normal(size=(2, 50))
        ds = TimeSeriesDataset(inputs, targets)
        stats = fit_normalization(ds)
        back_in = stats.invert_inputs(stats.apply_inputs(inputs))
        back_t = stats.invert_targets(stats.apply_targets(targets))
        assert np.abs((back_in - inputs) / np.maximum(np.abs(inputs), 1e-30)).max() < 1e-12
        assert np.abs((back_t - targets) / np.maximum(np.abs(targets), 1e-30)).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 4), l_dims=st.integers(1, 4), n=st.integers(1, 20))
    def test_round_trip_with_constant_dimensions(self, data, k, l_dims, n):
        def bounds(dims):
            lo = data.draw(arrays(float, dims, elements=st.floats(-1e6, 1e6)))
            # a zero span is a constant dimension
            span = data.draw(arrays(float, dims, elements=st.one_of(
                st.just(0.0), st.floats(1e-3, 1e6))))
            return lo, lo + span

        in_lo, in_hi = bounds(k)
        t_lo, t_hi = bounds(l_dims)
        stats = NormalizationStats(in_lo, in_hi, t_lo, t_hi)
        for apply, invert, lo, hi in (
            (stats.apply_inputs, stats.invert_inputs, in_lo, in_hi),
            (stats.apply_targets, stats.invert_targets, t_lo, t_hi),
        ):
            # samples up to ten spans beyond either end of the range
            frac = data.draw(arrays(float, (lo.size, n), elements=st.floats(-10, 11)))
            x = lo[:, None] + frac * (hi - lo)[:, None]
            forward = apply(x)
            back = invert(forward)
            const = hi == lo
            scale = np.maximum(np.abs(x), np.maximum(np.abs(lo), np.abs(hi))[:, None])
            assert np.all(np.abs(back - x)[~const] <= 1e-12 * scale[~const])
            assert np.all(forward[const] == 0.0)
            assert np.all(back[const] == np.broadcast_to(lo[:, None], x.shape)[const])
            assert np.all(invert(np.ones_like(x))[const] == np.broadcast_to(lo[:, None], x.shape)[const])

    def test_disabled_stats_are_identity(self):
        ds = generate_plant_sequence(50, seed=0, washout=0)
        stats = fit_normalization(ds, enabled=False)
        assert np.array_equal(stats.apply_inputs(ds.inputs), ds.inputs)
        assert stats.apply(ds) is ds

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "method, rows, expected",
        [
            ("apply_inputs", 1, 2),
            ("invert_inputs", 3, 2),
            ("apply_targets", 1, 3),
            ("invert_targets", 2, 3),
        ],
    )
    def test_wrong_row_count_raises(self, method, rows, expected, enabled):
        # 2 input dimensions, 3 target dimensions: a mismatched array must not
        # broadcast against the per-dimension bounds
        rng = np.random.default_rng(5)
        stats = fit_normalization(TimeSeriesDataset(rng.normal(size=(2, 20)), rng.normal(size=(3, 20))),
                                  enabled=enabled)
        with pytest.raises(ValueError, match=f"have {rows} rows; the normalization stats have {expected}"):
            getattr(stats, method)(np.full((rows, 4), 0.5))
        assert getattr(stats, method)(np.full((expected, 4), 0.5)).shape == (expected, 4)
