"""Time-series datasets: synthetic plant generation, CSV ingestion, normalization.

A dataset holds aligned input/target sequences as column-per-sample matrices,
plus a washout count. The first ``washout`` samples are used only to warm up
reservoir states and never enter any fit or metric.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .errors import ConfigError, CsvParseError, SchemaError


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Aligned input/target sequences.

    inputs:  K x n_max, one column per time step.
    targets: L x n_max, one column per time step.
    washout: leading samples excluded from fitting and metrics.
    """

    inputs: np.ndarray
    targets: np.ndarray
    washout: int = 0

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        if inputs.shape[1] != targets.shape[1]:
            raise ValueError(
                f"inputs have {inputs.shape[1]} samples but targets have {targets.shape[1]}"
            )
        if inputs.shape[1] < 1:
            raise ValueError("dataset needs at least one sample")
        if not (0 <= self.washout < inputs.shape[1]):
            raise ConfigError(f"washout {self.washout} out of range for {inputs.shape[1]} samples")
        if not np.isfinite(inputs).all() or not np.isfinite(targets).all():
            raise ValueError("dataset contains non-finite values")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.targets.shape[0]


def plant_response(u: np.ndarray) -> np.ndarray:
    """Drive the benchmark plant with input sequence u(1..n); return y(1..n+1).

    The plant is the fourth-order recursion
        y(n+1) = 0.72 y(n) + 0.025 y(n-1) u(n-1) + 0.01 u^2(n-2) + 0.2 u(n-3)
    with y(1) = y(2) = y(3) = 0 and y(4) = 0.1.
    """
    u = np.asarray(u, dtype=float).ravel()
    n = u.size
    if n < 4:
        raise ValueError("plant needs at least 4 input samples")
    y = np.zeros(n + 1)
    y[3] = 0.1
    # 0-based: y[m] is y(m+1), u[j] is u(j+1)
    for m in range(4, n + 1):
        y[m] = (
            0.72 * y[m - 1]
            + 0.025 * y[m - 2] * u[m - 2]
            + 0.01 * u[m - 3] ** 2
            + 0.2 * u[m - 4]
        )
    return y


def benchmark_test_input(n_samples: int = 1000) -> np.ndarray:
    """The four-segment deterministic test input over time steps 1..1000."""
    if n_samples != 1000:
        raise ValueError("the benchmark test input is defined for exactly 1000 samples")
    n = np.arange(1, n_samples + 1, dtype=float)
    u = np.empty(n_samples)
    seg1 = n < 250
    seg2 = (n >= 250) & (n < 500)
    seg3 = (n >= 500) & (n < 750)
    seg4 = n >= 750
    u[seg1] = np.sin(np.pi * n[seg1] / 25.0)
    u[seg2] = 1.0
    u[seg3] = -1.0
    u[seg4] = (
        0.6 * np.cos(np.pi * n[seg4] / 10.0)
        + 0.1 * np.cos(np.pi * n[seg4] / 32.0)
        + 0.3 * np.sin(np.pi * n[seg4] / 25.0)
    )
    return u


def generate_plant_sequence(
    n_samples: int,
    mode: str = "train-random",
    seed: int = 0,
    washout: int = 100,
) -> TimeSeriesDataset:
    """Generate the synthetic identification benchmark.

    mode "train-random" draws u(n) uniformly from [-1, 1] under the seed;
    mode "paper-test" uses the deterministic four-segment input and requires
    n_samples == 1000. Each sample's input is [y(n), u(n)] and its target is
    y(n+1): the model sees only the current output and input, and the
    reservoir has to supply the plant's memory.
    """
    if n_samples < 5:
        raise ValueError("n_samples must be at least 5")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    if mode == "train-random":
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.0, 1.0, n_samples)
    elif mode == "paper-test":
        u = benchmark_test_input(n_samples)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    y = plant_response(u)
    inputs = np.vstack([y[:n_samples], u])
    targets = y[1 : n_samples + 1][None, :]
    return TimeSeriesDataset(inputs=inputs, targets=targets, washout=washout)


def add_gaussian_noise(ds: TimeSeriesDataset, sigma: float, seed: int = 0) -> TimeSeriesDataset:
    """Perturb targets with i.i.d. zero-mean Gaussian noise; inputs unchanged."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    rng = np.random.default_rng(seed)
    noisy = ds.targets + rng.normal(0.0, sigma, ds.targets.shape)
    return replace(ds, targets=noisy)


def load_csv(
    path,
    input_columns: list[str],
    target_columns: list[str],
    washout: int = 0,
    shifts: tuple = (),
) -> TimeSeriesDataset:
    """Load a time series from a headered CSV, one row per time step.

    ``shifts`` is a sequence of (column, lag) pairs; each appends the column
    delayed by ``lag`` rows as an extra input dimension, and the first
    max-lag rows are dropped so every sample has all its lagged values.
    Lagged-regressor construction is the caller's responsibility; nothing is
    inferred from the data. A column the load reads must appear in the header
    exactly once (SchemaError otherwise). Blank rows are ignored; a cell that
    does not parse raises CsvParseError naming its line in the file (the
    header is row 1).
    The washout is checked by TimeSeriesDataset, as for every dataset.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if "".join(row).strip()]

    col_index = {h: i for i, h in enumerate(header)}
    needed = list(input_columns) + list(target_columns) + [c for c, _ in shifts]
    for col in needed:
        if col not in col_index:
            raise SchemaError(f"{path}: column {col!r} not found in header {header}")
        if header.count(col) > 1:  # col_index holds only its last copy
            raise SchemaError(f"{path}: column {col!r} appears {header.count(col)} times in header")

    def parse_column(col: str) -> np.ndarray:
        idx = col_index[col]
        try:
            return np.array([float(row[idx]) for row in rows])
        except (ValueError, IndexError):
            for r, row in enumerate(rows):  # find the cell that failed, for the message
                try:
                    float(row[idx])
                except (ValueError, IndexError):
                    cell = row[idx] if idx < len(row) else "<missing>"
                    raise CsvParseError(f"{path}: row {_file_line(path, r)}, column {col!r}: "
                                        f"cannot parse {cell!r}") from None

    columns = {col: parse_column(col) for col in set(needed)}
    if any(lag < 1 for _, lag in shifts):
        raise ValueError("shift lags must be >= 1")
    max_lag = max((lag for _, lag in shifts), default=0)
    n_rows = len(rows)
    if n_rows <= max_lag:
        raise ValueError(f"{path}: needs more than {max_lag} data rows, has {n_rows}")

    input_rows = [columns[c][max_lag:] for c in input_columns]
    input_rows += [columns[c][max_lag - lag : n_rows - lag] for c, lag in shifts]
    target_rows = [columns[c][max_lag:] for c in target_columns]
    return TimeSeriesDataset(
        inputs=np.vstack(input_rows),
        targets=np.vstack(target_rows),
        washout=washout,
    )


def write_series_csv(path, header: list, columns: list):
    """A header row, then one row per position of the columns, which hold
    Python ints and floats (e.g. from ndarray.tolist()); floats are written at
    full precision by repr, with the csv module's CRLF line ends. Rows are
    formatted and written in blocks, so the text held at once does not grow
    with the row count."""
    lines = map(",".join, zip(*[map(repr, c) for c in columns]))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        while block := list(islice(lines, 1024)):
            fh.write("\r\n".join(block) + "\r\n")


class AffineMap:
    """Per-dimension affine map of rows onto [-1, 1], from each row's [lo, hi].

    The constants are computed once. Constant dimensions (hi == lo) map to 0
    and invert back to lo; when there are none, no masking is done at all.
    """

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)[:, None]
        self.span = np.asarray(hi, dtype=float)[:, None] - self.lo
        self.constant = ~(self.span > 0)
        self.safe = np.where(self.constant, 1.0, self.span)
        self.all_varying = not self.constant.any()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """2 (x - lo) / span - 1 per row of x."""
        # a finite x far outside [lo, hi] overflows to inf; callers that need a
        # finite result check for it
        with np.errstate(over="ignore"):
            out = 2.0 * (x - self.lo) / self.safe - 1.0
        return out if self.all_varying else np.where(self.constant, 0.0, out)

    def backward(self, x: np.ndarray) -> np.ndarray:
        """(x + 1) span / 2 + lo per row of x: the inverse of forward."""
        out = (x + 1.0) * self.span / 2.0 + self.lo
        return out if self.all_varying else np.where(self.constant, self.lo, out)


@dataclass(frozen=True)
class NormalizationStats:
    """Per-dimension affine maps onto [-1, 1], fitted on a training set.

    Constant dimensions (max == min) map to 0 and invert back to the constant.
    input_map and target_map hold the maps' constants, computed once.
    """

    input_min: np.ndarray
    input_max: np.ndarray
    target_min: np.ndarray
    target_max: np.ndarray
    enabled: bool = True
    input_map: AffineMap = field(init=False, repr=False, compare=False)
    target_map: AffineMap = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "input_map", AffineMap(self.input_min, self.input_max))
        object.__setattr__(self, "target_map", AffineMap(self.target_min, self.target_max))

    def apply_inputs(self, u: np.ndarray) -> np.ndarray:
        u = _checked_rows(u, self.input_min, "inputs")
        return self.input_map.forward(np.atleast_2d(u)) if self.enabled else u

    def invert_inputs(self, u: np.ndarray) -> np.ndarray:
        u = _checked_rows(u, self.input_min, "inputs")
        return self.input_map.backward(np.atleast_2d(u)) if self.enabled else u

    def apply_targets(self, t: np.ndarray) -> np.ndarray:
        t = _checked_rows(t, self.target_min, "targets")
        return self.target_map.forward(np.atleast_2d(t)) if self.enabled else t

    def invert_targets(self, t: np.ndarray) -> np.ndarray:
        t = _checked_rows(t, self.target_min, "targets")
        return self.target_map.backward(np.atleast_2d(t)) if self.enabled else t

    def apply(self, ds: TimeSeriesDataset) -> TimeSeriesDataset:
        if not self.enabled:
            return ds
        return replace(ds, inputs=self.apply_inputs(ds.inputs), targets=self.apply_targets(ds.targets))


def _file_line(path, index: int) -> int:
    """Line of the file (the header is line 1) on which its index-th non-blank
    data row, as load_csv counts them, ends. Found by reading the file again,
    so that loading a file that parses keeps no line numbers."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        lines = (reader.line_num for row in reader if row and any(c.strip() for c in row))
        return next(islice(lines, index, None))


def _checked_rows(x, lo: np.ndarray, what: str) -> np.ndarray:
    """x as a float array whose row count (dimensions) matches the stats.

    A mismatch would broadcast silently against the per-dimension bounds.
    """
    x = np.asarray(x, dtype=float)
    rows = x.shape[0] if x.ndim > 1 else 1
    if rows != lo.shape[0]:
        raise ValueError(f"{what} have {rows} rows; the normalization stats have {lo.shape[0]}")
    return x


def fit_normalization(ds: TimeSeriesDataset, enabled: bool = True) -> NormalizationStats:
    """Fit per-dimension min/max maps onto [-1, 1] from a training set.

    Washout samples are excluded from the statistics, like every other fit.
    """
    w = ds.washout
    return NormalizationStats(
        input_min=ds.inputs[:, w:].min(axis=1),
        input_max=ds.inputs[:, w:].max(axis=1),
        target_min=ds.targets[:, w:].min(axis=1),
        target_max=ds.targets[:, w:].max(axis=1),
        enabled=enabled,
    )
