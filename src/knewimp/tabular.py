"""Data model for partially observed numeric tables.

A table is an N x D float64 matrix whose NaN cells are its missing ones;
its {0, 1} observation mask is derived from them. Loading, masking,
column-wise standardization, the mean fill and missing-entry
initialization all live here, and each table rule has one implementation
that the other modules call: standardize (missingness standardizes the
MAR/MNAR model's inputs with it), mean_impute (the baseline, and the
centre of initialize_missing's jitter), checked_mask (the 0/1 mask
check of the flow, of from_complete and of metrics.mae) and
first_empty_column (the "every column keeps an observed cell" check of
the column means and of missingness.simulate's redraws, which numbers
columns from 1 as the CSV errors do). Everything is value-semantic:
operations return new objects and never mutate their inputs.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .score import check_count, check_finite

STD_FLOOR = 1e-12

# Cell texts read as missing, compared after strip() and lower().
_MISSING_TOKENS = {"", "nan"}


class CsvFormatError(ValueError):
    """Raised when a CSV file violates the expected numeric-table format."""


@dataclass(frozen=True)
class StandardizationStats:
    """Per-column mean and standard deviation computed from observed cells.

    std uses the sample formula (ddof=1) when a column has >= 2 observed
    entries and is floored at STD_FLOOR so constant columns stay invertible.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.ndim != 1 or std.shape != mean.shape:
            raise ValueError("mean and std must be 1-D vectors of equal length")
        if not np.all(std > 0.0):
            raise ValueError("std entries must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """(values - mean) / std on every finite entry; NaNs pass through."""
        values = np.asarray(values, dtype=np.float64)
        self._check_width(values)
        return (values - self.mean) / self.std

    def invert(self, values: np.ndarray) -> np.ndarray:
        """Exact inverse of apply on every finite entry."""
        values = np.asarray(values, dtype=np.float64)
        self._check_width(values)
        return values * self.std + self.mean

    def _check_width(self, values: np.ndarray) -> None:
        if values.ndim != 2 or values.shape[1] != self.mean.shape[0]:
            raise ValueError(
                f"expected {self.mean.shape[0]} columns, got shape {values.shape}"
            )


def checked_mask(mask: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """mask as float64, after checking that it has the given shape and only
    0/1 entries."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape} != values shape {shape}")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ValueError("mask entries must be 0 or 1")
    return mask


@dataclass(frozen=True)
class TabularDataset:
    """N x D numeric table with optional ground truth.

    The NaN cells of values are the missing ones: mask is derived from them
    (1 = observed), never given, so it cannot disagree with values. Every
    other cell must be finite: a ValueError names the first ±inf cell.
    truth, when present, is fully observed and aligned with values.
    Instances are treated as immutable; all operations hand back new
    arrays.
    """

    values: np.ndarray
    truth: Optional[np.ndarray] = None
    column_names: Optional[list[str]] = field(default=None)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"values must be a non-empty 2-D matrix, got {values.shape}")
        infinite = np.argwhere(np.isinf(values))
        if infinite.size:
            i, j = infinite[0]
            raise ValueError(f"values[{i}, {j}] is {values[i, j]}; values must be finite or NaN")
        object.__setattr__(self, "values", values)
        if self.truth is not None:
            truth = np.asarray(self.truth, dtype=np.float64)
            if truth.shape != values.shape:
                raise ValueError(f"truth shape {truth.shape} != values shape {values.shape}")
            check_finite("truth", truth)
            object.__setattr__(self, "truth", truth)
        if self.column_names is not None and len(self.column_names) != values.shape[1]:
            raise ValueError(
                f"{len(self.column_names)} column names for {values.shape[1]} columns"
            )

    @cached_property
    def mask(self) -> np.ndarray:
        """1.0 where values is observed, 0.0 where it is NaN. Built on first
        use, so the copies that standardize and dataclasses.replace make do
        not each hold one."""
        return (~np.isnan(self.values)).astype(np.float64)

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def from_complete(
    truth: np.ndarray,
    mask: np.ndarray,
    column_names: Optional[Sequence[str]] = None,
) -> TabularDataset:
    """Build a dataset by hiding entries of a complete matrix under a 0/1
    mask of its shape."""
    truth = np.asarray(truth, dtype=np.float64)
    mask = checked_mask(mask, truth.shape)
    values = np.where(mask == 1.0, truth, np.nan)
    names = list(column_names) if column_names is not None else None
    return TabularDataset(values=values, truth=truth, column_names=names)


def _parse_cell(text: str) -> float:
    """A data cell: a finite number, or NaN for a missing token."""
    if text.lower() in _MISSING_TOKENS:
        return np.nan
    try:
        value = float(text)
    except ValueError:
        raise CsvFormatError("is not numeric") from None
    if not math.isfinite(value):
        raise CsvFormatError("is not finite")
    return value


def _read_cells(path: str, has_header: bool) -> tuple[Optional[list[str]], np.ndarray]:
    """(header names or None, matrix of _parse_cell(cell.strip()) over the
    data rows).

    Each row is parsed as csv.reader yields it and appended to one flat
    float64 buffer, so no list of the file's cell strings is ever held: the
    peak is the buffer and its one copy into the result. The checks run in
    file order and the first failure is raised: an empty file, a header
    whose width differs from the first data row's, a row of another width,
    a bad cell, an empty line before a data row, and at the end a file
    without data rows. Empty lines at the end are skipped; a line of
    whitespace alone is an empty line. A leading UTF-8 byte order mark is
    dropped. Rows and columns are 1-indexed in error messages, rows counted
    after the header; every error names the file.
    """
    names: Optional[list[str]] = None
    n_rows = width = blank = 0
    flat = array("d")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        if has_header:
            header = next(reader, None)
            if header is None:
                raise CsvFormatError(f"{path}: empty file")
            names = [c.strip() for c in header]
        for i, row in enumerate(reader, 1):
            if not row or len(row) == 1 and row[0].isspace():
                blank = blank or i
                continue
            if blank:
                raise CsvFormatError(f"{path}: row {blank} is empty")
            if not n_rows:
                width = len(row)
                if names is not None and len(names) != width:
                    raise CsvFormatError(
                        f"{path}: header has {len(names)} cells, data rows have {width}"
                    )
            elif len(row) != width:
                raise CsvFormatError(
                    f"{path}: row {i} has {len(row)} cells, expected {width}"
                )
            n_rows += 1
            for j, cell in enumerate(row, 1):
                text = cell.strip()
                try:
                    flat.append(_parse_cell(text))
                except CsvFormatError as exc:
                    raise CsvFormatError(
                        f"{path}: cell at row {i}, column {j} {exc}: {text!r}"
                    ) from None
    if not n_rows:
        raise CsvFormatError(f"{path}: no data rows")
    return names, np.array(flat, dtype=np.float64).reshape(n_rows, width)


def load_csv(path: str, has_header: bool = False) -> TabularDataset:
    """Read a numeric CSV; empty/NaN cells become missing entries."""
    names, data = _read_cells(path, has_header)
    return TabularDataset(values=data, column_names=names)


def write_csv(
    path: str,
    values: np.ndarray,
    column_names: Optional[Sequence[str]] = None,
) -> None:
    """Write a numeric matrix as CSV; NaN cells become empty strings.

    Values are formatted with shortest round-trip precision so that
    load_csv(write_csv(x)) reproduces x exactly.
    """
    values = np.asarray(values, dtype=np.float64)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if column_names is not None:
            writer.writerow(list(column_names))
        for row in values:
            writer.writerow(["" if np.isnan(v) else repr(float(v)) for v in row])


def first_empty_column(mask: np.ndarray) -> Optional[int]:
    """Number, counted from 1, of the first column of a 0/1 mask (1 =
    observed) without an observed cell; None when every column has one."""
    empty = np.flatnonzero(~mask.any(axis=0))
    return int(empty[0]) + 1 if empty.size else None


def observed_column_means(ds: TabularDataset) -> np.ndarray:
    """Per-column mean of the observed cells; every column must have one.
    The error names the first empty column from 1, and by its header name
    when the table has one."""
    empty = first_empty_column(ds.mask)
    if empty is not None:
        name = f" ({ds.column_names[empty - 1]!r})" if ds.column_names else ""
        raise ValueError(f"column {empty}{name} has no observed entries")
    return np.nanmean(ds.values, axis=0)


def mean_impute(ds: TabularDataset) -> np.ndarray:
    """Baseline: every missing cell gets its column's observed mean."""
    means = observed_column_means(ds)
    return np.where(ds.mask == 1.0, ds.values, np.broadcast_to(means, ds.values.shape))


def _observed_stats(ds: TabularDataset) -> StandardizationStats:
    mean = observed_column_means(ds)
    std = np.empty(ds.n_cols, dtype=np.float64)
    for d in range(ds.n_cols):
        col = ds.values[ds.mask[:, d] == 1.0, d]
        std[d] = col.std(ddof=1) if col.size >= 2 else 0.0
    std = np.maximum(std, STD_FLOOR)
    return StandardizationStats(mean=mean, std=std)


def standardize(ds: TabularDataset) -> tuple[TabularDataset, StandardizationStats]:
    """Column-wise z-scoring from observed entries only.

    Missing cells stay NaN; truth (when present) is transformed with the
    same statistics so metric comparisons stay in one space.
    """
    stats = _observed_stats(ds)
    values = stats.apply(ds.values)
    truth = stats.apply(ds.truth) if ds.truth is not None else None
    return (
        replace(ds, values=values, truth=truth),
        stats,
    )


def initialize_missing(ds: TabularDataset, seed: int) -> np.ndarray:
    """Dense starting matrix: observed cells verbatim, missing cells set to
    mean_impute's fill (the observed column mean) plus N(0, 0.1^2) jitter.

    The jitter keeps initial particles distinct so kernel interactions are
    non-degenerate; on standardized data it is a tenth of a column's spread.
    Deterministic for a fixed seed, which must be an integer >= 0.
    """
    check_count("seed", seed, least=0)
    filled = mean_impute(ds)
    rng = np.random.default_rng(seed)
    noise = 0.1 * rng.standard_normal(ds.values.shape)
    return np.where(ds.mask == 1.0, ds.values, filled + noise)
