"""CSV ingestion and subpopulation filtering for real censored datasets, and
the one CSV and one JSON layout of every file condsurv writes.

The expected layout is a header row naming at least the covariate, time and
status columns (defaults x, z, delta), comma separated, UTF-8 with an
optional byte-order mark (spreadsheet "CSV UTF-8" exports start with one),
"." decimal point.  Status is 1 for an observed event and 0 for a censored
row.  Extra columns may be declared as categorical factors and used to
filter subpopulations.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataValidationError, EmptyDatasetError, SchemaError
from .samples import SurvivalSample

__all__ = ["DatasetSchema", "LoadedDataset", "load_csv", "save_csv", "filter_subpopulation"]


@dataclass(frozen=True)
class DatasetSchema:
    """Column names for a survival CSV file."""

    covariate_column: str = "x"
    time_column: str = "z"
    status_column: str = "delta"
    filter_columns: tuple[str, ...] = ()

    def __post_init__(self):
        required = (self.covariate_column, self.time_column, self.status_column)
        if len(set(required)) != 3:
            raise SchemaError("covariate, time and status columns must be distinct")
        object.__setattr__(self, "filter_columns", tuple(self.filter_columns))


@dataclass(frozen=True)
class LoadedDataset:
    """A parsed sample plus its categorical factor columns."""

    sample: SurvivalSample
    factors: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.sample.n


def _parse_number(raw: str, column: str, line_number: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DataValidationError(
            f"line {line_number}: cannot parse {column}={raw!r} as a number", line_number
        ) from None


def load_csv(path, schema: DatasetSchema = DatasetSchema()) -> LoadedDataset:
    """Parse a survival CSV file under the given schema.

    Raises SchemaError when a declared column is missing or appears more than
    once, DataValidationError (with the 1-based line number) on a malformed
    cell, a nonfinite covariate, a nonfinite or negative time, or a status
    outside {0, 1}, and EmptyDatasetError when no data rows remain.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path}: file is empty") from None
        header = [name.strip() for name in header]
        wanted = (schema.covariate_column, schema.time_column, schema.status_column, *schema.filter_columns)
        missing = [name for name in wanted if name not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}; header is {header}")
        repeated = [name for name in dict.fromkeys(wanted) if header.count(name) > 1]
        if repeated:
            raise SchemaError(f"{path}: columns {repeated} appear more than once; header is {header}")
        col = {name: header.index(name) for name in wanted}
        xs, zs, ds = [], [], []
        factors = {name: [] for name in schema.filter_columns}
        for line_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataValidationError(
                    f"line {line_number}: expected {len(header)} cells, got {len(row)}",
                    line_number,
                )
            x = _parse_number(row[col[schema.covariate_column]], schema.covariate_column, line_number)
            z = _parse_number(row[col[schema.time_column]], schema.time_column, line_number)
            d = _parse_number(row[col[schema.status_column]], schema.status_column, line_number)
            if not np.isfinite(x):
                raise DataValidationError(
                    f"line {line_number}: covariate must be finite, got {x!r}", line_number
                )
            if not np.isfinite(z) or z < 0.0:
                raise DataValidationError(
                    f"line {line_number}: time must be finite and nonnegative, got {z!r}",
                    line_number,
                )
            if d not in (0.0, 1.0):
                raise DataValidationError(
                    f"line {line_number}: status must be 0 or 1, got {row[col[schema.status_column]]!r}",
                    line_number,
                )
            xs.append(x)
            zs.append(z)
            ds.append(d)
            for name in schema.filter_columns:
                factors[name].append(row[col[name]].strip())
        if not xs:
            raise EmptyDatasetError(f"{path}: no usable data rows")
    sample = SurvivalSample(x=xs, z=zs, delta=ds)
    return LoadedDataset(sample=sample, factors={k: np.array(v) for k, v in factors.items()})


def save_csv(dataset, path, schema: DatasetSchema = DatasetSchema()) -> None:
    """Write a dataset (or bare sample) with 17-significant-digit numbers.

    The formatting round-trips doubles exactly, so load_csv(save_csv(ds))
    reproduces the sample bit for bit.
    """
    if isinstance(dataset, SurvivalSample):
        dataset = LoadedDataset(sample=dataset)
    sample = dataset.sample
    names = list(dataset.factors)
    columns = [sample.x, sample.z, [str(int(d)) for d in sample.delta]]
    columns += [[str(v) for v in dataset.factors[name]] for name in names]
    _write_csv(path, [schema.covariate_column, schema.time_column, schema.status_column, *names],
               zip(*columns))


def _write_csv(path, header, rows) -> None:
    """The one CSV layout: csv's default dialect (CRLF line ends), UTF-8, a header row.

    Float cells (numpy float64 too) are written with 17 significant digits,
    which round-trips a double exactly; every other cell is written as given.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)


def _write_json(path, payload) -> None:
    """The one JSON record layout: 2-space indent, sorted keys, a trailing newline.

    numpy arrays are written as lists and numpy scalars as numbers (`tolist`).
    """
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=lambda value: value.tolist())
        fh.write("\n")


def filter_subpopulation(dataset: LoadedDataset, criteria: dict) -> LoadedDataset:
    """Subset rows whose factor values match every criterion.

    Criterion values may be a single value or a collection of allowed values.
    The source dataset is never mutated.  Raises EmptyDatasetError when
    nothing matches.
    """
    mask = np.ones(dataset.n, dtype=bool)
    for name, allowed in criteria.items():
        if name not in dataset.factors:
            raise SchemaError(f"unknown filter column: {name!r}")
        if isinstance(allowed, str) or not hasattr(allowed, "__iter__"):
            allowed = {str(allowed)}
        else:
            allowed = {str(v) for v in allowed}
        column = dataset.factors[name]
        mask &= np.isin(column, sorted(allowed))
    if not mask.any():
        raise EmptyDatasetError(f"no rows match {criteria!r}")
    sample = SurvivalSample(
        x=dataset.sample.x[mask], z=dataset.sample.z[mask], delta=dataset.sample.delta[mask]
    )
    factors = {name: values[mask] for name, values in dataset.factors.items()}
    return LoadedDataset(sample=sample, factors=factors)
