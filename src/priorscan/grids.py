"""Tabulated one-dimensional densities and the package's one CSV reader.

A :class:`DensityGrid` stores density values on a strictly increasing
support together with the scale of that support. All integrals use the
trapezoidal rule, which is effectively spectrally accurate for the smooth,
rapidly decaying densities produced by the tabulation helpers.
:func:`read_density_csv` reads a posterior grid, and :func:`read_columns`
the columns of any CSV input. :class:`PosteriorInput`, below both engines,
ties a normalized posterior grid to its base prior.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DomainError, IngestionError
from .params import Family, PriorSpec


class Scale(str, Enum):
    """Support scale of a tabulated density.

    ``NATURAL`` grids tabulate the density of the parameter itself,
    ``LOG_PARAMETER`` grids tabulate the density of its logarithm
    (meaningful only for positive-support quantities).
    """

    NATURAL = "natural"
    LOG_PARAMETER = "log"


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Density values tabulated on a strictly increasing support.

    Values must be finite and non-negative with at least one positive
    entry, and the grid must contain at least 8 points. Arrays are copied
    and frozen at construction.
    """

    support: np.ndarray
    values: np.ndarray
    scale: Scale = Scale.NATURAL

    def __post_init__(self):
        support = np.array(self.support, dtype=float)
        values = np.array(self.values, dtype=float)
        if support.ndim != 1 or values.ndim != 1 or support.shape != values.shape:
            raise DomainError("support and values must be 1-d arrays of equal length")
        if support.size < 8:
            raise DomainError("a density grid needs at least 8 points")
        if not np.all(np.isfinite(support)) or not np.all(np.isfinite(values)):
            raise DomainError("support and values must be finite")
        if np.any(np.diff(support) <= 0.0):
            raise DomainError("support must be strictly increasing")
        if np.any(values < 0.0):
            raise DomainError("density values must be non-negative")
        if not np.any(values > 0.0):
            raise DomainError("density values must not be identically zero")
        support.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.support.size)


def trapezoid_mass(grid: DensityGrid) -> float:
    """Trapezoidal integral of the grid values over its support (inf on overflow)."""
    with np.errstate(over="ignore"):
        return float(np.trapezoid(grid.values, grid.support))


def normalize_grid(grid: DensityGrid) -> DensityGrid:
    """Rescale values so the trapezoidal integral over the support is 1."""
    mass = trapezoid_mass(grid)
    if not (mass > 0.0) or not np.isfinite(mass):
        raise DomainError(f"grid mass {mass!r} cannot be normalized")
    return DensityGrid(grid.support, grid.values / mass, grid.scale)


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _read_csv_rows(path: Path, key: int) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header and data rows of a CSV file, each data row with its physical line number.

    Blank rows are skipped. The header is taken to be missing when its
    field ``key`` (the column the caller reads) is a number.
    """
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise IngestionError(f"{path}: expected a header row and data rows")
    header = rows[0][1]
    if _is_number(header[key]):
        raise IngestionError(f"{path}: missing header row (first row is numeric)")
    return header, rows[1:]


def _parse_columns(path: Path, usecols: tuple[int, ...]):
    """Columns ``usecols`` of the data rows by one ``np.loadtxt`` call on the lines of one
    read (split at \\n, or at \\r if no \\n), or None unless they are the row reader's. With
    C-level ``str`` operations: the first line is a header with a field per column, the
    first not a number; the text has no NUL and no lone \\r beside a \\n; no line, with its
    end, is over the csv field limit (each aligned block of half the limit holds a line
    end, or the lines are measured). And numpy reads one row per later non-blank line."""
    try:
        with path.open(newline="") as fh:
            text = fh.read()
        lines = text.split(end := "\n" if "\n" in text else "\r")  # csv's, where no \r stands alone
        reader = csv.reader(body := iter(lines))
        header, limit = next(reader, []), csv.field_size_limit()
        half = max(limit // 2, 1)  # a line over the limit holds a whole aligned block this long
        rows = len(lines) - 1 - lines.count("") - lines.count("\r")  # less the header, blank lines
        if (reader.line_num != 1 or len(header) < len(usecols) or rows < 1
                or _is_number(header[usecols[0]]) or "\0" in text
                or end == "\n" and "\r" in text and text.count("\r") != text.count("\r\n")  # a lone \r
                or any(text.find(end, k - half, k) < 0 for k in range(half, len(text) + 1, half))
                and max(max(map(len, lines[:-1])) + 1, len(lines[-1])) > limit):
            return None
        columns = np.loadtxt(body, delimiter=",", quotechar='"', comments=None,
                             usecols=usecols, ndmin=2, unpack=True)
    except (OSError, ValueError, csv.Error):  # a UnicodeDecodeError is a ValueError
        return None
    return columns if columns.shape[1] == rows else None


def read_columns(path: Path, usecols: tuple[int, ...], noun: str) -> np.ndarray:
    """Columns ``usecols``, ``(0, 1)`` or ``(-1,)``, of a CSV file's data rows.

    One read of the file, checked by :func:`_parse_columns`, feeds one numpy parse; a file
    it refuses or might misread is read again row by row, to name the physical line of an
    error (a row without the read columns, or a "non-numeric ``noun``") or to accept what
    only ``float`` parses, such as ``1_000``."""
    columns = _parse_columns(path, usecols)
    if columns is not None:
        return columns
    header, rows = _read_csv_rows(path, key=usecols[0])
    width = max(usecols) + 1  # fields a row needs: 2 for (0, 1), none for (-1,)
    if len(header) < width:
        raise IngestionError(f"{path}: expected two columns, got {header!r}")
    columns = [[] for _ in usecols]
    for line, row in rows:
        if len(row) < width:
            raise IngestionError(f"{path}:{line}: expected two columns, got {row!r}")
        try:
            for column, k in zip(columns, usecols):
                column.append(float(row[k]))
        except ValueError as exc:
            raise IngestionError(f"{path}:{line}: non-numeric {noun} {row!r}") from exc
    return np.array(columns)


def read_density_csv(path, scale: Scale = Scale.NATURAL) -> DensityGrid:
    """Read a two-column CSV ``x,density`` with a mandatory header row."""
    path = Path(path)
    columns = read_columns(path, (0, 1), "entry")
    try:
        return DensityGrid(*columns, scale)
    except DomainError as exc:
        raise IngestionError(f"{path}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class PosteriorInput:
    """A normalized marginal posterior tied to the prior it was computed under.

    ``parametrization`` declares whether the grid support holds the
    parameter itself or its logarithm, and must match ``posterior.scale``.
    """

    posterior: DensityGrid
    base_prior: PriorSpec
    parametrization: Scale = Scale.NATURAL

    def __post_init__(self):
        if self.posterior.scale is not self.parametrization:
            raise DomainError(
                f"grid scale {self.posterior.scale} does not match "
                f"parametrization {self.parametrization}"
            )
        if (
            self.base_prior.family is Family.GAMMA
            and self.parametrization is Scale.NATURAL
            and self.posterior.support[0] <= 0.0
        ):
            raise DomainError("gamma posterior support must be positive on the natural scale")
        if self.base_prior.family is Family.NORMAL and self.parametrization is Scale.LOG_PARAMETER:
            raise DomainError("log-parameter grids are undefined for normal priors")
        mass = trapezoid_mass(self.posterior)
        if abs(mass - 1.0) > 1e-6:
            raise DomainError(
                f"posterior grid mass {mass!r} is not normalized; apply normalize_grid first"
            )
