"""Tabulated one-dimensional densities and grid-based Hellinger distances.

A :class:`DensityGrid` stores density values on a strictly increasing
support together with the scale of that support. All integrals use the
trapezoidal rule, which is effectively spectrally accurate for the smooth,
rapidly decaying densities produced by the tabulation helpers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import AlignmentError, DomainError, IngestionError


class Scale(str, Enum):
    """Support scale of a tabulated density.

    ``NATURAL`` grids tabulate the density of the parameter itself,
    ``LOG_PARAMETER`` grids tabulate the density of its logarithm
    (meaningful only for positive-support quantities).
    """

    NATURAL = "natural"
    LOG_PARAMETER = "log"


@dataclass(frozen=True)
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
    """Trapezoidal integral of the grid values over its support."""
    return float(np.trapezoid(grid.values, grid.support))


def normalize_grid(grid: DensityGrid) -> DensityGrid:
    """Rescale values so the trapezoidal integral over the support is 1."""
    mass = trapezoid_mass(grid)
    if not (mass > 0.0) or not np.isfinite(mass):
        raise DomainError(f"grid mass {mass!r} cannot be normalized")
    return DensityGrid(grid.support, grid.values / mass, grid.scale)


def common_support(g0: DensityGrid, g1: DensityGrid) -> tuple[DensityGrid, DensityGrid]:
    """Resample two grids onto the intersection of their support ranges.

    Identical supports are returned unchanged. Otherwise both grids are
    linearly interpolated onto an equispaced grid over the overlap, with
    as many points as the finer input. Values are carried over without
    renormalization, so the aligned grids still represent the original
    densities restricted to the overlap (density outside a grid's range
    is treated as zero mass).
    """
    if g0.scale is not g1.scale:
        raise AlignmentError(f"cannot align grids on scales {g0.scale} and {g1.scale}")
    if np.array_equal(g0.support, g1.support):
        return g0, g1
    lo = max(g0.support[0], g1.support[0])
    hi = min(g0.support[-1], g1.support[-1])
    if not (hi > lo):
        raise AlignmentError(
            f"support ranges [{g0.support[0]}, {g0.support[-1]}] and "
            f"[{g1.support[0]}, {g1.support[-1]}] do not overlap"
        )
    m = max(len(g0), len(g1))
    xs = np.linspace(lo, hi, m)
    v0 = np.interp(xs, g0.support, g0.values)
    v1 = np.interp(xs, g1.support, g1.values)
    if not np.any(v0 > 0.0) or not np.any(v1 > 0.0):
        raise AlignmentError("no density mass inside the overlapping support range")
    return DensityGrid(xs, v0, g0.scale), DensityGrid(xs, v1, g1.scale)


def _mass_beyond(grid: DensityGrid, lo: float, hi: float) -> float:
    """Trapezoidal mass of ``grid`` on its own nodes below ``lo`` and above ``hi``."""
    x, v = grid.support, grid.values
    at_lo, at_hi = np.interp([lo, hi], x, v)
    below, above = x < lo, x > hi
    return float(np.trapezoid(np.r_[v[below], at_lo], np.r_[x[below], lo])
                 + np.trapezoid(np.r_[at_hi, v[above]], np.r_[hi, x[above]]))


def hellinger_grid(g0: DensityGrid, g1: DensityGrid) -> float:
    """Hellinger distance between two tabulated, normalized densities.

    Grids on different supports are aligned with :func:`common_support`.
    ``H^2 = 1/2 * integral of (sqrt(p0) - sqrt(p1))^2`` over the common
    support, plus half the mass each grid has outside it, integrated on that
    grid's own nodes. Unlike ``sqrt(1 - BC)``, this stays accurate for
    distances far below sqrt(machine epsilon) on one support. On different
    supports the linear re-interpolation limits small distances (on 4001-point
    grids, gamma (3, 2) vs (3 + 4.5e-6, 2) comes out 2.3e-3 relative high, normal
    (0, 1) vs (2.8e-6, 1) 5e-4); for two priors of one family use
    :func:`priorscan.families.hellinger_closed_form`.
    """
    a0, a1 = common_support(g0, g1)
    lo, hi = a0.support[0], a0.support[-1]
    h2 = 0.5 * np.trapezoid((np.sqrt(a0.values) - np.sqrt(a1.values)) ** 2, a0.support)
    h2 += 0.5 * (_mass_beyond(g0, lo, hi) + _mass_beyond(g1, lo, hi))
    return float(np.sqrt(min(1.0, max(0.0, h2))))


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
    """Columns ``usecols`` of the data rows from one ``np.loadtxt`` call, or None
    unless they are what the row reader gives: the first physical line is a header
    with a field per column, the first not a number; no line is over the csv field
    limit or holds a NUL; and numpy reads one row per later non-blank line."""
    try:
        with path.open(newline="") as fh:
            lines = fh.readlines()  # split at \n, \r and \r\n only, as csv splits
        reader = csv.reader(body := iter(lines))
        header = next(reader, [])
        rows = len(lines) - 1 - sum(map(lines.count, ("\n", "\r\n", "\r")))
        if (reader.line_num != 1 or len(header) < len(usecols) or rows < 1
                or _is_number(header[usecols[0]]) or "\0" in "".join(lines)
                or max(map(len, lines)) > csv.field_size_limit()):
            return None
        columns = np.loadtxt(body, delimiter=",", quotechar='"', comments=None,
                             usecols=usecols, ndmin=2, unpack=True)
    except (OSError, ValueError, csv.Error):  # a UnicodeDecodeError is a ValueError
        return None
    return columns if columns.shape[1] == rows else None


def read_columns(path: Path, usecols: tuple[int, ...], noun: str) -> np.ndarray:
    """Columns ``usecols``, ``(0, 1)`` or ``(-1,)``, of a CSV file's data rows.

    numpy parses the data rows in one call (see :func:`_parse_columns`); a file it
    refuses or might misread is read again row by row, to name the physical line
    of an error (a row without the read columns, or a "non-numeric ``noun``") or
    to accept what only ``float`` parses, such as ``1_000``."""
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


def write_density_csv(path, grid: DensityGrid) -> None:
    """Write a grid as a two-column CSV ``x,density`` with a header row."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "density"])
        for x, v in zip(grid.support, grid.values):
            writer.writerow([repr(float(x)), repr(float(v))])
