"""Hourly gridded weather store with explicit missing-hour semantics.

Hours inside the file's time range but absent from it are flagged
not-present; the ratings fall back to the static rating for such an hour.
Values are never fabricated for missing hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import WeatherError
from .geo import great_circle_km
from .util import (first_fault, format_hour, hour_at, hour_number, parse_hour, parse_rows,
                   read_columns, read_rows)

COLUMNS = ("time", "lat", "lon", "temp_k", "wind_u_ms", "wind_v_ms")
MIN_PLAUSIBLE_TEMP_K = 150.0
CELL_BLOCK = 512  # cells per (points x cells) distance block in nearest_cell


@dataclass(frozen=True)
class WeatherSample:
    ambient_temp: float  # K
    wind_u: float  # m/s, eastward
    wind_v: float  # m/s, northward
    cell_index: int


class WeatherGrid:
    """Immutable (hour, cell) fields of temperature and wind components.

    Cells are sorted by (lat, lon) so indices are deterministic; ``present``
    marks which hours of the covered range actually have data.
    """

    def __init__(self, cells, hours, present, temperature, wind_u, wind_v):
        self.cells = np.asarray(cells, dtype=float)  # (C, 2) lat, lon
        self.hours = tuple(hours)
        self.present = np.asarray(present, dtype=bool)
        self.temperature = np.asarray(temperature, dtype=float)  # (H, C), K
        self.wind_u = np.asarray(wind_u, dtype=float)
        self.wind_v = np.asarray(wind_v, dtype=float)
        self._hour_pos = {h: i for i, h in enumerate(self.hours)}

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def hour_pos(self, hour: datetime) -> int:
        try:
            return self._hour_pos[hour]
        except KeyError:
            raise WeatherError(
                f"hour {format_hour(hour)} outside weather range "
                f"{format_hour(self.hours[0])}..{format_hour(self.hours[-1])}") from None


def _rows(path):
    """``read_rows`` of a weather file; a missing column or bad text is a WeatherError."""
    try:
        yield from read_rows(path, list(COLUMNS))
    except ValueError as exc:
        row = getattr(exc, "row", None)
        raise WeatherError(f"{path.name}{'' if row is None else f' row {row}'}: {exc}") from None


def _weather_row(row, name, number):
    """Raise the first fault of one weather row, in reporting order."""
    def cell(column):
        if row[column] is None:
            raise ValueError(f"missing value for {column!r}")
        return row[column]
    try:
        parse_hour(cell("time"))
        values = [float(cell(column)) for column in COLUMNS[1:]]
    except ValueError as exc:
        raise WeatherError(f"{name} row {number}: {exc}") from None
    if not np.isfinite(values).all():
        raise WeatherError(f"{name} row {number}: non-finite value")
    if values[2] <= MIN_PLAUSIBLE_TEMP_K:
        raise WeatherError(f"{name} row {number}: temperature {values[2]} K implausible")
    raise AssertionError(f"{name} row {number} passes the checks it failed")


def load_weather(file: str | Path) -> WeatherGrid:
    """Assemble a WeatherGrid from a time,lat,lon,temp_k,wind_u_ms,wind_v_ms CSV.

    Every hour that appears must carry the complete cell set (the set seen
    on the first hour); hours of the covered range that never appear are
    flagged absent. ``read_columns`` reads the file, up to the first row
    that does not parse; each distinct time text is parsed once and the
    rows are checked as arrays. The first faulty row is read again to name
    its fault.
    """
    path = Path(file)
    if not path.exists():
        raise WeatherError(f"weather file {path} not found")
    name = path.name
    try:
        (stamps,), (code,), fields, complete = read_columns(path, ["time"], COLUMNS[1:])
    except ValueError as exc:  # such as a missing column
        raise WeatherError(f"{name}: {exc}") from None
    hour, hour_ok = parse_rows(stamps, code, hour_number)
    valid = hour_ok & np.isfinite(fields).all(axis=1) & (fields[:, 2] > MIN_PLAUSIBLE_TEMP_K)
    fault = first_fault(valid, complete, hour, fields[:, 0], fields[:, 1])
    if fault is not None:
        faulty, repeated = fault
        if repeated:
            raise WeatherError(f"{name} row {faulty + 1}: duplicate cell "
                               f"{tuple(fields[faulty, :2].tolist())} at {stamps[code[faulty]]}")
        _weather_row(next(islice(_rows(path), faulty, None))[1], name, faulty + 1)
    if not len(code):
        raise WeatherError(f"{name}: no weather rows")

    pos = hour - hour.min()
    per_hour = np.bincount(pos)
    key = np.empty(len(code), dtype=complex)  # (lat, lon); sorts and compares as a pair
    key.real, key.imag = fields[:, 0], fields[:, 1]
    distinct, cell = np.unique(key, return_inverse=True)
    seen = np.zeros((len(per_hour), len(distinct)), dtype=bool)
    seen[pos, cell] = True
    wrong = np.flatnonzero((per_hour > 0) & (seen != seen[0]).any(axis=1))
    if wrong.size:
        raise WeatherError(
            f"{name}: inconsistent cell set at {format_hour(hour_at(hour.min() + wrong[0]))} "
            f"({per_hour[wrong[0]]} cells, expected {per_hour[0]})")

    hours = [hour_at(h) for h in range(hour.min(), hour.max() + 1)]
    cells = np.empty((len(distinct), 2))
    cells[cell[pos == 0]] = fields[pos == 0, :2]  # the first hour's spelling of each cell
    grid = np.full((3, len(hours), len(cells)), np.nan)
    grid[:, pos, cell] = fields[:, 2:].T
    return WeatherGrid(cells, hours, per_hour > 0, *grid)


def nearest_cell(grid: WeatherGrid, latitude, longitude):
    """Index of the great-circle-nearest cell for a point or for arrays of
    points; ties break to the lowest index. Distances are computed
    ``CELL_BLOCK`` cells at a time, so memory stays bounded on large grids."""
    if grid.n_cells == 0:
        raise WeatherError("weather grid has no cells")
    lat, lon = np.asarray(latitude)[..., None], np.asarray(longitude)[..., None]
    shape = np.broadcast_shapes(lat.shape, lon.shape)[:-1]
    best = np.full(shape, np.inf)
    index = np.zeros(shape, dtype=np.intp)
    for start in range(0, grid.n_cells, CELL_BLOCK):
        cells = grid.cells[start:start + CELL_BLOCK]
        distances = great_circle_km(lat, lon, cells[:, 0], cells[:, 1])
        nearest = distances.min(axis=-1)
        closer = nearest < best  # strict, so a tie keeps the earlier block's cell
        best = np.where(closer, nearest, best)
        index = np.where(closer, np.argmin(distances, axis=-1) + start, index)
    return index[()]
