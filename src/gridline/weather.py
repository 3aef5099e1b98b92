"""Hourly gridded weather store with explicit missing-hour semantics.

Hours inside the file's time range but absent from it are flagged
not-present; the ratings fall back to the static rating for such an hour.
Values are never fabricated for missing hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import WeatherError
from .geo import great_circle_km
from .util import format_hour, hour_range, parse_hour, read_rows

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


def load_weather(file: str | Path) -> WeatherGrid:
    """Assemble a WeatherGrid from a time,lat,lon,temp_k,wind_u_ms,wind_v_ms CSV.

    Every hour that appears must carry the complete cell set (the set seen
    on the first hour); hours of the covered range that never appear are
    flagged absent.
    """
    path = Path(file)
    if not path.exists():
        raise WeatherError(f"weather file {path} not found")
    per_hour: dict[datetime, dict[tuple[float, float], tuple[float, float, float]]] = {}
    try:
        row_iter = read_rows(path, ["time", "lat", "lon", "temp_k", "wind_u_ms", "wind_v_ms"])
        for number, row in row_iter:
            try:
                hour = parse_hour(row["time"])
                cell = (float(row["lat"]), float(row["lon"]))
                temp = float(row["temp_k"])
                u = float(row["wind_u_ms"])
                v = float(row["wind_v_ms"])
            except ValueError as exc:
                raise WeatherError(f"{path.name} row {number}: {exc}") from None
            if not np.isfinite([cell[0], cell[1], temp, u, v]).all():
                raise WeatherError(f"{path.name} row {number}: non-finite value")
            if temp <= MIN_PLAUSIBLE_TEMP_K:
                raise WeatherError(
                    f"{path.name} row {number}: temperature {temp} K implausible")
            slot = per_hour.setdefault(hour, {})
            if cell in slot:
                raise WeatherError(
                    f"{path.name} row {number}: duplicate cell {cell} at {row['time']}")
            slot[cell] = (temp, u, v)
    except ValueError as exc:
        raise WeatherError(f"{path.name}: {exc}") from None
    if not per_hour:
        raise WeatherError(f"{path.name}: no weather rows")

    file_hours = sorted(per_hour)
    cells = sorted(per_hour[file_hours[0]])
    cell_set = set(cells)
    for hour in file_hours:
        if set(per_hour[hour]) != cell_set:
            raise WeatherError(
                f"{path.name}: inconsistent cell set at {format_hour(hour)} "
                f"({len(per_hour[hour])} cells, expected {len(cells)})")

    hours = hour_range(file_hours[0], file_hours[-1])
    present = np.array([h in per_hour for h in hours])
    shape = (len(hours), len(cells))
    temperature = np.full(shape, np.nan)
    wind_u = np.full(shape, np.nan)
    wind_v = np.full(shape, np.nan)
    for h, hour in enumerate(hours):
        if not present[h]:
            continue
        slot = per_hour[hour]
        for c, cell in enumerate(cells):
            temperature[h, c], wind_u[h, c], wind_v[h, c] = slot[cell]
    return WeatherGrid(cells, hours, present, temperature, wind_u, wind_v)


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
