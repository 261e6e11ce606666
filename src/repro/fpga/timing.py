"""Frequency and floorplanning model (paper SS7.2, Table 1, SSA.5).

The U200 is a three-SLR device with a fixed PCIe shell occupying the
center-right; designs under ~160 cores fit in one unperturbed region and
close timing near 500 MHz; larger grids wrap around the shell and need
guided floorplanning (core spreading across SLRs, switches pinned to the
central SLR, dedicated SLR-crossing registers) to avoid a timing cliff.

The model encodes the published Table 1 measurements and interpolates
between them so arbitrary grid sizes return plausible frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Paper Table 1: grid -> (auto MHz, guided MHz or None if not run).
TABLE1: dict[tuple[int, int], tuple[float, float | None]] = {
    (8, 8): (500.0, None),
    (10, 10): (485.0, None),
    (12, 12): (480.0, 500.0),
    (15, 15): (395.0, 475.0),
    (16, 16): (180.0, 450.0),
}

#: Cores that fit above the shell without SLR gymnastics (paper SS7.2).
SINGLE_REGION_CORES = 160


@dataclass(frozen=True)
class TimingEstimate:
    cores: int
    auto_mhz: float
    guided_mhz: float


def _interp(points: list[tuple[int, float]], cores: int) -> float:
    points = sorted(points)
    if cores <= points[0][0]:
        return points[0][1]
    if cores >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= cores <= x1:
            frac = (cores - x0) / (x1 - x0)
            return y0 + (y1 - y0) * frac
    return points[-1][1]


_AUTO_POINTS = [(x * y, mhz) for (x, y), (mhz, _g) in TABLE1.items()]
_GUIDED_POINTS = [(x * y, g if g is not None else mhz)
                  for (x, y), (mhz, g) in TABLE1.items()]


def frequency_mhz(grid_x: int, grid_y: int, guided: bool = True,
                  ) -> TimingEstimate:
    """Achievable clock for a grid, per the Table 1 model."""
    cores = grid_x * grid_y
    return TimingEstimate(
        cores=cores,
        auto_mhz=_interp(_AUTO_POINTS, cores),
        guided_mhz=_interp(_GUIDED_POINTS, cores),
    )


def needs_guided_floorplan(grid_x: int, grid_y: int) -> bool:
    """Grids beyond the single unperturbed region want guidance."""
    return grid_x * grid_y > SINGLE_REGION_CORES


def table1_rows() -> list[dict]:
    rows = []
    for (x, y), (auto, guided) in sorted(TABLE1.items()):
        rows.append({
            "grid": f"{x}x{y}", "cores": x * y,
            "auto_mhz": auto,
            "guided_mhz": guided if guided is not None else "-",
        })
    return rows
