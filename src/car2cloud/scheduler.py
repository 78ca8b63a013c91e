"""Round-Robin resource-block allocation within each cell and tick.

Fractional mode grants every attached vehicle exactly n_rb / |attached|
blocks, which models time-sharing within the one-second tick and makes
rates exactly linear in n_rb.  Integer mode deals whole blocks: everyone
gets the floor share and the remainder goes, one block each, to vehicles
starting at the rotation offset in canonical order, so no vehicle id is
systematically favored.

rr_allocate splits one cell at one tick; rr_shares gives the same shares
for every row of a whole table at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError

MODES = ("fractional", "integer")


@dataclass(frozen=True)
class CellTickState:
    """Vehicles attached to one station at one tick, ascending vehicle id."""

    station_id: str
    t: int
    attached: tuple[str, ...]


@dataclass(frozen=True)
class RbAllocation:
    station_id: str
    t: int
    mode: str
    shares: dict[str, float] = field(default_factory=dict)


def _check(n_rb: int, mode: str) -> None:
    if mode not in MODES:
        raise ConfigError(f"scheduler.mode must be one of {MODES}, got {mode!r}")
    if n_rb < 0:
        raise ConfigError("cell.n_rb must be non-negative")


def rr_allocate(
    cell: CellTickState,
    n_rb: int,
    mode: str = "fractional",
    rotation_offset: int = 0,
) -> RbAllocation:
    """Equal-share Round-Robin allocation of n_rb blocks to one cell."""
    _check(n_rb, mode)
    k = len(cell.attached)
    if k == 0:
        return RbAllocation(cell.station_id, cell.t, mode, {})
    if mode == "fractional":
        share = n_rb / k
        shares = {vid: share for vid in cell.attached}
    else:
        base, remainder = divmod(int(n_rb), k)
        shares = {vid: float(base) for vid in cell.attached}
        start = rotation_offset % k
        for i in range(remainder):
            shares[cell.attached[(start + i) % k]] += 1.0
    return RbAllocation(cell.station_id, cell.t, mode, shares)


def rr_shares(t: np.ndarray, cell: np.ndarray, n_rb: int, mode: str) -> np.ndarray:
    """RB share of every row, as rr_allocate(..., rotation_offset=t) gives it.

    Rows are vehicles at ticks ``t`` attached to cells coded ``cell``, in
    (t, vehicle id) order, so a vehicle's rank within its cell and tick is
    its position in the cell's attached tuple.  The share depends only on
    the cell load k (and, in integer mode, on whether the vehicle gets one
    of the remainder blocks), so it is computed in Python once per distinct
    k, exactly as rr_allocate computes it.
    """
    _check(n_rb, mode)
    if not len(t):
        return np.zeros(0)
    # A stable sort keeps each cell's rows in vehicle order.
    order = np.lexsort((cell, t))
    t_sorted, cell_sorted = t[order], cell[order]
    new = np.flatnonzero(np.concatenate((
        [True], (t_sorted[1:] != t_sorted[:-1]) | (cell_sorted[1:] != cell_sorted[:-1])
    )))
    sizes = np.diff(np.append(new, len(t)))
    k = np.empty_like(t)
    k[order] = np.repeat(sizes, sizes)
    loads, k_index = np.unique(k, return_inverse=True)
    if mode == "fractional":
        return np.array([n_rb / load for load in loads.tolist()])[k_index]
    rank = np.empty_like(t)
    rank[order] = np.arange(len(t)) - np.repeat(new, sizes)
    base, remainder = zip(*(divmod(int(n_rb), load) for load in loads.tolist()))
    share = np.array([float(b) for b in base])[k_index]
    extra = (rank - t % k) % k < np.array(remainder)[k_index]
    return np.where(extra, share + 1.0, share)


def vehicle_rate(
    share: float, snr_db: float, speed: float, model: Callable[[float, float], float]
) -> float:
    """Uplink rate of one vehicle holding `share` resource blocks.

    ``model`` is any callable (snr_db, speed) -> bit/s per block, such as
    linkrate.rb_rate with its parameters bound, so alternative rate models
    plug in without touching the scheduler.
    """
    if share < 0:
        raise ConfigError("rb share must be non-negative")
    return share * model(snr_db, speed)
