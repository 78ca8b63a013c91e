"""Round-Robin resource-block allocation within each cell and tick.

Fractional mode grants every attached vehicle exactly n_rb / |attached|
blocks, which models time-sharing within the one-second tick and makes
rates exactly linear in n_rb.  Integer mode deals whole blocks: everyone
gets the floor share and the remainder goes, one block each, to vehicles
starting at the rotation offset in canonical order, so no vehicle id is
systematically favored.

The dealing rule is written once, in rr_shares, which gives the shares of
every row of a whole table at once; rr_allocate is rr_shares on one cell
at one tick.  The dealing loop as first written is kept in
tests/scalar_models.py as the independent oracle both are checked against.
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


def rr_allocate(
    cell: CellTickState,
    n_rb: int,
    mode: str = "fractional",
    rotation_offset: int = 0,
) -> RbAllocation:
    """Equal-share Round-Robin allocation of n_rb blocks to one cell.

    rr_shares over the cell's vehicles, all at tick rotation_offset in one
    cell; the offset must fit int64, as ticks do.
    """
    t = np.full(len(cell.attached), rotation_offset, dtype=np.int64)
    shares = rr_shares(t, np.zeros_like(t), n_rb, mode).tolist()
    return RbAllocation(cell.station_id, cell.t, mode, dict(zip(cell.attached, shares)))


def rr_shares(t: np.ndarray, cell: np.ndarray, n_rb: int, mode: str) -> np.ndarray:
    """RB share of every row: its cell's Round-Robin deal at rotation offset t.

    Rows are vehicles at ticks ``t`` attached to cells coded ``cell``, in
    (t, vehicle id) order, so a vehicle's rank within its cell and tick is
    its position in the cell's attached tuple.  The share depends only on
    the cell load k (and, in integer mode, on whether the vehicle gets one
    of the remainder blocks), so it is computed in Python once per distinct
    k, into a table that each row indexes by its k: n_rb / k, or the floor
    share n_rb // k plus one block for the n_rb % k vehicles ranked from
    t % k on, wrapping round the cell.
    """
    if mode not in MODES:
        raise ConfigError(f"scheduler.mode must be one of {MODES}, got {mode!r}")
    if n_rb < 0:
        raise ConfigError("cell.n_rb must be non-negative")
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
    loads = np.flatnonzero(np.bincount(sizes)).tolist()
    if mode == "fractional":
        table = np.zeros(loads[-1] + 1)
        table[loads] = [n_rb / load for load in loads]
        return table[k]
    rank = np.empty_like(t)
    rank[order] = np.arange(len(t)) - np.repeat(new, sizes)
    base = np.zeros(loads[-1] + 1)
    remainder = np.zeros(loads[-1] + 1, dtype=np.int64)
    for load in loads:
        b, remainder[load] = divmod(int(n_rb), load)
        base[load] = float(b)
    share = base[k]
    extra = (rank - t % k) % k < remainder[k]
    return np.where(extra, share + 1.0, share)


def vehicle_rate(
    share: float, snr_db: float, speed: float, model: Callable[[float, float], float]
) -> float:
    """Uplink rate of one vehicle holding `share` resource blocks.

    ``model`` is a callable (snr_db, speed) -> bit/s per block, such as
    linkrate.rb_rate with its parameters bound.  engine.run does not call
    it: every rate there is linkrate.rb_rates times the share.
    """
    if share < 0:
        raise ConfigError("rb share must be non-negative")
    return share * model(snr_db, speed)
