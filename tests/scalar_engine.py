"""Test oracle: the per-row simulation loop engine.run replaced.

run here is the scalar loop of car2cloud's engine before its columnar
kernels: per-tick screen, scalar snr or best_link per row, one
rr_allocate per cell and tick, vehicle_rate with rb_rate per row, and a
TransmitQueue drained by try_transmit.  snr, best_link and rb_rate are the
scalar formulas of scalar_models.
Tests compare the results CSV bytes of engine.run against it.  drain_sizes
is the per-vehicle queue loop that cvim.drain_queues replaced.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from car2cloud import cvim, scheduler
from car2cloud.cvim import TransmitQueue
from car2cloud.engine import SimConfig, TickTable
from car2cloud.errors import ConfigError, ValidationError
from car2cloud.mobility import TraceTable, id_codes
from car2cloud.radio import BaseStation, screen_links
from scalar_models import best_link, rb_rate, snr


def run(config: SimConfig, traces: TraceTable, stations: Sequence[BaseStation]) -> TickTable:
    """Execute the tick loop over all traces; rows ordered by (t, vehicle_id)."""
    stations = sorted(stations, key=lambda s: str(s.station_id))
    if not stations:
        raise ConfigError("simulation needs at least one base station")
    model = partial(rb_rate, params=config.rate)
    pkg_cfg = config.packaging
    # Package metadata is checked here once, as no package object is built.
    cvim.PackageMeta(owner=pkg_cfg.owner, privacy_level=pkg_cfg.privacy_level)
    n_rb = config.effective_n_rb
    mode = config.scheduler_mode

    names, vehicle = id_codes(traces.vehicle_id)
    order = np.lexsort((vehicle, traces.t))
    ticks, vehicle = traces.t[order], vehicle[order]
    state = np.column_stack((traces.x, traces.y, traces.speed))[order]
    finite = np.isfinite(state).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValidationError(
            f"vehicle {names[vehicle[i]]!r} at t={ticks[i]}: non-finite position or speed"
        )
    last_tick = np.full(len(names), np.iinfo(np.int64).min)
    np.maximum.at(last_tick, vehicle, ticks)
    departing = ticks == last_tick[vehicle]
    # The rows of one tick are rows[start:stop] for consecutive bounds.
    _, starts = np.unique(ticks, return_index=True)
    bounds = [*starts.tolist(), len(ticks)]

    # Queues hold package sizes: a package carries the records of the ticks
    # buffered since the vehicle's last flush (one tick unless aggregating).
    queues = [TransmitQueue(vid) for vid in names]
    buffered = [0] * len(names)
    serving: list[str] = []
    snrs: list[float] = []
    rb_shares: list[float] = []
    rates: list[float] = []
    generated: list[int] = []
    sent: list[int] = []
    queued: list[int] = []

    for start, stop in zip(bounds, bounds[1:]):
        t = int(ticks[start])
        present = vehicle[start:stop].tolist()
        rows = state[start:stop]
        winners, unsure = screen_links(rows[:, :2], stations, config.link)
        cells: dict[str, list[str]] = {}
        for v, (x, y, _), winner, needs_scalar in zip(
            present, rows.tolist(), winners.tolist(), unsure.tolist()
        ):
            if needs_scalar:
                station, link = best_link((x, y), stations, config.link)
            else:
                station = stations[winner]
                link = snr((x, y), station, config.link)
            serving.append(station.station_id)
            snrs.append(link.snr)
            cells.setdefault(station.station_id, []).append(names[v])
        shares: dict[str, float] = {}
        for sid in sorted(cells):
            cell = scheduler.CellTickState(sid, t, tuple(cells[sid]))
            allocation = scheduler.rr_allocate(cell, n_rb, mode, rotation_offset=t)
            shares.update(allocation.shares)
        for v, speed, snr_db, last in zip(
            present, rows[:, 2].tolist(), snrs[start:stop], departing[start:stop].tolist()
        ):
            share = shares[names[v]]
            rate = scheduler.vehicle_rate(share, snr_db, speed, model)
            queue = queues[v]
            buffered[v] += 1
            flush = (t + 1) % pkg_cfg.aggregate_ticks == 0 or last
            if flush:
                queue.push_size(pkg_cfg.payload_bytes(pkg_cfg.records_per_tick * buffered[v]))
                buffered[v] = 0
            generated.append(int(flush))
            capacity = int(rate * config.tick)
            _, remaining = cvim.try_transmit(queue, capacity)
            rb_shares.append(share)
            rates.append(rate)
            sent.append(capacity - remaining)
            queued.append(queue.queued_bytes)
    return TickTable(
        t=ticks,
        vehicle_id=list(map(names.__getitem__, vehicle.tolist())),
        serving_station=serving,
        snr_db=np.array(snrs, dtype=np.float64),
        rb_share=np.array(rb_shares, dtype=np.float64),
        rate_bps=np.array(rates, dtype=np.float64),
        packages_generated=np.array(generated, dtype=np.int64),
        bits_sent=np.array(sent, dtype=np.int64),
        queue_bytes=np.array(queued, dtype=np.int64),
    )


def drain_sizes(pushed: Iterable[int], capacity: Iterable[int]) -> tuple[list[int], list[int]]:
    """One vehicle's FIFO queue over its rows, in tick order, on plain ints.

    Row i queues a package of pushed[i] bytes (none where pushed[i] is 0)
    and then drains the queue against capacity[i] bits as try_transmit
    does: whole packages from the head while they fit.  Returns the bits
    sent and the bytes left queued after each row.
    """
    queue: deque[int] = deque()
    queued = 0
    sent_bits: list[int] = []
    queued_bytes: list[int] = []
    for size, cap in zip(pushed, capacity):
        if size:
            queue.append(size)
            queued += size
        sent = 0
        while queue and sent + queue[0] * 8 <= cap:
            sent += queue[0] * 8
            queued -= queue.popleft()
        sent_bits.append(sent)
        queued_bytes.append(queued)
    return sent_bits, queued_bytes
