"""Vehicle mobility: trace ingestion and a single-lane Krauss generator.

Trajectories are 1 Hz samples of (x, y, speed) per vehicle.  They come from
one of three sources: an external trace CSV, a SUMO floating-car-data XML
export, or the built-in car-following generator.  Every source yields one
TraceTable: id, tick, x, y and speed columns with rows by vehicle id, then
tick, which emit_trace_csv writes in that order and engine.run takes as is.
Synthetic roads are either a straight strip along the x axis (vehicles
injected at the origin) or a ring mapped onto a circle in the plane, so
radio distances are always well defined.

parse_trace_csv reads a trace CSV with parse_chunk, the column parser
engine.read_results_csv shares, a chunk of about READ_CHUNK_BYTES at a time.
Where that gives up (on a file csv.reader could read otherwise than a split
on commas, or on any bad row), it reads the file again from the start, row
by row with csv.reader, which names the first bad line.

The CSV codecs (both readers, and write_chunks, the writer loop of
emit_trace_csv, engine.write_results_csv and analysis.write_cdf_csv) run
their chunks through ordered_map, which hands every other chunk to a forked
worker when a second CPU is available.  Output bytes, tables and errors are
the same either way.
"""

from __future__ import annotations

import csv
import gc
import math
import os
import pickle
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ParseError, SimulationError, ValidationError

TRACE_CSV_HEADER = ("vehicle_id", "t", "x", "y", "speed")
# Conversion of each trace CSV field by parse_chunk: ids (None) are kept as read.
_TRACE_CONVERTERS = (None, int, float, float, float)

# Ids are written unquoted into comma-separated outputs, so these characters
# would split or break a row there.
ID_FORBIDDEN_CHARS = ',"\r\n'

# Ticks are held as int64 in the trace and result tables.
MAX_TICK = (1 << 63) - 1

# Bytes of CSV lines read (and parsed) at a time by parse_trace_csv and
# engine.read_results_csv.
READ_CHUNK_BYTES = 1 << 20
# Rows formatted per chunk by write_chunks, about 1 MB of results CSV text.
# Float repr is most of the cost, so larger chunks are no faster; their
# transient row strings only raise the peak RSS, and each chunk's text is
# one message from ordered_map's worker.
WRITE_CHUNK_ROWS = 1 << 13

_DTYPES = {int: np.int64, float: np.float64}


def check_id(value: str, where: str, what: str) -> None:
    """Reject an id that is empty or that a CSV output could not hold as one field."""
    if not value:
        raise ParseError(f"{where}: empty {what}")
    if any(c in value for c in ID_FORBIDDEN_CHARS):
        raise ValidationError(
            f"{where}: {what} {value!r} contains a comma, quote or line break"
        )

# Per-vehicle desired-speed factors are clamped to keep pathological normal
# draws out of the dynamics; the 0.1 deviation only fixes the spread.
SPEED_FACTOR_MIN = 0.7
SPEED_FACTOR_MAX = 1.3


@dataclass(frozen=True, eq=False)
class TraceTable:
    """1 Hz samples of (x, y, speed) of every vehicle, as columns.

    ``vehicle_id`` is a list of str holding one shared object per vehicle,
    ``t`` an int64 array and ``x``, ``y`` and ``speed`` float64 arrays, all
    of one length; row i is the i-th entry of every column.  Producers give
    rows in canonical order: by vehicle id string, then by tick, with each
    vehicle's ticks consecutive.
    """

    vehicle_id: list[str]
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray

    def __len__(self) -> int:
        return len(self.vehicle_id)


def id_codes(ids: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct ids, and each id's index among them."""
    distinct = sorted(set(ids))
    index = {value: i for i, value in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))


def parse_chunk(lines: list[str], converters: Sequence) -> list:
    """Columns of a chunk of non-blank CSV lines, one per converter.

    The chunk is split once on commas and each column converted as a whole:
    by int into an int64 array, by float into a float64 array, and where
    the converter is None kept as interned strings, so each distinct value
    is held once.  Raises ValueError if a line has not one field per
    converter or a field does not convert, and OverflowError if an integer
    does not fit in int64.
    """
    width = len(converters)
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        raise ValueError(f"a line without {width} fields")
    fields = ",".join(lines).split(",")
    columns: list = []
    for i, convert in enumerate(converters):
        column = fields[i::width]
        if convert is None:
            columns.append(list(map(sys.intern, column)))
        else:
            columns.append(
                np.fromiter(map(convert, column), dtype=_DTYPES[convert], count=len(lines))
            )
    return columns


def join_chunks(chunks: list[list], converters: Sequence) -> list:
    """Each column of parse_chunk's chunks, concatenated in chunk order.

    Ids are interned again: a chunk unpickled from ordered_map's worker
    holds copies of its own.
    """
    columns: list = []
    for i, convert in enumerate(converters):
        parts = [chunk[i] for chunk in chunks]
        if convert is None:
            columns.append(list(map(sys.intern, chain.from_iterable(parts))))
        else:
            columns.append(np.concatenate(parts) if parts else np.zeros(0, _DTYPES[convert]))
    return columns


def _send(pipe: IO[bytes], data: bytes) -> None:
    """Write one message: its length, then its bytes."""
    pipe.write(len(data).to_bytes(8, "little"))
    pipe.write(data)
    pipe.flush()


def _receive(pipe: IO[bytes]) -> bytes | None:
    """The next message _send wrote to the pipe, or None if the pipe ends first."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return data if len(head) == 8 and len(data) == size else None


_END = object()


def ordered_map(fn: Callable, items: Iterable) -> Iterator:
    """map(fn, items), with every odd item computed by a forked worker.

    The worker is forked only where os.sched_getaffinity grants two CPUs or
    more, and only for two items or more.  It has fn, and whatever fn
    reads, through the fork; each odd item goes to it, and its result comes
    back, pickled over a pipe, while this process computes the even item
    before it.  An item the worker fails on, and every item after the
    worker is gone, is computed here, so an exception is raised here, at
    the item map would raise it at.  The worker leaves only through
    os._exit, so it never flushes an inherited stream, and it is reaped
    when the iteration ends, also when the consumer stops early.
    """
    items = iter(items)
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        yield from map(fn, items)
        return
    pair = list(islice(items, 2))
    if len(pair) < 2:
        yield from map(fn, pair)
        return
    even, odd = pair
    del pair  # so that each item is freed once it is done with
    down_r, down_w = os.pipe()
    up_r, up_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: compute every item here
        for fd in (down_r, down_w, up_r, up_w):
            os.close(fd)
        yield from map(fn, chain((even, odd), items))
        return
    if pid == 0:
        try:
            gc.disable()  # a collection could finalize, so flush, an inherited file
            os.close(down_w)
            os.close(up_r)
            with os.fdopen(down_r, "rb") as inbox, os.fdopen(up_w, "wb") as outbox:
                while (item := _receive(inbox)) is not None:
                    try:
                        reply = (True, fn(pickle.loads(item)))
                        _send(outbox, pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
                    except Exception:
                        _send(outbox, pickle.dumps((False, None)))
        finally:
            os._exit(0)
    os.close(down_r)
    os.close(up_w)
    inbox, outbox = os.fdopen(up_r, "rb"), os.fdopen(down_w, "wb")
    alive = True
    try:
        while odd is not _END:
            # Kept pickled, so that its objects are freed before fn(even) runs.
            odd = pickle.dumps(odd, pickle.HIGHEST_PROTOCOL)
            if alive:
                try:
                    _send(outbox, odd)
                except BrokenPipeError:
                    alive = False
            yield fn(even)
            reply = _receive(inbox) if alive else None
            alive = reply is not None
            ok, result = pickle.loads(reply) if reply else (False, None)
            yield result if ok else fn(pickle.loads(odd))
            even = next(items, _END)
            odd = next(items, _END)
        if even is not _END:
            yield fn(even)
    finally:
        try:
            outbox.close()
        except BrokenPipeError:  # what the worker did not read yet
            pass
        inbox.close()
        os.waitpid(pid, 0)


def write_chunks(stream: IO[str], n_rows: int, format_rows: Callable[[slice], str]) -> None:
    """Write format_rows(rows) for each slice of WRITE_CHUNK_ROWS rows, in order."""
    chunks = [slice(lo, lo + WRITE_CHUNK_ROWS) for lo in range(0, n_rows, WRITE_CHUNK_ROWS)]
    stream.writelines(ordered_map(format_rows, chunks))


def _trace_table(names: list[str], code: np.ndarray, t, x, y, speed) -> TraceTable:
    """Samples of vehicles names[code] as a table in canonical order.

    ``t``, ``x``, ``y`` and ``speed`` are sequences or arrays, row for row
    with ``code``.  A 1 Hz gap, or a repeated sample, names the smallest
    vehicle id that has one, and its first gap.
    """
    t = np.asarray(t, dtype=np.int64)
    order = np.lexsort((t, code))
    code, t = code[order], t[order]
    gaps = np.flatnonzero((code[1:] == code[:-1]) & (t[1:] - t[:-1] != 1))
    if gaps.size:
        i = int(gaps[0])
        raise ValidationError(
            f"vehicle {names[code[i]]!r}: samples not on a 1 Hz grid "
            f"(ticks {t[i]} -> {t[i + 1]})"
        )
    x, y, speed = (np.asarray(c, dtype=np.float64)[order] for c in (x, y, speed))
    return TraceTable(list(map(names.__getitem__, code.tolist())), t, x, y, speed)


@dataclass(frozen=True)
class KraussParams:
    """Car-follower parameters; defaults are the highway measurement set."""

    a_max: float = 1.5        # m/s^2 maximum acceleration
    b_max: float = 4.5        # m/s^2 maximum deceleration
    v_max: float = 36.11      # m/s (130 km/h)
    sigma: float = 0.5        # driver imperfection in [0, 1]
    tau: float = 1.0          # s driver reaction time
    min_gap: float = 2.5      # m standstill gap
    veh_length: float = 5.0   # m
    speed_dev: float = 0.1    # per-vehicle speed-factor std deviation

    def __post_init__(self) -> None:
        for name in ("a_max", "b_max", "v_max", "tau", "min_gap", "veh_length"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"krauss.{name} must be positive")
        if not 0.0 <= self.sigma <= 1.0:
            raise ConfigError("krauss.sigma must be in [0, 1]")
        if self.speed_dev < 0:
            raise ConfigError("krauss.speed_dev must be non-negative")


@dataclass(frozen=True)
class RoadSpec:
    """Synthetic road geometry and demand.

    ``inflow`` is vehicles/hour on a strip and the vehicle count on a ring.
    """

    topology: str = "strip"
    length: float = 10_000.0
    inflow: float = 1000.0
    duration: int = 600
    seed: int = 1

    def __post_init__(self) -> None:
        if self.topology not in ("strip", "ring"):
            raise ConfigError(f"road.topology must be strip or ring, got {self.topology!r}")
        if self.length <= 0:
            raise ConfigError("road.length must be positive")
        if self.inflow <= 0:
            raise ConfigError("road.inflow must be positive")
        if self.topology == "ring" and not float(self.inflow).is_integer():
            raise ConfigError(
                f"road.inflow is the vehicle count on a ring, got {self.inflow!r}"
            )
        if self.duration < 0:
            raise ConfigError("road.duration must be non-negative")
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ConfigError(f"sim.seed must be non-negative, got {self.seed}")


def krauss_step(
    position: np.ndarray,
    speed: np.ndarray,
    factor: np.ndarray,
    dawdle: np.ndarray,
    params: KraussParams,
    ids: Sequence[str],
    ring_length: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance an ordered platoon (index 0 = rearmost) by one 1 s tick.

    Every vehicle follows the Krauss safe-speed model.  With gap
    g = x_leader - x_follower - length - min_gap the safe speed is

        v_safe = v_l + (g - v_l*tau) / ((v_l + v) / (2*b_max) + tau)

    and the new speed is the desired speed min(v_max*factor, v + a_max,
    v_safe) reduced by the random imperfection sigma*a_max*dawdle, floored
    at zero.  The frontmost vehicle of a strip has no leader; on a ring of
    more than one vehicle the rearmost leads the frontmost, one lap ahead,
    and new positions wrap into [0, ring_length).  ``ids`` name the vehicles
    in an overlap error.

    The operations follow the scalar formula's order and every min/max keeps
    the operand Python's min/max would keep, so results equal the scalar
    model bit for bit; np.maximum(0.0, -0.0), unlike max, returns -0.0.
    """
    v_free = params.v_max * factor
    v_acc = speed + params.a_max
    v_des = np.where(v_acc < v_free, v_acc, v_free)
    n = len(position)
    if ring_length is not None and n > 1:
        lead_pos = np.append(position[1:], position[0] + ring_length)
        lead_speed = np.append(speed[1:], speed[0])
    else:
        lead_pos, lead_speed = position[1:], speed[1:]
    m = len(lead_pos)  # vehicles with a leader
    gap = lead_pos - position[:m] - params.veh_length - params.min_gap
    overlap = np.flatnonzero(gap < 0)
    if overlap.size:
        i = int(overlap[0])
        raise SimulationError(
            f"vehicles {ids[i]} and {ids[(i + 1) % n]} overlap (gap {gap[i]:.3f} m)"
        )
    v = speed[:m]
    v_safe = lead_speed + (gap - lead_speed * params.tau) / (
        (lead_speed + v) / (2.0 * params.b_max) + params.tau
    )
    v_des[:m] = np.where(v_safe < v_des[:m], v_safe, v_des[:m])
    v_new = v_des - params.sigma * params.a_max * dawdle
    v_new = np.where(v_new > 0.0, v_new, 0.0)
    new_position = position + v_new
    if ring_length is not None:
        new_position = np.fmod(new_position, ring_length)
    return new_position, v_new


class _VehicleRng:
    """Per-vehicle random stream keyed by (seed, vehicle index).

    Splitting per vehicle makes every vehicle's imperfection draws
    independent of insertion order, which keeps whole runs reproducible
    even if the set of simultaneously active vehicles changes.  A vehicle
    draws its speed factor first, then all its dawdles in one call; the
    j-th dawdle is used in the vehicle's j-th step.
    """

    def __init__(self, seed: int, vehicle_index: int):
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(1, vehicle_index))
        )

    def speed_factor(self, speed_dev: float) -> float:
        raw = 1.0 + speed_dev * self._rng.standard_normal()
        return min(max(raw, SPEED_FACTOR_MIN), SPEED_FACTOR_MAX)

    def dawdles(self, steps: int) -> list[float]:
        return self._rng.random(steps).tolist()


def _entry_speed(
    rear_position: float, rear_speed: float, factor: float, params: KraussParams
) -> float:
    """Speed assigned to a vehicle entering the strip behind the rear vehicle.

    Entrants obey the same safe-speed law as everyone else, evaluated
    against the rearmost vehicle already on the road.
    """
    v_free = params.v_max * factor
    gap = rear_position - params.veh_length - params.min_gap
    if gap < 0:
        raise SimulationError("injection attempted while origin blocked")
    v_safe = rear_speed + (gap - rear_speed * params.tau) / (
        (rear_speed + rear_speed) / (2.0 * params.b_max) + params.tau
    )
    return max(0.0, min(v_free, v_safe))


def _arrival_times(road: RoadSpec) -> list[float]:
    """Exponentially spaced arrival times for the strip inflow process."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=road.seed, spawn_key=(0,)))
    rate = road.inflow / 3600.0
    times: list[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= road.duration:
            return times
        times.append(t)


class _Recorder:
    """Platoon snapshots, appended one tick's arrays at a time.

    A strip position is x with y = 0; a ring position is mapped onto a
    circle of matching circumference with the scalar math.cos and math.sin,
    whose results numpy's vectorised versions may miss by an ulp.
    """

    def __init__(self, names: np.ndarray, ring_length: float | None):
        self.names = names
        self.radius = None if ring_length is None else ring_length / (2.0 * math.pi)
        self.ticks: list[tuple[np.ndarray, ...]] = []  # (vehicle, t, x, y, speed) per tick

    def record(self, vehicles: np.ndarray, position: np.ndarray, speed: np.ndarray) -> None:
        """Snapshot of the next tick, the first being tick 0."""
        n = len(vehicles)
        if self.radius is None:
            x, y = position, np.zeros(n)
        else:
            angles = (position / self.radius).tolist()
            x = np.array([self.radius * c for c in map(math.cos, angles)], dtype=np.float64)
            y = np.array([self.radius * s for s in map(math.sin, angles)], dtype=np.float64)
        self.ticks.append((vehicles, np.full(n, len(self.ticks), dtype=np.int64), x, y, speed))

    def table(self) -> TraceTable:
        """Every recorded sample, in canonical order."""
        if not self.ticks:
            return _trace_table([], np.zeros(0, dtype=np.int64), [], [], [], [])
        vehicle, t, x, y, speed = map(np.concatenate, zip(*self.ticks))
        # Vehicle names are unique, so their codes rank them by id string.
        names, rank = id_codes(self.names.tolist())
        return _trace_table(names, rank[vehicle], t, x, y, speed)


def _vehicle_names(count: int) -> np.ndarray:
    return np.array([f"veh{k:04d}" for k in range(count)], dtype=object)


def _generate_strip(road: RoadSpec, params: KraussParams) -> TraceTable:
    """Strip run: arrivals enter at the origin, traces end past the far end.

    The arrival process is continuous, so entries happen at sub-tick
    instants and the 1 Hz grid merely samples the road.  The origin counts
    as blocked while the rearmost vehicle is inside the entry envelope
    min_gap + veh_length + speed * tau: nothing can materialize within a
    driver's reaction headway, and entries therefore always satisfy the
    safe-speed law at full platoon speed, which lets the road actually
    reach single-lane capacity under jam demand.
    """
    arrivals = _arrival_times(road)
    names = _vehicle_names(len(arrivals))
    rngs = [_VehicleRng(road.seed, k) for k in range(len(arrivals))]
    factors = [rng.speed_factor(params.speed_dev) for rng in rngs]
    dawdles: dict[int, Iterator[float]] = {}  # drawn on entry
    recorder = _Recorder(names, ring_length=None)

    # The platoon, ordered back to front.
    vehicles = np.zeros(0, dtype=np.int64)
    position = speed = factor = np.zeros(0)
    next_k = 0
    front_clearance = params.veh_length + params.min_gap
    for t in range(road.duration):
        recorder.record(vehicles, position, speed)
        dawdle = np.array([next(dawdles[k]) for k in vehicles.tolist()])
        position, speed = krauss_step(
            position, speed, factor, dawdle, params, names[vehicles]
        )
        # Entries during (t, t+1] appear in the t+1 sample set.  Positions
        # within the window are linear at the post-step speed, matching the
        # discrete position update.
        entered: list[tuple[int, float, float]] = []  # (k, position, speed), rear last
        rear = (float(position[0]), float(speed[0])) if len(vehicles) else None
        while (
            next_k < len(arrivals)
            and arrivals[next_k] <= t + 1
            and t + 1 <= road.duration - 1
        ):
            entry_offset = max(arrivals[next_k] - t, 0.0)
            if rear is not None:
                rear_pos, v_r = rear
                rear_window_start = rear_pos - v_r
                envelope = front_clearance + v_r * params.tau
                if v_r <= 0.0:
                    if rear_window_start < envelope:
                        break
                else:
                    entry_offset = max(
                        entry_offset, (envelope - rear_window_start) / v_r
                    )
            if entry_offset >= 1.0:
                break
            if rear is None:
                v_in = params.v_max * factors[next_k]
            else:
                v_in = _entry_speed(
                    rear_window_start + v_r * entry_offset, v_r, factors[next_k], params
                )
            rear = (v_in * (1.0 - entry_offset), v_in)
            entered.append((next_k, *rear))
            # one draw for each of its steps, at ticks t+1 .. duration-1
            dawdles[next_k] = iter(rngs[next_k].dawdles(road.duration - t - 1))
            next_k += 1
        if entered:
            entered.reverse()
            ks = [e[0] for e in entered]
            vehicles = np.concatenate([ks, vehicles])
            position = np.concatenate([[e[1] for e in entered], position])
            speed = np.concatenate([[e[2] for e in entered], speed])
            factor = np.concatenate([[factors[k] for k in ks], factor])
        on_road = position <= road.length
        if not on_road.all():
            vehicles, position, speed, factor = (
                a[on_road] for a in (vehicles, position, speed, factor)
            )
    return recorder.table()


def _generate_ring(road: RoadSpec, params: KraussParams) -> TraceTable:
    count = int(road.inflow)
    spacing = road.length / count
    if spacing < params.veh_length + params.min_gap:
        raise ConfigError(
            f"ring of {road.length} m cannot hold {count} vehicles "
            f"(need {params.veh_length + params.min_gap} m each)"
        )
    names = _vehicle_names(count)
    rngs = [_VehicleRng(road.seed, k) for k in range(count)]
    factor = np.array([rng.speed_factor(params.speed_dev) for rng in rngs])
    dawdles = [iter(rng.dawdles(road.duration)) for rng in rngs]
    recorder = _Recorder(names, ring_length=road.length)

    # The platoon, ordered back to front.
    vehicles = np.arange(count)
    position = np.array([k * spacing for k in range(count)])
    speed = np.zeros(count)
    for _ in range(road.duration):
        recorder.record(vehicles, position, speed)
        dawdle = np.array([next(dawdles[k]) for k in vehicles.tolist()])
        position, speed = krauss_step(
            position, speed, factor, dawdle, params, names[vehicles], ring_length=road.length
        )
        order = np.argsort(position, kind="stable")
        vehicles, position, speed, factor = (
            a[order] for a in (vehicles, position, speed, factor)
        )
    return recorder.table()


def generate_traces(road: RoadSpec, params: KraussParams | None = None) -> TraceTable:
    """Run the car-following generator and return its samples as a TraceTable.

    Deterministic for equal (road, params) including the seed.  Strip
    vehicles live on the x axis (y = 0); ring positions are mapped onto a
    circle of matching circumference.
    """
    params = params or KraussParams()
    if road.topology == "strip":
        return _generate_strip(road, params)
    return _generate_ring(road, params)


def _trace_chunk(lines: list[str]) -> list | None:
    """parse_chunk's columns of a chunk of trace CSV lines, None if all are blank.

    Raises ValueError or OverflowError where _read_chunks gives up.
    """
    text = "".join(lines)
    if (
        '"' in text
        or text.count("\n") != len(lines) - (not text.endswith("\n"))
        or ("\r" in text and text.count("\r") != text.count("\r\n"))
        or max(map(len, lines)) > csv.field_size_limit()
    ):
        raise ValueError("a chunk for csv.reader")
    if "\n" in lines or "\r\n" in lines:
        lines = [line for line in lines if line not in ("\n", "\r\n")]
    if not lines:
        return None
    vid, t, x, y, speed = chunk = parse_chunk(lines, _TRACE_CONVERTERS)
    if "" in vid or not (
        np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(speed).all()
        and t.min() >= 0 and speed.min() >= 0
    ):
        raise ValueError("a row fails a check")
    return chunk


def _read_chunks(stream: IO[str]) -> TraceTable:
    """A trace CSV read by parse_chunk, READ_CHUNK_BYTES of lines at a time.

    Gives up, raising ValueError, OverflowError or ValidationError without
    naming a line, on a header other than ``vehicle_id,t,x,y,speed``, a
    quote, a line break other than one closing ``\n`` or ``\r\n`` per line,
    a line longer than csv's field size limit, a row that fails a check, a
    repeated sample or a 1 Hz gap.  Without those a split on commas reads
    each field as csv.reader does, and the only id check_id rejects is "".
    """
    header = ",".join(TRACE_CSV_HEADER)
    if stream.readline() not in (header + "\n", header + "\r\n"):
        raise ValueError("a header for csv.reader")
    chunks = ordered_map(_trace_chunk, iter(partial(stream.readlines, READ_CHUNK_BYTES), []))
    vid, t, x, y, speed = join_chunks(list(filter(None, chunks)), _TRACE_CONVERTERS)
    return _trace_table(*id_codes(vid), t, x, y, speed)


def _read_rows(stream: IO[str]) -> TraceTable:
    """A trace CSV read row by row by csv.reader, each row checked as read.

    The first bad line is named; ids are interned, as parse_chunk interns them.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("trace CSV is empty (missing header)") from None
    if tuple(h.strip() for h in header) != TRACE_CSV_HEADER:
        raise ParseError(f"bad trace CSV header: {','.join(header)!r}")
    vids, ts, xs, ys, speeds = [], [], [], [], []
    known: set[str] = set()
    seen: set[tuple[str, int]] = set()
    next_lineno = reader.line_num + 1
    for row in reader:
        # A record starts on the line after the last one read: a quoted
        # field may hold line breaks.
        lineno, next_lineno = next_lineno, reader.line_num + 1
        if not row:
            continue
        if len(row) != 5:
            raise ParseError(f"line {lineno}: expected 5 fields, got {len(row)}")
        try:
            t = int(row[1])
            x, y, speed = float(row[2]), float(row[3]), float(row[4])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        vid = sys.intern(row[0])
        if vid not in known:
            check_id(vid, f"line {lineno}", "vehicle_id")
            known.add(vid)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(speed)):
            raise ValidationError(f"line {lineno}: non-finite x, y or speed")
        if t < 0:
            raise ValidationError(f"line {lineno}: negative tick {t}")
        if t > MAX_TICK:
            raise ValidationError(f"line {lineno}: tick {t} exceeds 64 bits")
        if speed < 0:
            raise ValidationError(f"line {lineno}: negative speed {speed}")
        if (vid, t) in seen:
            raise ValidationError(f"line {lineno}: duplicate sample ({vid!r}, t={t})")
        seen.add((vid, t))
        vids.append(vid)
        ts.append(t)
        xs.append(x)
        ys.append(y)
        speeds.append(speed)
    return _trace_table(*id_codes(vids), ts, xs, ys, speeds)


def parse_trace_csv(stream: IO[str]) -> TraceTable:
    """Read a trace CSV (header ``vehicle_id,t,x,y,speed``), rows in any order.

    Where the stream can seek back to where it starts, _read_chunks reads
    it first; if that gives up, or the stream cannot seek back (it is not
    seekable, or ``tell`` fails, as it does on a text file iterated with
    ``next``), _read_rows reads it from the start.  Either way the table,
    or the error and the line it names, is the row-by-row reader's.
    """
    try:
        start = stream.tell() if stream.seekable() else None
    except OSError:
        start = None
    if start is not None:
        try:
            return _read_chunks(stream)
        except (ValueError, OverflowError, ValidationError):
            stream.seek(start)
    return _read_rows(stream)


def emit_trace_csv(traces: TraceTable, stream: IO[str]) -> None:
    """Write traces in the canonical CSV schema; round-trips via parse_trace_csv."""
    stream.write(",".join(TRACE_CSV_HEADER) + "\n")

    def format_rows(rows: slice) -> str:
        columns = (c[rows].tolist() for c in (traces.t, traces.x, traces.y, traces.speed))
        return "".join(
            f"{vid},{t},{x!r},{y!r},{speed!r}\n"
            for vid, t, x, y, speed in zip(traces.vehicle_id[rows], *columns)
        )

    write_chunks(stream, len(traces), format_rows)


def parse_fcd_xml(stream: IO) -> TraceTable:
    """Read the SUMO floating-car-data export subset.

    Only ``<timestep time="..">`` elements with ``<vehicle id x y speed/>``
    children are interpreted; anything else is ignored.  Timesteps must fall
    on whole seconds.
    """
    try:
        root = ET.parse(stream).getroot()
    except ET.ParseError as exc:
        raise ParseError(f"bad FCD XML: {exc}") from None
    vids, ts, xs, ys, speeds = [], [], [], [], []
    seen: set[tuple[str, int]] = set()
    for timestep in root.iter("timestep"):
        raw_t = timestep.get("time")
        if raw_t is None:
            raise ParseError("timestep: missing required attribute 'time'")
        try:
            t_float = float(raw_t)
        except ValueError:
            raise ParseError(f"timestep[time={raw_t!r}]: not a number") from None
        if t_float % 1 != 0:  # also true of inf and nan
            raise ValidationError(
                f"timestep time={raw_t}: not a whole second (traces are 1 Hz)"
            )
        t = int(t_float)
        if t < 0:
            raise ValidationError(f"timestep time={raw_t}: negative tick")
        if t > MAX_TICK:
            raise ValidationError(f"timestep time={raw_t}: tick exceeds 64 bits")
        for vehicle in timestep.iter("vehicle"):
            attrs = {}
            for name in ("id", "x", "y", "speed"):
                value = vehicle.get(name)
                if value is None:
                    raise ParseError(
                        f"timestep[time={raw_t!r}]/vehicle: missing required "
                        f"attribute {name!r}"
                    )
                attrs[name] = value
            path = f"timestep[time={raw_t!r}]/vehicle[id={attrs['id']!r}]"
            check_id(attrs["id"], path, "vehicle id")
            try:
                x, y, speed = (float(attrs[k]) for k in ("x", "y", "speed"))
            except ValueError as exc:
                raise ParseError(f"timestep[time={raw_t!r}]/vehicle: {exc}") from None
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(speed)):
                raise ValidationError(f"{path}: non-finite x, y or speed")
            if speed < 0:
                raise ValidationError(
                    f"vehicle {attrs['id']!r} at t={t}: negative speed {speed}"
                )
            if (attrs["id"], t) in seen:
                raise ValidationError(
                    f"duplicate sample ({attrs['id']!r}, t={t}) in FCD input"
                )
            seen.add((attrs["id"], t))
            vids.append(attrs["id"])
            ts.append(t)
            xs.append(x)
            ys.append(y)
            speeds.append(speed)
    return _trace_table(*id_codes(vids), ts, xs, ys, speeds)


def speed_distribution(traces: TraceTable, bin_width: float) -> dict[float, float]:
    """Histogram of all sample speeds: bin lower edge -> probability."""
    if bin_width <= 0:
        raise ConfigError("bin_width must be positive")
    counts: dict[float, int] = {}
    for speed in traces.speed.tolist():
        edge = math.floor(speed / bin_width) * bin_width
        counts[edge] = counts.get(edge, 0) + 1
    total = len(traces)
    if total == 0:
        raise ValidationError("cannot build a speed distribution from empty traces")
    return {edge: counts[edge] / total for edge in sorted(counts)}
