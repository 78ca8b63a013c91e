"""Vehicle mobility: trace ingestion and a single-lane Krauss generator.

Trajectories are 1 Hz samples of (x, y, speed) per vehicle.  They come from
one of three sources: an external trace CSV, a SUMO floating-car-data XML
export, or the built-in car-following generator.  Every source yields one
TraceTable: id, tick, x, y and speed columns with rows by vehicle id, then
tick, which emit_trace_csv writes in that order and engine.run takes as is.
Synthetic roads are either a straight strip along the x axis (vehicles
injected at the origin) or a ring mapped onto a circle in the plane, so
radio distances are always well defined.
"""

from __future__ import annotations

import csv
import math
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .csvio import INT64_BOUND, check_id, read_columns, records, write_columns
from .errors import ConfigError, ParseError, SimulationError, ValidationError, check_finite

TRACE_CSV_HEADER = ("vehicle_id", "t", "x", "y", "speed")
# Conversion of each trace CSV field by csvio.parse_chunk: ids (None) are kept as read.
_TRACE_CONVERTERS = (None, int, float, float, float)

# Ticks are held as int64 in the trace and result tables.
MAX_TICK = INT64_BOUND - 1

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
        check_finite(self, "krauss.")


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
        check_finite(self, "road.")


def _safe_speed(gap, v_lead, v, params: KraussParams):
    """The Krauss safe speed v_safe of krauss_step's docstring, on floats or arrays."""
    brake = (v_lead + v) / (2.0 * params.b_max) + params.tau
    return v_lead + (gap - v_lead * params.tau) / brake


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
    v_safe = _safe_speed(gap, lead_speed, speed[:m], params)
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
    draws its speed factor first, then all its dawdles in one call: its row
    of the run's draw array, whose column t the vehicle reads at tick t.
    """

    def __init__(self, seed: int, vehicle_index: int):
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(1, vehicle_index))
        )

    def speed_factor(self, speed_dev: float) -> float:
        raw = 1.0 + speed_dev * self._rng.standard_normal()
        return min(max(raw, SPEED_FACTOR_MIN), SPEED_FACTOR_MAX)

    def dawdles(self, steps: int) -> np.ndarray:
        return self._rng.random(steps)


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
    return max(0.0, min(v_free, _safe_speed(gap, rear_speed, rear_speed, params)))


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
    circle of matching circumference with the scalar math.cos and math.sin
    through np.fromiter; numpy's vectorised versions may miss by an ulp.
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
            x = self.radius * np.fromiter(map(math.cos, angles), np.float64, n)
            y = self.radius * np.fromiter(map(math.sin, angles), np.float64, n)
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
    dawdles = np.zeros((len(arrivals), road.duration))  # a row drawn on entry
    recorder = _Recorder(names, ring_length=None)

    # The platoon, ordered back to front.
    vehicles = np.zeros(0, dtype=np.int64)
    position = speed = factor = np.zeros(0)
    next_k = 0
    front_clearance = params.veh_length + params.min_gap
    for t in range(road.duration):
        recorder.record(vehicles, position, speed)
        position, speed = krauss_step(
            position, speed, factor, dawdles[vehicles, t], params, names[vehicles]
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
            dawdles[next_k, t + 1:] = rngs[next_k].dawdles(road.duration - t - 1)
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
    dawdles = np.array([rng.dawdles(road.duration) for rng in rngs])
    recorder = _Recorder(names, ring_length=road.length)

    # The platoon, ordered back to front.
    vehicles = np.arange(count)
    position = np.array([k * spacing for k in range(count)])
    speed = np.zeros(count)
    for t in range(road.duration):
        recorder.record(vehicles, position, speed)
        position, speed = krauss_step(
            position, speed, factor, dawdles[vehicles, t], params, names[vehicles],
            ring_length=road.length,
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


def _check_trace_chunk(lines: list[str], text: str, columns: list) -> None:
    """Raise ValueError where _read_chunks gives up on a chunk of non-blank lines.

    text is the lines joined by commas; a comma adds no quote or line break.
    """
    vid, t, x, y, speed = columns
    if (
        '"' in text
        or text.count("\n") != len(lines) - (not text.endswith("\n"))
        or ("\r" in text and text.count("\r") != text.count("\r\n"))
        or max(map(len, lines)) > csv.field_size_limit()
        or "" in vid
        or not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(speed).all())
        or t.min() < 0
        or speed.min() < 0
    ):
        raise ValueError("a chunk for csv.reader")


def _read_chunks(stream: IO[str]) -> TraceTable:
    """A trace CSV read by csvio.read_columns.

    Gives up, raising ValueError, OverflowError or ValidationError, on a
    header other than ``vehicle_id,t,x,y,speed``, a quote, a line break
    other than one closing ``\n`` or ``\r\n`` per line, a line longer than
    csv's field size limit, a failed row check, a repeated sample or a 1 Hz
    gap.  Without those a split on commas reads each field as csv.reader
    does; check_id rejects only the id "".
    """
    header = ",".join(TRACE_CSV_HEADER)
    if stream.readline() not in (header + "\n", header + "\r\n"):
        raise ValueError("a header for csv.reader")
    vid, t, x, y, speed = read_columns(stream, _TRACE_CONVERTERS, _check_trace_chunk)
    return _trace_table(*id_codes(vid), t, x, y, speed)


def _read_rows(stream: IO[str]) -> TraceTable:
    """A trace CSV read row by row by csv.reader, each row checked as read.

    The first bad line is named; ids are interned, as csvio.parse_chunk interns them.
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
    for lineno, row in records(reader):
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
    write_columns(
        stream, ",".join(TRACE_CSV_HEADER),
        [traces.vehicle_id, traces.t, traces.x, traces.y, traces.speed],
    )


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
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ConfigError(f"bin_width must be a positive finite number, got {bin_width!r}")
    counts: dict[float, int] = {}
    for speed in traces.speed.tolist():
        edge = math.floor(speed / bin_width) * bin_width
        counts[edge] = counts.get(edge, 0) + 1
    total = len(traces)
    if total == 0:
        raise ValidationError("cannot build a speed distribution from empty traces")
    return {edge: counts[edge] / total for edge in sorted(counts)}
