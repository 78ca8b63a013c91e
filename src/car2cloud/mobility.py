"""Vehicle mobility: trace ingestion and a single-lane Krauss generator.

Trajectories are 1 Hz samples of (x, y, speed) per vehicle.  They come from
one of three sources: an external trace CSV, a SUMO floating-car-data XML
export, or the built-in car-following generator.  Synthetic roads are either
a straight strip along the x axis (vehicles injected at the origin) or a
ring mapped onto a circle in the plane, so radio distances are always well
defined.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass, replace
from typing import IO, Iterable

import numpy as np

from .errors import ConfigError, ParseError, SimulationError, ValidationError

TRACE_CSV_HEADER = ("vehicle_id", "t", "x", "y", "speed")

# Ids are written unquoted into comma-separated outputs, so these characters
# would split or break a row there.
ID_FORBIDDEN_CHARS = ',"\r\n'


def check_id(value: str, where: str, what: str) -> None:
    """Reject an id that the CSV outputs could not hold as one field."""
    if any(c in value for c in ID_FORBIDDEN_CHARS):
        raise ValidationError(
            f"{where}: {what} {value!r} contains a comma, quote or line break"
        )

# Per-vehicle desired-speed factors are clamped to keep pathological normal
# draws out of the dynamics; the 0.1 deviation only fixes the spread.
SPEED_FACTOR_MIN = 0.7
SPEED_FACTOR_MAX = 1.3


@dataclass(frozen=True)
class TraceSample:
    """One vehicle's kinematic state at one whole-second tick."""

    vehicle_id: str
    t: int
    x: float
    y: float
    speed: float


@dataclass(frozen=True)
class VehicleTrace:
    """All samples of one vehicle, sorted by tick, strictly 1 Hz."""

    vehicle_id: str
    samples: tuple[TraceSample, ...]

    def __len__(self) -> int:
        return len(self.samples)


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


@dataclass
class VehicleKinematicState:
    """Internal generator state: position is the front bumper along the road."""

    vehicle_id: str
    position: float
    speed: float
    desired_speed_factor: float = 1.0


def krauss_step(
    follower: VehicleKinematicState,
    leader: VehicleKinematicState | None,
    params: KraussParams,
    dt: float = 1.0,
    rng_draw: float = 0.0,
) -> VehicleKinematicState:
    """Advance one vehicle by one tick of the Krauss safe-speed model.

    With gap g = x_leader - x_follower - length - min_gap the safe speed is

        v_safe = v_l + (g - v_l*tau) / ((v_l + v) / (2*b_max) + tau)

    and the new speed is the desired speed min(v_max*factor, v + a_max*dt,
    v_safe) reduced by the random imperfection sigma*a_max*dt*rng_draw,
    floored at zero.  ``leader`` positions must already be linearized (ring
    wrap-around resolved by the caller).
    """
    v = follower.speed
    v_des = min(params.v_max * follower.desired_speed_factor, v + params.a_max * dt)
    if leader is not None:
        gap = leader.position - follower.position - params.veh_length - params.min_gap
        if gap < 0:
            raise SimulationError(
                f"vehicles {follower.vehicle_id} and {leader.vehicle_id} overlap "
                f"(gap {gap:.3f} m)"
            )
        v_l = leader.speed
        v_safe = v_l + (gap - v_l * params.tau) / (
            (v_l + v) / (2.0 * params.b_max) + params.tau
        )
        v_des = min(v_des, v_safe)
    v_new = max(0.0, v_des - params.sigma * params.a_max * dt * rng_draw)
    return replace(follower, position=follower.position + v_new * dt, speed=v_new)


class _VehicleRng:
    """Per-vehicle random stream keyed by (seed, vehicle index).

    Splitting per vehicle makes every vehicle's imperfection draws
    independent of insertion order, which keeps whole runs reproducible
    even if the set of simultaneously active vehicles changes.
    """

    def __init__(self, seed: int, vehicle_index: int):
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(1, vehicle_index))
        )

    def speed_factor(self, speed_dev: float) -> float:
        raw = 1.0 + speed_dev * self._rng.standard_normal()
        return min(max(raw, SPEED_FACTOR_MIN), SPEED_FACTOR_MAX)

    def dawdle(self) -> float:
        return float(self._rng.random())


@dataclass
class _ActiveVehicle:
    state: VehicleKinematicState
    rng: _VehicleRng
    samples: list[TraceSample]


def _entry_speed(
    leader: VehicleKinematicState | None, factor: float, params: KraussParams
) -> float:
    """Speed assigned to a vehicle entering the strip at the origin.

    Entrants obey the same safe-speed law as everyone else, evaluated
    against the rearmost vehicle already on the road; free entries start
    at their own desired speed.
    """
    v_free = params.v_max * factor
    if leader is None:
        return v_free
    gap = leader.position - params.veh_length - params.min_gap
    if gap < 0:
        raise SimulationError("injection attempted while origin blocked")
    v_l = leader.speed
    v_safe = v_l + (gap - v_l * params.tau) / (
        (v_l + v_l) / (2.0 * params.b_max) + params.tau
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


def _step_all(active: list[_ActiveVehicle], params: KraussParams, ring_length: float | None) -> None:
    """Synchronous Krauss update of an ordered platoon (index 0 = rearmost)."""
    n = len(active)
    new_states = []
    for i, veh in enumerate(active):
        if ring_length is not None and n > 1:
            nxt = active[(i + 1) % n].state
            leader = replace(
                nxt,
                position=nxt.position + (ring_length if i == n - 1 else 0.0),
            )
        elif ring_length is None and i < n - 1:
            leader = active[i + 1].state
        else:
            leader = None
        new_states.append(
            krauss_step(veh.state, leader, params, dt=1.0, rng_draw=veh.rng.dawdle())
        )
    for veh, state in zip(active, new_states):
        if ring_length is not None:
            state = replace(state, position=state.position % ring_length)
        veh.state = state


def _record(active: list[_ActiveVehicle], t: int) -> None:
    for veh in active:
        s = veh.state
        veh.samples.append(TraceSample(s.vehicle_id, t, s.position, 0.0, s.speed))


def _generate_strip(road: RoadSpec, params: KraussParams) -> list[_ActiveVehicle]:
    """Strip run: arrivals enter at the origin, traces end past the far end.

    The arrival process is continuous, so entries happen at sub-tick
    instants and the 1 Hz grid merely samples the road.  The origin counts
    as blocked while the rearmost vehicle is inside the entry envelope
    min_gap + veh_length + speed * tau: nothing can materialize within a
    driver's reaction headway, and entries therefore always satisfy the
    safe-speed law at full platoon speed, which lets the road actually
    reach single-lane capacity under jam demand.
    """
    pending = deque(
        (
            arrival,
            _ActiveVehicle(
                VehicleKinematicState(f"veh{k:04d}", 0.0, 0.0),
                _VehicleRng(road.seed, k),
                [],
            ),
        )
        for k, arrival in enumerate(_arrival_times(road))
    )
    for _, veh in pending:
        veh.state.desired_speed_factor = veh.rng.speed_factor(params.speed_dev)

    done: list[_ActiveVehicle] = []
    active: list[_ActiveVehicle] = []  # ordered back to front
    front_clearance = params.veh_length + params.min_gap
    for t in range(road.duration):
        _record(active, t)
        _step_all(active, params, ring_length=None)
        # Entries during (t, t+1] appear in the t+1 sample set.  Positions
        # within the window are linear at the post-step speed, matching the
        # discrete position update.
        while pending and pending[0][0] <= t + 1 and t + 1 <= road.duration - 1:
            arrival, veh = pending[0]
            rear = active[0].state if active else None
            entry_offset = max(arrival - t, 0.0)
            if rear is not None:
                v_r = rear.speed
                rear_window_start = rear.position - v_r
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
            pending.popleft()
            if rear is None:
                speed = params.v_max * veh.state.desired_speed_factor
            else:
                rear_at_entry = VehicleKinematicState(
                    rear.vehicle_id, rear_window_start + v_r * entry_offset, v_r
                )
                speed = _entry_speed(
                    rear_at_entry, veh.state.desired_speed_factor, params
                )
            veh.state.speed = speed
            veh.state.position = speed * (1.0 - entry_offset)
            active.insert(0, veh)
        still_on = []
        for veh in active:
            if veh.state.position > road.length:
                done.append(veh)
            else:
                still_on.append(veh)
        active = still_on
    done.extend(active)
    return [v for v in done if v.samples]


def _generate_ring(road: RoadSpec, params: KraussParams) -> list[_ActiveVehicle]:
    count = int(road.inflow)
    spacing = road.length / count
    if spacing < params.veh_length + params.min_gap:
        raise ConfigError(
            f"ring of {road.length} m cannot hold {count} vehicles "
            f"(need {params.veh_length + params.min_gap} m each)"
        )
    active = [
        _ActiveVehicle(
            VehicleKinematicState(f"veh{k:04d}", k * spacing, 0.0),
            _VehicleRng(road.seed, k),
            [],
        )
        for k in range(count)
    ]
    for veh in active:
        veh.state.desired_speed_factor = veh.rng.speed_factor(params.speed_dev)
    for t in range(road.duration):
        _record(active, t)
        _step_all(active, params, ring_length=road.length)
        active.sort(key=lambda v: v.state.position)
    return active


def _ring_xy(position: float, length: float) -> tuple[float, float]:
    radius = length / (2.0 * math.pi)
    angle = position / radius
    return radius * math.cos(angle), radius * math.sin(angle)


def generate_traces(road: RoadSpec, params: KraussParams | None = None) -> list[VehicleTrace]:
    """Run the car-following generator and return traces sorted by vehicle id.

    Deterministic for equal (road, params) including the seed.  Strip
    vehicles live on the x axis (y = 0); ring positions are mapped onto a
    circle of matching circumference.
    """
    params = params or KraussParams()
    if road.topology == "strip":
        finished = _generate_strip(road, params)
        traces = [
            VehicleTrace(v.samples[0].vehicle_id, tuple(v.samples)) for v in finished
        ]
    else:
        finished = _generate_ring(road, params)
        traces = []
        for v in finished:
            mapped = []
            for s in v.samples:
                x, y = _ring_xy(s.x, road.length)
                mapped.append(replace(s, x=x, y=y))
            if mapped:
                traces.append(VehicleTrace(mapped[0].vehicle_id, tuple(mapped)))
    traces.sort(key=lambda tr: tr.vehicle_id)
    return traces


def _build_traces(samples: Iterable[TraceSample]) -> list[VehicleTrace]:
    """Group samples per vehicle, sort by tick, enforce the 1 Hz contract."""
    by_vehicle: dict[str, list[TraceSample]] = {}
    for s in samples:
        by_vehicle.setdefault(s.vehicle_id, []).append(s)
    traces = []
    for vid in sorted(by_vehicle):
        rows = sorted(by_vehicle[vid], key=lambda s: s.t)
        for prev, cur in zip(rows, rows[1:]):
            if cur.t - prev.t != 1:
                raise ValidationError(
                    f"vehicle {vid!r}: samples not on a 1 Hz grid "
                    f"(ticks {prev.t} -> {cur.t})"
                )
        traces.append(VehicleTrace(vid, tuple(rows)))
    return traces


def parse_trace_csv(stream: IO[str]) -> list[VehicleTrace]:
    """Read a trace CSV (header ``vehicle_id,t,x,y,speed``), rows in any order."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("trace CSV is empty (missing header)") from None
    if tuple(h.strip() for h in header) != TRACE_CSV_HEADER:
        raise ParseError(f"bad trace CSV header: {','.join(header)!r}")
    samples: list[TraceSample] = []
    seen: set[tuple[str, int]] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise ParseError(f"line {lineno}: expected 5 fields, got {len(row)}")
        vid = row[0]
        try:
            t = int(row[1])
            x, y, speed = float(row[2]), float(row[3]), float(row[4])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if not vid:
            raise ParseError(f"line {lineno}: empty vehicle_id")
        check_id(vid, f"line {lineno}", "vehicle_id")
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(speed)):
            raise ValidationError(f"line {lineno}: non-finite x, y or speed")
        if t < 0:
            raise ValidationError(f"line {lineno}: negative tick {t}")
        if speed < 0:
            raise ValidationError(f"line {lineno}: negative speed {speed}")
        if (vid, t) in seen:
            raise ValidationError(f"line {lineno}: duplicate sample ({vid!r}, t={t})")
        seen.add((vid, t))
        samples.append(TraceSample(vid, t, x, y, speed))
    return _build_traces(samples)


def emit_trace_csv(traces: Iterable[VehicleTrace], stream: IO[str]) -> None:
    """Write traces in the canonical CSV schema; round-trips via parse_trace_csv."""
    stream.write(",".join(TRACE_CSV_HEADER) + "\n")
    for trace in traces:
        for s in trace.samples:
            stream.write(f"{s.vehicle_id},{s.t},{s.x!r},{s.y!r},{s.speed!r}\n")


def parse_fcd_xml(stream: IO) -> list[VehicleTrace]:
    """Read the SUMO floating-car-data export subset.

    Only ``<timestep time="..">`` elements with ``<vehicle id x y speed/>``
    children are interpreted; anything else is ignored.  Timesteps must fall
    on whole seconds.
    """
    try:
        root = ET.parse(stream).getroot()
    except ET.ParseError as exc:
        raise ParseError(f"bad FCD XML: {exc}") from None
    samples: list[TraceSample] = []
    seen: set[tuple[str, int]] = set()
    for timestep in root.iter("timestep"):
        raw_t = timestep.get("time")
        if raw_t is None:
            raise ParseError("timestep: missing required attribute 'time'")
        try:
            t_float = float(raw_t)
        except ValueError:
            raise ParseError(f"timestep[time={raw_t!r}]: not a number") from None
        if t_float != int(t_float):
            raise ValidationError(
                f"timestep time={raw_t}: not a whole second (traces are 1 Hz)"
            )
        t = int(t_float)
        if t < 0:
            raise ValidationError(f"timestep time={raw_t}: negative tick")
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
            samples.append(TraceSample(attrs["id"], t, x, y, speed))
    return _build_traces(samples)


def speed_distribution(
    traces: Iterable[VehicleTrace], bin_width: float
) -> dict[float, float]:
    """Histogram of all sample speeds: bin lower edge -> probability."""
    if bin_width <= 0:
        raise ConfigError("bin_width must be positive")
    counts: dict[float, int] = {}
    total = 0
    for trace in traces:
        for s in trace.samples:
            edge = math.floor(s.speed / bin_width) * bin_width
            counts[edge] = counts.get(edge, 0) + 1
            total += 1
    if total == 0:
        raise ValidationError("cannot build a speed distribution from empty traces")
    return {edge: counts[edge] / total for edge in sorted(counts)}
