"""Common vehicle information model: channels, one-second packages, queues.

Proprietary in-vehicle signals stay in the vehicle and are never
serialized.  Measurement channels harmonize their raw values into SI units
via an affine map, and data packages bundle one interval's channel records
together with ownership and privacy metadata.  Each vehicle owns a FIFO
transmit queue that drains against the uplink capacity of the current tick;
packages are sent atomically or not at all.

Wire format (little-endian, length-prefixed):

    u32  body length (header + records)
    64-byte header:
        16 B package id digest (keyed, so raw vehicle ids never leak)
         8 B pseudonymous vehicle id (keyed 64-bit hash)
         4 B interval_start (u32 seconds)
         1 B duration (u8 seconds)
         2 B record count (u16)
         1 B privacy level (u8)
        16 B owner, zero-padded UTF-8
         8 B checksum (u64 over records + owner + privacy)
         8 B reserved
    16 B per record: channel_id u16, t offset ms u16, value f64, 4 B reserved
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .csvio import INT64_BOUND
from .errors import ConfigError, ValidationError

if TYPE_CHECKING:
    from .engine import TickTable

PRIVACY_LEVELS = ("public", "restricted", "private")

_HEADER_STRUCT = struct.Struct("<16sQIBHB16sQ8x")
_RECORD_STRUCT = struct.Struct("<HHd4x")
_LENGTH_STRUCT = struct.Struct("<I")

assert _HEADER_STRUCT.size == 64
assert _RECORD_STRUCT.size == 16


@dataclass(frozen=True)
class MeasurementChannel:
    """Brand-independent channel with an affine raw->SI map."""

    channel_id: int
    name: str
    si_unit: str
    scale: float = 1.0
    offset: float = 0.0
    sample_rate_hz: float = 1.0

    def __post_init__(self) -> None:
        if self.scale == 0:
            raise ConfigError(f"channel {self.name!r}: scale must be non-zero")
        if not 0 <= self.channel_id <= 0xFFFF:
            raise ConfigError(f"channel {self.name!r}: channel_id must fit u16")


@dataclass(frozen=True)
class ChannelRecord:
    channel_id: int
    t: float
    value: float


@dataclass(frozen=True)
class PackageMeta:
    owner: str = "unknown"
    privacy_level: str = "restricted"
    checksum: int = 0

    def __post_init__(self) -> None:
        if self.privacy_level not in PRIVACY_LEVELS:
            raise ConfigError(f"privacy_level must be one of {PRIVACY_LEVELS}")
        if len(self.owner.encode("utf-8")) > 16:
            raise ValidationError(f"owner {self.owner!r} exceeds 16 bytes")


@dataclass(frozen=True)
class CvimDataPackage:
    package_id: str
    pseudonymous_vehicle_id: int
    interval_start: int
    duration: int
    records: tuple[ChannelRecord, ...]
    payload_bytes: int
    meta: PackageMeta


@dataclass(frozen=True)
class PackagingConfig:
    """Package sizing, channel set and privacy knobs."""

    header_bytes: int = 64
    record_bytes: int = 16
    n_extra_channels: int = 0
    aggregate_ticks: int = 1
    pseudonym_key: str = "car2cloud"
    owner: str = "unknown"
    privacy_level: str = "restricted"

    def __post_init__(self) -> None:
        if self.header_bytes <= 0 or self.record_bytes <= 0:
            raise ConfigError("cvim sizes must be positive")
        if self.n_extra_channels < 0:
            raise ConfigError("cvim.n_extra_channels must be non-negative")
        # The record t-offset field is u16 milliseconds, so one package can
        # span at most 65 whole seconds.
        if not 1 <= self.aggregate_ticks <= 65:
            raise ConfigError("cvim.aggregate_ticks must be in [1, 65]")
        # BLAKE2b takes keys of at most 64 bytes.
        if len(self.pseudonym_key.encode("utf-8")) > 64:
            raise ConfigError("cvim.pseudonym_key must be at most 64 bytes")
        # Queued bytes and sent bits are int64 columns, so the bits of one
        # full package must fit in one.
        bits = 8 * self.payload_bytes(self.records_per_tick * self.aggregate_ticks)
        if bits >= INT64_BOUND:
            raise ConfigError(
                f"cvim.header_bytes={self.header_bytes}, cvim.record_bytes={self.record_bytes}, "
                f"cvim.n_extra_channels={self.n_extra_channels} and "
                f"cvim.aggregate_ticks={self.aggregate_ticks} give packages of {bits} bits, "
                "beyond 64 bits"
            )
        # The metadata PackageMeta puts on the wire.
        if len(self.owner.encode("utf-8")) > 16:
            raise ConfigError(f"cvim.owner must be at most 16 bytes of UTF-8, got {self.owner!r}")
        if self.privacy_level not in PRIVACY_LEVELS:
            raise ConfigError(
                f"cvim.privacy_level must be one of {PRIVACY_LEVELS}, got {self.privacy_level!r}"
            )

    @property
    def records_per_tick(self) -> int:
        """Channel records one vehicle produces in one tick (see tick_records)."""
        return len(BASE_CHANNELS) + self.n_extra_channels

    def payload_bytes(self, n_records: int) -> int:
        """Size of a package holding n_records records."""
        return self.header_bytes + self.record_bytes * n_records


# Channels every tick package carries; extras get ids above 1000.
BASE_CHANNELS = (
    MeasurementChannel(1, "position-x", "m"),
    MeasurementChannel(2, "position-y", "m"),
    MeasurementChannel(3, "speed", "m/s"),
)

DEFAULT_CONFIG = PackagingConfig()


def harmonize(raw_value: float, channel: MeasurementChannel) -> float:
    """Map a proprietary raw value into the channel's SI unit."""
    if not math.isfinite(raw_value):
        raise ValidationError(
            f"channel {channel.name!r}: non-finite raw value {raw_value!r}"
        )
    return raw_value * channel.scale + channel.offset


@lru_cache(maxsize=None)
def pseudonymize(vehicle_id: str, key: str) -> int:
    """Keyed 64-bit hash that replaces the raw vehicle id on the wire."""
    digest = hashlib.blake2b(
        vehicle_id.encode("utf-8"), key=key.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def _owner_field(owner: str) -> bytes:
    return owner.encode("utf-8").ljust(16, b"\0")


def _records_blob(records: Iterable[ChannelRecord], interval_start: int) -> bytes:
    parts = []
    for rec in records:
        offset_ms = round((rec.t - interval_start) * 1000.0)
        parts.append(_RECORD_STRUCT.pack(rec.channel_id, offset_ms, rec.value))
    return b"".join(parts)


def checksum(
    records: Iterable[ChannelRecord], meta_owner: str, privacy_level: str, interval_start: int
) -> int:
    """64-bit integrity checksum over the records and metadata."""
    h = hashlib.blake2b(digest_size=8)
    h.update(_records_blob(records, interval_start))
    h.update(_owner_field(meta_owner))
    h.update(bytes([PRIVACY_LEVELS.index(privacy_level)]))
    return int.from_bytes(h.digest(), "little")


def package(
    vehicle_id: str,
    interval_start: int,
    records: Iterable[ChannelRecord],
    config: PackagingConfig = DEFAULT_CONFIG,
    duration: int = 1,
) -> CvimDataPackage:
    """Bundle one interval's records into a data package.

    Records must fall inside [interval_start, interval_start + duration).
    """
    recs = tuple(records)
    for rec in recs:
        if not interval_start <= rec.t < interval_start + duration:
            raise ValidationError(
                f"record (channel {rec.channel_id}, t={rec.t}) outside interval "
                f"[{interval_start}, {interval_start + duration})"
            )
        if not math.isfinite(rec.value):
            raise ValidationError(
                f"record (channel {rec.channel_id}, t={rec.t}) has non-finite value"
            )
    meta = PackageMeta(
        owner=config.owner,
        privacy_level=config.privacy_level,
        checksum=checksum(recs, config.owner, config.privacy_level, interval_start),
    )
    return CvimDataPackage(
        package_id=f"{vehicle_id}@{interval_start}",
        pseudonymous_vehicle_id=pseudonymize(vehicle_id, config.pseudonym_key),
        interval_start=interval_start,
        duration=duration,
        records=recs,
        payload_bytes=config.payload_bytes(len(recs)),
        meta=meta,
    )


def tick_records(
    t: int, x: float, y: float, speed: float, config: PackagingConfig = DEFAULT_CONFIG
) -> list[ChannelRecord]:
    """Channel records one vehicle at (x, y) with the given speed produces in tick t."""
    records = [
        ChannelRecord(BASE_CHANNELS[0].channel_id, float(t), x),
        ChannelRecord(BASE_CHANNELS[1].channel_id, float(t), y),
        ChannelRecord(BASE_CHANNELS[2].channel_id, float(t), speed),
    ]
    for i in range(config.n_extra_channels):
        records.append(ChannelRecord(1000 + i, float(t), 0.0))
    return records


def _package_id_digest(package_id: str, key: str) -> bytes:
    return hashlib.blake2b(
        package_id.encode("utf-8"), key=key.encode("utf-8"), digest_size=16
    ).digest()


def serialize_package(
    pkg: CvimDataPackage, config: PackagingConfig = DEFAULT_CONFIG
) -> bytes:
    """Serialize to the length-prefixed binary wire format.

    The readable package id is replaced by a keyed digest so serialized
    bytes never contain the raw vehicle id.
    """
    blob = _records_blob(pkg.records, pkg.interval_start)
    header = _HEADER_STRUCT.pack(
        _package_id_digest(pkg.package_id, config.pseudonym_key),
        pkg.pseudonymous_vehicle_id,
        pkg.interval_start,
        pkg.duration,
        len(pkg.records),
        PRIVACY_LEVELS.index(pkg.meta.privacy_level),
        _owner_field(pkg.meta.owner),
        pkg.meta.checksum,
    )
    return _LENGTH_STRUCT.pack(len(header) + len(blob)) + header + blob


def parse_package(
    data: bytes, config: PackagingConfig = DEFAULT_CONFIG
) -> CvimDataPackage:
    """Parse one serialized package and verify its checksum."""
    if len(data) < _LENGTH_STRUCT.size:
        raise ValidationError("truncated package: missing length prefix")
    (body_len,) = _LENGTH_STRUCT.unpack_from(data, 0)
    body = data[_LENGTH_STRUCT.size : _LENGTH_STRUCT.size + body_len]
    if len(body) != body_len:
        raise ValidationError("truncated package body")
    if body_len < _HEADER_STRUCT.size:
        raise ValidationError("package body shorter than header")
    (
        pid_digest,
        pseudonym,
        interval_start,
        duration,
        count,
        privacy_idx,
        owner_raw,
        stored_checksum,
    ) = _HEADER_STRUCT.unpack_from(body, 0)
    if privacy_idx >= len(PRIVACY_LEVELS):
        raise ValidationError(f"unknown privacy level code {privacy_idx}")
    expected = _HEADER_STRUCT.size + count * _RECORD_STRUCT.size
    if body_len != expected:
        raise ValidationError(
            f"package body length {body_len} does not match {count} records"
        )
    records = []
    for i in range(count):
        channel_id, offset_ms, value = _RECORD_STRUCT.unpack_from(
            body, _HEADER_STRUCT.size + i * _RECORD_STRUCT.size
        )
        records.append(ChannelRecord(channel_id, interval_start + offset_ms / 1000.0, value))
    owner = owner_raw.rstrip(b"\0").decode("utf-8")
    privacy = PRIVACY_LEVELS[privacy_idx]
    actual = checksum(records, owner, privacy, interval_start)
    if actual != stored_checksum:
        raise ValidationError(
            f"package checksum mismatch (stored {stored_checksum:#x}, "
            f"computed {actual:#x})"
        )
    return CvimDataPackage(
        package_id=pid_digest.hex(),
        pseudonymous_vehicle_id=pseudonym,
        interval_start=interval_start,
        duration=duration,
        records=tuple(records),
        payload_bytes=config.payload_bytes(count),
        meta=PackageMeta(owner=owner, privacy_level=privacy, checksum=stored_checksum),
    )


class TransmitQueue:
    """Per-vehicle FIFO of pending packages.

    Entries are (payload_bytes, package_id) pairs, so a caller that only
    tracks sizes queues them with push_size; such entries have no id.
    """

    def __init__(self, vehicle_id: str):
        self.vehicle_id = vehicle_id
        self._entries: deque[tuple[int, str | None]] = deque()
        self._bytes = 0

    def push(self, pkg: CvimDataPackage) -> None:
        self._entries.append((pkg.payload_bytes, pkg.package_id))
        self._bytes += pkg.payload_bytes

    def push_size(self, payload_bytes: int) -> None:
        """Queue a package known only by its size."""
        self._entries.append((payload_bytes, None))
        self._bytes += payload_bytes

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def queued_bytes(self) -> int:
        return self._bytes

    def _head(self) -> tuple[int, str | None] | None:
        return self._entries[0] if self._entries else None

    def _pop(self) -> None:
        size, _ = self._entries.popleft()
        self._bytes -= size


def try_transmit(queue: TransmitQueue, capacity_bits: int) -> tuple[list[str | None], int]:
    """Drain the queue against this tick's capacity, whole packages only.

    Service stops at the first package that does not fit; nothing is
    fragmented or reordered past it.  Returns the sent package ids (None
    for entries queued by size) and the capacity left over.
    """
    if capacity_bits < 0:
        raise ConfigError("capacity_bits must be non-negative")
    remaining = capacity_bits
    sent: list[str | None] = []
    while True:
        head = queue._head()
        if head is None or head[0] * 8 > remaining:
            return sent, remaining
        queue._pop()
        remaining -= head[0] * 8
        sent.append(head[1])


def drain_queues(
    pushed: np.ndarray, capacity: np.ndarray, vehicle: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every vehicle's FIFO queue over its rows, as try_transmit drains it.

    Row i queues a package of pushed[i] bytes (none where it is 0), then
    sends whole packages from the head of its vehicle's queue while they
    fit in capacity[i] bits.  Each vehicle's rows, those of one code in
    vehicle, are consecutive and in tick order.  pushed and capacity are
    int64 arrays whose pushed bits sum to less than 2**62, so that no sum
    here overflows and a capacity of 2**62 holds them all, or object
    arrays of Python ints.  Returns the bits sent and the bytes left
    queued after each row, of their dtype.

    Whole packages leave in order, so the bits a vehicle has sent always
    equal the running total of its pushed bits at some row.  A row sends
    up to the largest such total within its capacity of the bits already
    sent and no more than the bits pushed so far.  Step j drains the j-th
    row of every vehicle that has one, so the steps are as many as the
    longest vehicle's rows, however deep its queue.
    """
    n = len(pushed)
    # pushed_bits[i + 1] is the bits pushed up to row i, over all vehicles.
    pushed_bits = np.zeros(n + 1, dtype=pushed.dtype)
    np.multiply(pushed, 8, out=pushed_bits[1:])
    np.cumsum(pushed_bits, out=pushed_bits)
    first_row = np.ones(n, dtype=bool)
    first_row[1:] = vehicle[1:] != vehicle[:-1]
    starts = np.flatnonzero(first_row)
    lengths = np.diff(starts, append=n)
    # Longest first: alive[j] vehicles have a j-th row, and they come first.
    longest = np.argsort(-lengths)
    starts, lengths = starts[longest], lengths[longest]
    alive = np.searchsorted(-lengths, -np.arange(lengths.max(initial=0)))
    ahead = pushed_bits[starts]
    sent = np.empty(n, dtype=pushed.dtype)
    queued = np.empty(n, dtype=pushed.dtype)
    for j, count in enumerate(alive.tolist()):
        row = starts[:count] + j
        now = pushed_bits[row + 1]
        fits = np.searchsorted(pushed_bits, ahead[:count] + capacity[row], "right") - 1
        reach = np.minimum(pushed_bits[fits], now)
        sent[row] = reach - ahead[:count]
        queued[row] = (now - reach) // 8
        ahead[:count] = reach
    return sent, queued


def count_packages_per_cell(table: TickTable) -> dict[str, float]:
    """Mean packages generated per traversal, per cell.

    A traversal is a maximal run of consecutive ticks a vehicle stays
    attached to one station; its packages are the sum of packages_generated
    over those ticks.  That is one per tick without aggregation, and one per
    aggregate_ticks window (or departure) with it.  Cells that never see a
    vehicle are absent from the result.
    """
    if not len(table):
        raise ValidationError("no tick results: nothing ever traversed a cell")
    vehicle = table.vehicle_id.codes
    station_ids, station = table.serving_station
    # Rows by vehicle, then tick; a stable sort keeps repeated ticks in order.
    order = np.lexsort((table.t, vehicle))
    vehicle, station, t = vehicle[order], station[order], table.t[order]
    starts = np.flatnonzero(np.concatenate((
        [True],
        (vehicle[1:] != vehicle[:-1]) | (station[1:] != station[:-1]) | (t[1:] != t[:-1] + 1),
    )))
    packages = np.add.reduceat(table.packages_generated[order], starts)
    # Totals below 2**53 are exact in float64, so their quotients are int / int's.
    totals = np.bincount(station[starts], weights=packages, minlength=len(station_ids))
    counts = np.bincount(station[starts], minlength=len(station_ids))
    return dict(zip(station_ids, (totals / counts).tolist()))

