"""Test oracle: the strip generator's entry rule as it was first written inline.

mobility._generate_strip admits an arrival by _entry_offset, an empty road
being a standing rear vehicle at infinity, and gives the entrant
_entry_speed.  The function here is the inline rule those two replaced,
with its own branches for an empty road and for a standing rear vehicle
and its own copy of the safe-speed law, kept apart so that the check of
the two functions does not compare the code with itself.
"""

from __future__ import annotations

from car2cloud.errors import SimulationError
from car2cloud.mobility import KraussParams


def strip_entry(
    rear: tuple[float, float] | None, arrival_offset: float, factor: float, params: KraussParams
) -> tuple[float, float] | None:
    """(entry offset, entry speed) of the next arrival in a tick's window, or None if it waits.

    ``rear`` is the rearmost vehicle's (position, speed) after the step, or
    None on an empty road; ``arrival_offset`` is max(arrival - t, 0.0).
    """
    front_clearance = params.veh_length + params.min_gap
    entry_offset = arrival_offset
    if rear is not None:
        rear_pos, v_r = rear
        rear_window_start = rear_pos - v_r
        envelope = front_clearance + v_r * params.tau
        if v_r <= 0.0:
            if rear_window_start < envelope:
                return None
        else:
            entry_offset = max(entry_offset, (envelope - rear_window_start) / v_r)
    if entry_offset >= 1.0:
        return None
    v_free = params.v_max * factor
    if rear is None:
        return entry_offset, v_free
    gap = rear_window_start + v_r * entry_offset - params.veh_length - params.min_gap
    if gap < 0:
        raise SimulationError("injection attempted while origin blocked")
    brake = (v_r + v_r) / (2.0 * params.b_max) + params.tau
    v_safe = v_r + (gap - v_r * params.tau) / brake
    return entry_offset, max(0.0, min(v_free, v_safe))
