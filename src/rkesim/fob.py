"""Key-fob transmitter model.

A fob is a value object, an immutable ``NamedTuple``: every button
press returns a new state with the counter advanced and the frame that
went on the air.  Presses never consult the vehicle; the radio link is
one-directional.
"""

from __future__ import annotations

from typing import NamedTuple

from .codebook import (
    COUNTER_MOD,
    Instruction,
    Payload,
    Transmission,
    discrimination_for,
    encode,
    timestamp_tag,
)


class FobState(NamedTuple):
    # A NamedTuple, not a dataclass: one is built per press, and a tuple
    # builds in about half the time.  ``Payload`` and ``Transmission``
    # stay dataclasses because ``receive()`` reads their fields on every
    # frame, and a NamedTuple field read is about twice as slow.
    serial: int
    key: bytes
    counter: int = 0
    clock_skew_ms: int = 0
    emit_timestamps: bool = False


def press(fob: FobState, button: Instruction, now: int) -> tuple[FobState, Transmission]:
    """Press a button: increment the counter (wrapping at 16 bits) and emit.

    The emitted frame carries the post-increment counter, so two presses
    in a row produce consecutive counter values.  The embedded timestamp,
    when enabled, reads the fob's own clock (receiver time plus skew).
    """
    serial, key, counter, clock_skew_ms, emit_timestamps = fob  # one unpack: no field reads
    counter = (counter + 1) % COUNTER_MOD
    timestamp = signature = None
    if emit_timestamps:
        timestamp = now + clock_skew_ms
        signature = timestamp_tag(key, serial, timestamp)
    payload = Payload(
        counter=counter,
        button=button,
        discrimination=discrimination_for(key, serial),
        timestamp=timestamp,
        signature=signature,
    )
    transmission = encode(key, serial, payload)
    return FobState(serial, key, counter, clock_skew_ms, emit_timestamps), transmission
