"""Key-fob transmitter model.

A fob is a value object: every button press returns a new state with
the counter advanced and the frame that went on the air.  Presses never
consult the vehicle; the radio link is one-directional.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codebook import (
    COUNTER_MOD,
    Instruction,
    Payload,
    Transmission,
    discrimination_for,
    encode,
    timestamp_tag,
)


@dataclass(frozen=True)
class FobState:
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
    counter = (fob.counter + 1) % COUNTER_MOD
    timestamp = signature = None
    if fob.emit_timestamps:
        timestamp = now + fob.clock_skew_ms
        signature = timestamp_tag(fob.key, fob.serial, timestamp)
    payload = Payload(
        counter=counter,
        button=button,
        discrimination=discrimination_for(fob.key, fob.serial),
        timestamp=timestamp,
        signature=signature,
    )
    transmission = encode(fob.key, fob.serial, payload)
    next_fob = FobState(
        serial=fob.serial,
        key=fob.key,
        counter=counter,
        clock_skew_ms=fob.clock_skew_ms,
        emit_timestamps=fob.emit_timestamps,
    )
    return next_fob, transmission
