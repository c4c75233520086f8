"""Key-fob transmitter model.

A fob is a value object, an immutable ``NamedTuple``: every button
press returns a new state with the counter advanced and the frame that
went on the air.  Presses never consult the vehicle; the radio link is
one-directional.  A frame is a pure function of the fob's key and
serial, the counter, the button and the timestamp, so the last 64
frames pressed are kept and a repeated one skips encoding altogether.
"""

from __future__ import annotations

from functools import lru_cache
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
    timestamp = now + clock_skew_ms if emit_timestamps else None
    return (FobState(serial, key, counter, clock_skew_ms, emit_timestamps),
            _frame(key, serial, counter, button, timestamp))


# Hits come only from probe transcripts that press a frame again: every
# classify call presses the same 2·max_signals probe frames, and every
# oracle search hears the same one transcript.  A fob's counter never
# repeats a frame within a run, so the bound of 64 entries only caps
# memory; it holds the 12 plain and 12 timestamped default probe frames.
# A warm benchmark pass finds here all 12 000 of policy-matrix's frames,
# all 60 of oracle-sweep's (48 on its first pass) and none of
# press-stream's 10 000.  A hit skips the payload, the field checks, the
# rounds and the decode priming: the decode memo keeps what the first
# press's frame decoded to, and no pass runs the inverse rounds.
# ``typed``: a float ``now`` or a str button takes its own entry and the
# path a cold press takes, so a float timestamp still fails to sign.
@lru_cache(maxsize=64, typed=True)
def _frame(key: bytes, serial: int, counter: int, button: Instruction,
           timestamp: int | None) -> Transmission:
    signature = None if timestamp is None else timestamp_tag(key, serial, timestamp)
    return encode(key, serial, Payload(counter, button, discrimination_for(key, serial),
                                       timestamp, signature))
