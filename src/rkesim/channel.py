"""Simulated RF medium.

One shared broadcast channel per scenario.  Jamming is deterministic
and perfect: while active, nothing reaches the receiver, but passive
capture is unaffected.  A capture is the overheard ``Transmission``
itself: the one listener gets a plain list of the frames it heard, in
order, so replays are bit-identical to what was captured.
"""

from __future__ import annotations

from typing import NamedTuple

from .codebook import Transmission

VICTIM = "victim"
ATTACKER = "attacker"


class DeliveryRecord(NamedTuple):
    delivered: bool
    jammed: bool
    captured: bool


class ChannelState:
    __slots__ = ("jamming_active", "captures")

    def __init__(self) -> None:
        self.jamming_active = False
        self.captures: list[Transmission] | None = None  # None: nobody listens


def subscribe(channel: ChannelState) -> list[Transmission]:
    """Attach the passive listener; returns the list its captures land in."""
    if channel.captures is None:
        channel.captures = []
    return channel.captures


def set_jamming(channel: ChannelState, on: bool) -> None:
    """Toggle jamming; affects subsequent transmissions only."""
    channel.jamming_active = on


def transmit(
    channel: ChannelState,
    transmission: Transmission,
    sender: str = VICTIM,
    out_of_range: bool = False,
    fob_in_attacker_range: bool = True,
) -> DeliveryRecord:
    """Put a frame on the air.

    Capture happens for every victim emission the listener can hear,
    jammed or not; attacker replays are not re-captured.  Delivery to
    the receiver requires the fob in range and the band clear.
    """
    jammed = channel.jamming_active
    captures = channel.captures
    captured = sender == VICTIM and fob_in_attacker_range and captures is not None
    if captured:
        captures.append(transmission)
    return DeliveryRecord(not jammed and not out_of_range, jammed, captured)
