"""Simulated RF medium.

One shared broadcast channel per scenario.  Jamming is deterministic
and perfect: while active, nothing reaches the receiver, but passive
capture is unaffected.  A capture is the overheard ``Transmission``
itself: each subscriber gets a plain list of the frames it heard, in
order, so replays are bit-identical to what was captured.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codebook import Transmission

VICTIM = "victim"
ATTACKER = "attacker"


@dataclass(frozen=True)
class DeliveryRecord:
    transmission: Transmission
    at: int
    sender: str
    delivered: bool
    jammed: bool
    captured: bool


class ChannelState:
    __slots__ = ("jamming_active", "subscribers")

    def __init__(self) -> None:
        self.jamming_active = False
        self.subscribers: dict[str, list[Transmission]] = {}


def subscribe(channel: ChannelState, attacker_id: str) -> list[Transmission]:
    """Attach a passive listener; returns the list its captures land in."""
    return channel.subscribers.setdefault(attacker_id, [])


def set_jamming(channel: ChannelState, on: bool) -> None:
    """Toggle jamming; affects subsequent transmissions only."""
    channel.jamming_active = on


def transmit(
    channel: ChannelState,
    transmission: Transmission,
    now: int,
    sender: str = VICTIM,
    out_of_range: bool = False,
    fob_in_attacker_range: bool = True,
) -> DeliveryRecord:
    """Put a frame on the air.

    Capture happens for every victim emission the attacker can hear,
    jammed or not; attacker replays are not re-captured.  Delivery to
    the receiver requires the fob in range and the band clear.
    """
    jammed = channel.jamming_active
    delivered = not jammed and not out_of_range
    captured = (
        sender == VICTIM and fob_in_attacker_range and bool(channel.subscribers)
    )
    if captured:
        for captures in channel.subscribers.values():
            captures.append(transmission)
    return DeliveryRecord(
        transmission=transmission,
        at=now,
        sender=sender,
        delivered=delivered,
        jammed=jammed,
        captured=captured,
    )
