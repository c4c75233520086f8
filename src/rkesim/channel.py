"""Simulated RF medium.

One shared broadcast channel per scenario.  Jamming is deterministic
and perfect: while active, nothing reaches the receiver, but passive
capture is unaffected.  Subscribers see ciphertext bytes only; replays
are bit-identical to what was captured.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codebook import Transmission

VICTIM = "victim"
ATTACKER = "attacker"


@dataclass(frozen=True)
class CaptureEntry:
    transmission: Transmission
    captured_at: int


class CaptureLog:
    """Append-only log of frames an attacker overheard."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[CaptureEntry] = []

    def append(self, transmission: Transmission, captured_at: int) -> int:
        self.entries.append(CaptureEntry(transmission, captured_at))
        return len(self.entries) - 1

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: int) -> CaptureEntry:
        return self.entries[index]


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
        self.subscribers: dict[str, CaptureLog] = {}


def subscribe(channel: ChannelState, attacker_id: str) -> CaptureLog:
    """Attach a passive listener; returns its capture log."""
    log = channel.subscribers.get(attacker_id)
    if log is None:
        log = CaptureLog()
        channel.subscribers[attacker_id] = log
    return log


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
        for log in channel.subscribers.values():
            log.append(transmission, now)
    return DeliveryRecord(
        transmission=transmission,
        at=now,
        sender=sender,
        delivered=delivered,
        jammed=jammed,
        captured=captured,
    )
