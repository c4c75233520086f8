"""Simulated RF medium: one delivery rule.

One shared broadcast channel per scenario.  The engine holds its state:
whether jamming is on and, once an attacker listens, the list of frames
it captured.  ``transmit`` is the rule.  Jamming is deterministic and
perfect: while active, nothing reaches the receiver, but passive capture
is unaffected.  A capture is the overheard ``Transmission`` itself, so
replays are bit-identical to what was captured.
"""

from __future__ import annotations

from .codebook import Transmission

VICTIM = "victim"
ATTACKER = "attacker"


def transmit(
    jamming: bool,
    captures: list[Transmission] | None,
    transmission: Transmission,
    sender: str = VICTIM,
    out_of_range: bool = False,
    fob_in_attacker_range: bool = True,
) -> tuple[bool, bool]:
    """Put a frame on the air; returns ``(delivered, captured)``.

    ``captures`` is ``None`` while nobody listens.  Capture happens for
    every victim emission the listener can hear, jammed or not, and
    appends the frame to ``captures``; attacker replays are not
    re-captured.  Delivery to the receiver requires the fob in range and
    the band clear.
    """
    captured = sender == VICTIM and fob_in_attacker_range and captures is not None
    if captured:
        captures.append(transmission)
    return not jamming and not out_of_range, captured
