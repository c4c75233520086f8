"""Attacker strategies.

A strategy is a small state machine behind two callbacks.  The engine
calls ``on_capture(index, now)`` each time the attacker overhears a
victim frame, with ``index`` its position in the capture list.  It
calls ``on_phase(phase, captured, now)`` when the scenario moves the
attacker into a phase (``deploy`` or ``exploit``), with ``captured`` the
number of frames heard so far.  Both answer with commands: toggle the
jammer or schedule the replay of a captured frame.  Attackers never see
keys or receiver internals; everything they send is a byte-identical
copy of something they captured.

Strategies:

* NaiveReplay        - capture passively, replay the last frame heard.
* JamAndReplayLock   - jam the victim's lock press so the car stays
                       open, later replay the captured lock to cover
                       the tracks.
* FutureCode         - collect presses made out of the vehicle's range
                       and replay them before the victim's next press
                       lands (they are still ahead of the receiver).
* RollJam            - jam-capture two presses, immediately replay the
                       first so the car obeys, keep the second as an
                       unused valid code.  Any later delivered press
                       invalidates it.
* RollBack           - capture a run of signals once (optionally
                       jamming the first press to force consecutive
                       retries), then replay them as a sequence any
                       time later to roll the receiver counter back.

An ``ExploitSpec`` is a replay plan, and ``schedule_exploit`` is the one
place that turns it into ``ScheduleReplay`` commands.  The engine runs
those commands; ``execute_exploit`` delivers the same commands straight
into a receiver state and policy, through ``receive()``, and answers
whether the door was unlocked after the last selected frame, before any
relock replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codebook import Transmission
from .receiver import Door, ReceiverPolicy, ReceiverState, receive

DEPLOY = "deploy"
EXPLOIT = "exploit"
_UNLOCKED = Door.UNLOCKED  # an enum member read is slow on 3.11; see receiver


class AttackConfigError(Exception):
    """Exploit parameters reference captures that do not exist."""


@dataclass(frozen=True)
class AttackerPhase:
    """A scenario event that moves the attacker into ``deploy`` or ``exploit``."""

    name: str
    params: dict = field(default_factory=dict)


# --- commands a strategy hands back to the simulation --------------------

@dataclass(frozen=True)
class SetJamming:
    on: bool


@dataclass(frozen=True)
class ScheduleReplay:
    at: int
    capture_index: int


@dataclass(frozen=True)
class ExploitSpec:
    """A concrete replay sequence: which captures, how fast, relock or not."""

    signal_indices: tuple[int, ...]
    inter_replay_gap_ms: int = 1000
    relock: bool = False

    def __post_init__(self) -> None:
        # A negative gap would schedule replays back in time.
        if self.inter_replay_gap_ms < 0:
            raise ValueError("inter_replay_gap_ms must be non-negative")


class AttackerStrategy:
    """Base: answers every capture and every phase with no command.

    Capture indices run 0, 1, 2, ... in capture order, so ``captured``
    names every capture made so far; both callbacks return commands.
    ``options`` names the keyword arguments the constructor takes (the
    scenario's ``[attacker]`` keys) and ``exploit_params`` the
    ``exploit`` phase parameters ``on_phase`` reads; a scenario that
    gives any other is rejected.
    """

    options: tuple[str, ...] = ()
    exploit_params: tuple[str, ...] = ()

    def on_capture(self, index: int, now: int) -> list:
        return []

    def on_phase(self, phase: AttackerPhase, captured: int, now: int) -> list:
        return []


class NaiveReplay(AttackerStrategy):
    def on_phase(self, phase, captured, now):
        if phase.name == EXPLOIT and captured:
            return [ScheduleReplay(now, captured - 1)]
        return []


class JamAndReplayLock(AttackerStrategy):
    def on_phase(self, phase, captured, now):
        if phase.name == DEPLOY:
            return [SetJamming(True)]
        if phase.name == EXPLOIT and captured:
            return [SetJamming(False), ScheduleReplay(now, captured - 1)]
        return []


class FutureCode(AttackerStrategy):
    exploit_params = ("gap_ms",)

    def on_phase(self, phase, captured, now):
        if phase.name != EXPLOIT:
            return []
        spec = ExploitSpec(tuple(range(captured)), phase.params.get("gap_ms", 500))
        return schedule_exploit(spec, now)


class RollJam(AttackerStrategy):
    def __init__(self) -> None:
        self.armed_at: int | None = None  # captures made before the jammer went on
        self.held_index: int | None = None

    def on_capture(self, index, now):
        if self.armed_at is not None and index > self.armed_at:
            first = self.armed_at
            self.armed_at = None
            self.held_index = index
            # Drop the jammer and push out the first captured press in
            # the same step; the vehicle obeys and the victim moves on.
            return [SetJamming(False), ScheduleReplay(now, first)]
        return []

    def on_phase(self, phase, captured, now):
        if phase.name == DEPLOY:
            self.armed_at = captured
            return [SetJamming(True)]
        if phase.name == EXPLOIT and self.held_index is not None:
            return [ScheduleReplay(now, self.held_index)]
        return []


class RollBack(AttackerStrategy):
    options = ("jam_first", "signals_to_capture")
    exploit_params = ("indices", "gap_ms", "relock")

    def __init__(self, jam_first: bool = True, signals_to_capture: int = 2) -> None:
        self.jam_first = jam_first
        self.signals_to_capture = signals_to_capture
        self.armed = False
        self.recon_indices: list[int] = []

    def on_capture(self, index, now):
        if not self.armed:
            return []
        self.recon_indices.append(index)
        if len(self.recon_indices) >= self.signals_to_capture:
            self.armed = False
        if self.jam_first and len(self.recon_indices) == 1:
            return [SetJamming(False)]
        return []

    def on_phase(self, phase, captured, now):
        if phase.name == DEPLOY:
            self.armed = True
            self.recon_indices = []
            return [SetJamming(True)] if self.jam_first else []
        if phase.name == EXPLOIT:
            params = phase.params
            spec = ExploitSpec(
                signal_indices=tuple(params.get("indices", self.recon_indices)),
                inter_replay_gap_ms=params.get("gap_ms", 1000),
                relock=params.get("relock", False),
            )
            return schedule_exploit(spec, now)
        return []


def schedule_exploit(spec: ExploitSpec, now: int) -> list[ScheduleReplay]:
    """The spec's replays as commands, ``inter_replay_gap_ms`` apart from
    ``now``: the selected captures in order, then, with relock, the one
    after the last."""
    indices = spec.signal_indices
    if spec.relock and indices:
        indices = (*indices, indices[-1] + 1)
    gap = spec.inter_replay_gap_ms
    return [ScheduleReplay(now + pos * gap, idx) for pos, idx in enumerate(indices)]


STRATEGY_KINDS = {
    "naive_replay": NaiveReplay,
    "jam_replay_lock": JamAndReplayLock,
    "future_code": FutureCode,
    "rolljam": RollJam,
    "rollback": RollBack,
}


# --- direct exploit execution (no event loop) -----------------------------

def execute_exploit(
    spec: ExploitSpec,
    captures: list[Transmission],
    state: ReceiverState,
    policy: ReceiverPolicy,
    now: int,
) -> bool:
    """Deliver ``schedule_exploit(spec, now)`` into a receiver.

    Each replay goes through ``receive(state, policy, ...)`` at its
    scheduled time, so ``state`` is left as the replays leave it.
    Answers whether the door was unlocked after the last selected frame,
    before any relock replay.
    """
    plan = schedule_exploit(spec, now)
    count = len(captures)
    for replay in plan:
        if not 0 <= replay.capture_index < count:
            raise AttackConfigError("capture index %d out of range" % replay.capture_index)
    selected = len(spec.signal_indices)
    success = False
    for position, replay in enumerate(plan, 1):
        receive(state, policy, captures[replay.capture_index], replay.at)
        if position == selected:
            success = state.door is _UNLOCKED
    return success
