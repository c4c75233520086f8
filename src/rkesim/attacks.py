"""Attacker strategies.

A strategy is a small state machine behind two callbacks.  The engine
calls ``on_capture(index, delivered, now)`` each time the attacker
overhears a victim frame: ``index`` is its position in the capture list
and ``delivered`` says whether the receiver got it too.  It calls
``on_phase(phase, captured, now)`` when the scenario moves the attacker
into a phase (``deploy`` or ``exploit``), with ``captured`` the number
of frames heard so far.  Both answer with commands: toggle the jammer
or schedule the replay of a captured frame.  Attackers never see keys
or receiver internals; everything they send is a byte-identical copy
of something they captured.

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

An ``ExploitSpec`` is a replay plan.  ``schedule_exploit`` turns it into
replay commands for the engine; ``execute_exploit`` replays the same
frames at the same times straight into a receiver state and policy,
through ``receive()``, and reads the door afterwards.
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


@dataclass(slots=True)
class AttackOutcome:
    success: bool
    door_after: Door
    signals_replayed: int


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

    def on_capture(self, index: int, delivered: bool, now: int) -> list:
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
        self.recon_done = False
        self.held_index: int | None = None
        self.held_invalidated = False

    def on_capture(self, index, delivered, now):
        if self.armed_at is not None:
            if index > self.armed_at:
                first = self.armed_at
                self.armed_at = None
                self.recon_done = True
                self.held_index = index
                # Drop the jammer and push out the first captured press in
                # the same step; the vehicle obeys and the victim moves on.
                return [SetJamming(False), ScheduleReplay(now, first)]
            return []
        if self.recon_done and delivered:
            self.held_invalidated = True
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

    def on_capture(self, index, delivered, now):
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


def _replay_indices(spec: ExploitSpec) -> tuple[int, ...]:
    """Captures a spec replays, in order; relock adds the one after the last."""
    selected = spec.signal_indices
    if spec.relock and selected:
        return (*selected, selected[-1] + 1)
    return selected


def schedule_exploit(spec: ExploitSpec, now: int) -> list[ScheduleReplay]:
    """The spec's replays as engine commands, ``inter_replay_gap_ms`` apart."""
    gap = spec.inter_replay_gap_ms
    return [
        ScheduleReplay(now + position * gap, idx)
        for position, idx in enumerate(_replay_indices(spec))
    ]


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
) -> AttackOutcome:
    """Replay a spec's frames into a receiver, at ``schedule_exploit``'s times.

    Each frame goes through ``receive(state, policy, ...)``, so ``state``
    is left as the replays leave it.  The attack succeeds if the door is
    unlocked after the last selected frame, before any relock replay.
    """
    indices = _replay_indices(spec)
    count = len(captures)
    for idx in indices:
        if not 0 <= idx < count:
            raise AttackConfigError("capture index %d out of range" % idx)

    gap = spec.inter_replay_gap_ms
    unjudged = len(spec.signal_indices)  # selected frames still to replay
    success = False
    at = now
    for idx in indices:
        receive(state, policy, captures[idx], at)
        at += gap
        unjudged -= 1
        if not unjudged:
            success = state.door is _UNLOCKED
    return AttackOutcome(success, state.door, len(indices))
