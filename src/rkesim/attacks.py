"""Attacker strategies.

Each strategy is an event-driven state machine.  It observes capture
events and phase triggers and answers with commands: toggle the jammer
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

Outside the event loop, ``execute_exploit`` replays an ``ExploitSpec``
straight from a list of captured frames into a receiver state and
policy, through ``receive()``, and reads the door afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codebook import Transmission
from .receiver import Door, ReceiverPolicy, ReceiverState, receive

DEPLOY = "deploy"
EXPLOIT = "exploit"


class AttackConfigError(Exception):
    """Exploit parameters reference captures that do not exist."""


# --- events the simulation feeds to a strategy ---------------------------

@dataclass(frozen=True)
class CaptureObserved:
    index: int
    transmission: Transmission
    delivered: bool


@dataclass(frozen=True)
class PhaseTrigger:
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


@dataclass(slots=True)
class AttackOutcome:
    success: bool
    door_after: Door
    signals_replayed: int


class AttackerStrategy:
    """Base: passive capture bookkeeping shared by all strategies."""

    def __init__(self) -> None:
        self.capture_indices: list[int] = []

    def on_event(self, event, now: int) -> list:
        if isinstance(event, CaptureObserved):
            self.capture_indices.append(event.index)
            return self._on_capture(event, now)
        if isinstance(event, PhaseTrigger):
            return self._on_phase(event, now)
        return []

    def _on_capture(self, event: CaptureObserved, now: int) -> list:
        return []

    def _on_phase(self, event: PhaseTrigger, now: int) -> list:
        return []


class NaiveReplay(AttackerStrategy):
    def _on_phase(self, event, now):
        if event.name == EXPLOIT and self.capture_indices:
            return [ScheduleReplay(now, self.capture_indices[-1])]
        return []


class JamAndReplayLock(AttackerStrategy):
    def _on_phase(self, event, now):
        if event.name == DEPLOY:
            return [SetJamming(True)]
        if event.name == EXPLOIT and self.capture_indices:
            return [SetJamming(False), ScheduleReplay(now, self.capture_indices[-1])]
        return []


class FutureCode(AttackerStrategy):
    def _on_phase(self, event, now):
        if event.name != EXPLOIT:
            return []
        gap = event.params.get("gap_ms", 500)
        return [
            ScheduleReplay(now + i * gap, idx)
            for i, idx in enumerate(self.capture_indices)
        ]


class RollJam(AttackerStrategy):
    def __init__(self) -> None:
        super().__init__()
        self.armed = False
        self.recon_done = False
        self.held_index: int | None = None
        self.held_invalidated = False
        self._first_armed = 0

    def _on_capture(self, event, now):
        if self.armed:
            jammed_run = [i for i in self.capture_indices if i >= self._first_armed]
            if len(jammed_run) >= 2:
                first, second = jammed_run[0], jammed_run[1]
                self.armed = False
                self.recon_done = True
                self.held_index = second
                # Drop the jammer and push out the first captured press in
                # the same step; the vehicle obeys and the victim moves on.
                return [SetJamming(False), ScheduleReplay(now, first)]
            return []
        if self.recon_done and event.delivered:
            self.held_invalidated = True
        return []

    def _on_phase(self, event, now):
        if event.name == DEPLOY:
            self.armed = True
            self._first_armed = len(self.capture_indices)
            return [SetJamming(True)]
        if event.name == EXPLOIT and self.held_index is not None:
            return [ScheduleReplay(now, self.held_index)]
        return []


class RollBack(AttackerStrategy):
    def __init__(self, jam_first: bool = True, signals_to_capture: int = 2) -> None:
        super().__init__()
        self.jam_first = jam_first
        self.signals_to_capture = signals_to_capture
        self.armed = False
        self.recon_indices: list[int] = []

    def _on_capture(self, event, now):
        if not self.armed:
            return []
        self.recon_indices.append(event.index)
        if len(self.recon_indices) >= self.signals_to_capture:
            self.armed = False
        if self.jam_first and len(self.recon_indices) == 1:
            return [SetJamming(False)]
        return []

    def _on_phase(self, event, now):
        if event.name == DEPLOY:
            self.armed = True
            self.recon_indices = []
            return [SetJamming(True)] if self.jam_first else []
        if event.name == EXPLOIT:
            params = event.params
            spec = ExploitSpec(
                signal_indices=tuple(params.get("indices", self.recon_indices)),
                inter_replay_gap_ms=params.get("gap_ms", 1000),
                relock=params.get("relock", False),
            )
            return schedule_exploit(spec, now)
        return []


def schedule_exploit(spec: ExploitSpec, now: int) -> list[ScheduleReplay]:
    commands = [
        ScheduleReplay(now + i * spec.inter_replay_gap_ms, idx)
        for i, idx in enumerate(spec.signal_indices)
    ]
    if spec.relock and spec.signal_indices:
        commands.append(
            ScheduleReplay(
                now + len(spec.signal_indices) * spec.inter_replay_gap_ms,
                spec.signal_indices[-1] + 1,
            )
        )
    return commands


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
    """Replay the selected captured frames into a receiver, in capture order.

    Each frame goes through ``receive(state, policy, ...)``, so ``state``
    is left as the replays leave it.  Replays are spaced
    ``inter_replay_gap_ms`` apart.  With ``relock`` the capture following
    the last selected one is replayed afterwards, re-locking the vehicle
    through the freshly resynced counter.
    """
    selected = spec.signal_indices
    indices = (*selected, selected[-1] + 1) if spec.relock else selected
    for idx in indices:
        if not 0 <= idx < len(captures):
            raise AttackConfigError("capture index %d out of range" % idx)

    gap = spec.inter_replay_gap_ms
    for position, idx in enumerate(selected):
        receive(state, policy, captures[idx], now + position * gap)
    door = state.door
    success = door is Door.UNLOCKED if selected else False
    if spec.relock:
        receive(state, policy, captures[indices[-1]], now + len(selected) * gap)
        door = state.door
    return AttackOutcome(success, door, len(indices))
