"""Deterministic discrete-event engine.

A scenario is a script: fob definitions, one receiver policy, an
optional attacker, and a time-ordered list of events (victim presses,
attacker phases, learn-mode entry, clock markers).  Running it produces
a trace: a list of ``(at, kind, fields)`` records of every emission,
delivery, receiver action, attacker action and door change.  Identical
scenarios produce bit-identical traces.  ``summarize`` reads a finished
trace once and returns the goal verdicts and run counters; ``evaluate``
looks up one goal in it.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .attacks import DEPLOY, EXPLOIT, STRATEGY_KINDS, AttackerPhase, ScheduleReplay, SetJamming
from .channel import ATTACKER, VICTIM, ChannelState, subscribe, set_jamming, transmit
from .codebook import (
    COUNTER_MOD,
    MAX_KEY_BYTES,
    SERIAL_MOD,
    TIMESTAMP_MOD,
    Instruction,
    derive_key,
    master_from_seed,
)
from .fob import FobState, press
from .receiver import (
    ActionKind,
    Door,
    ReceiverPolicy,
    ReceiverState,
    enter_learn_mode,
    new_receiver_state,
    receive,
    register_fob,
)

logger = logging.getLogger(__name__)


class ScenarioError(Exception):
    """Scenario failed validation; ``problems`` lists every offender."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class FobDef:
    serial: int
    initial_counter: int = 0
    key: bytes | None = None            # default: derived from the scenario seed
    clock_skew_ms: int = 0
    emit_timestamps: bool = False
    learned: bool = True                # receiver knows this fob at start
    receiver_counter: int | None = None  # default: same as initial_counter


@dataclass(frozen=True)
class VictimPress:
    fob_serial: int
    button: Instruction
    out_of_range: bool = False
    fob_in_attacker_range: bool = True


@dataclass(frozen=True)
class LearnModeEntry:
    pass


@dataclass(frozen=True)
class AdvanceClock:
    pass


@dataclass(frozen=True)
class ScenarioEvent:
    at: int
    action: object


@dataclass(frozen=True)
class AttackerDef:
    kind: str
    options: dict = field(default_factory=dict)  # the [attacker] keys given


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    fobs: tuple[FobDef, ...]
    policy: ReceiverPolicy
    attacker: AttackerDef | None = None
    events: tuple[ScenarioEvent, ...] = ()


class Goal(str, Enum):
    UNLOCK_WITHOUT_AUTHORIZATION = "UnlockWithoutAuthorization"
    VICTIM_UNAFFECTED = "VictimUnaffected"
    RELOCKED_AFTER = "ReLockedAfter"


class TraceRecord(NamedTuple):
    """One trace line: its time, its kind and its fields in order."""

    at: int
    kind: str
    fields: dict[str, object]

    def get(self, name: str, default=None):
        return self.fields.get(name, default)

    def field_texts(self) -> list[str]:
        """The fields as ``key=value`` texts, the form every rendering uses."""
        return [key + "=" + render_value(value) for key, value in self.fields.items()]

    def render(self) -> str:
        return " ".join(["t=%d" % self.at, "ev=%s" % self.kind, *self.field_texts()])


def render_value(value) -> str:
    """Trace text of one field: bool as 1/0, Enum by value, bytes as hex, else str."""
    render = _RENDERERS.get(type(value))
    if render is None:
        render = _RENDERERS[type(value)] = _renderer_for(type(value))
    return render(value)


def _renderer_for(cls: type):
    if issubclass(cls, bool):
        return ("0", "1").__getitem__
    if issubclass(cls, Enum):
        return lambda value: str(value._value_)  # ``.value`` is a slower property
    if issubclass(cls, bytes):
        return bytes.hex
    return str


# One renderer per field type, filled on first use; bounded by the
# handful of value types a trace holds.
_RENDERERS: dict[type, object] = {}


class Trace(list):
    """A run's ``TraceRecord``s in the order they happened."""

    def add(self, at: int, kind: str, **fields) -> None:
        self.append(TraceRecord(at, kind, fields))

    def render(self) -> str:
        return "".join([record.render() + "\n" for record in self])


def validate_scenario(scenario: Scenario) -> None:
    problems = []
    attacker = scenario.attacker
    strategy = None
    if attacker is not None:
        strategy = STRATEGY_KINDS.get(attacker.kind)
        if strategy is None:
            problems.append("unknown attacker strategy %r" % attacker.kind)
        else:
            problems += [
                "attacker: strategy %s does not take %s" % (attacker.kind, key)
                for key in attacker.options
                if key not in strategy.options
            ]
    fobs: dict[int, FobDef] = {}
    for fob in scenario.fobs:
        if fob.serial in fobs:
            problems.append("duplicate fob serial %d" % fob.serial)
        fobs[fob.serial] = fob
        if not 0 <= fob.serial < SERIAL_MOD:
            problems.append("fob serial %d out of range [0, 2^64)" % fob.serial)
        for name, counter in (
            ("counter", fob.initial_counter),
            ("receiver_counter", fob.receiver_counter),
        ):
            if counter is not None and not 0 <= counter < COUNTER_MOD:
                problems.append(
                    "fob %d: %s %d out of range [0, 2^16)" % (fob.serial, name, counter)
                )
        if fob.key is not None and len(fob.key) > MAX_KEY_BYTES:
            problems.append(
                "fob %d: key of %d bytes is longer than %d"
                % (fob.serial, len(fob.key), MAX_KEY_BYTES)
            )
    previous = None
    for i, event in enumerate(scenario.events):
        if event.at < 0:
            problems.append("event %d: negative time %d" % (i, event.at))
        if previous is not None and event.at < previous:
            problems.append(
                "event %d: time %d before previous event at %d"
                % (i, event.at, previous)
            )
        previous = event.at
        action = event.action
        if isinstance(action, VictimPress):
            fob = fobs.get(action.fob_serial)
            if fob is None:
                problems.append("event %d: unknown fob serial %d" % (i, action.fob_serial))
            elif fob.emit_timestamps and not 0 <= event.at + fob.clock_skew_ms < TIMESTAMP_MOD:
                problems.append(
                    "event %d: fob %d clock %d out of timestamp range"
                    % (i, fob.serial, event.at + fob.clock_skew_ms)
                )
        if isinstance(action, AttackerPhase):
            if attacker is None:
                problems.append("event %d: attacker phase without an attacker" % i)
            if action.name not in (DEPLOY, EXPLOIT):
                problems.append(
                    "event %d: attacker phase %r is not deploy or exploit" % (i, action.name)
                )
            elif action.name == DEPLOY and action.params:
                problems.append("event %d: attacker deploy takes no parameters" % i)
            elif strategy is not None:
                problems += [
                    "event %d: strategy %s does not read %s" % (i, attacker.kind, name)
                    for name in action.params
                    if name not in strategy.exploit_params
                ]
            if action.params.get("gap_ms", 0) < 0:
                problems.append("event %d: gap_ms must be non-negative" % i)
    if problems:
        raise ScenarioError(problems)


class Engine:
    """Single-threaded event loop over one scenario."""

    def __init__(self, scenario: Scenario):
        validate_scenario(scenario)
        self.scenario = scenario
        master = master_from_seed(scenario.seed)
        self.fobs: dict[int, FobState] = {}
        self.receiver: ReceiverState = new_receiver_state(scenario.policy, master)
        self.policy: ReceiverPolicy = scenario.policy
        for fob_def in scenario.fobs:
            key = fob_def.key or derive_key(master, fob_def.serial)
            self.fobs[fob_def.serial] = FobState(
                serial=fob_def.serial,
                key=key,
                counter=fob_def.initial_counter,
                clock_skew_ms=fob_def.clock_skew_ms,
                emit_timestamps=fob_def.emit_timestamps,
            )
            if fob_def.learned:
                stored = (
                    fob_def.receiver_counter
                    if fob_def.receiver_counter is not None
                    else fob_def.initial_counter
                )
                register_fob(self.receiver, fob_def.serial, key, stored)
        self.channel = ChannelState()
        self.strategy = None
        self.captures = None
        if scenario.attacker is not None:
            self.captures = subscribe(self.channel)
            self.strategy = STRATEGY_KINDS[scenario.attacker.kind](**scenario.attacker.options)
        self.trace = Trace()
        self._queue: list[tuple[int, int, object]] = []
        self._seq = 0

    def _push(self, at: int, action: object) -> None:
        heapq.heappush(self._queue, (at, self._seq, action))
        self._seq += 1

    def run(self) -> Trace:
        logger.debug(
            "running scenario %s (%d events)",
            self.scenario.name,
            len(self.scenario.events),
        )
        trace = self.trace
        trace.add(0, "scenario", name=self.scenario.name, seed=self.scenario.seed)
        for serial, fob in self.fobs.items():
            trace.add(0, "fob", serial=serial, ctr=fob.counter)
        trace.add(0, "door", state=self.receiver.door)
        for event in self.scenario.events:
            self._push(event.at, event.action)
        at = 0
        while self._queue:
            at, _, action = heapq.heappop(self._queue)
            self._dispatch(at, action)
        self._footer(at)
        return trace

    def _dispatch(self, now: int, action: object) -> None:
        if isinstance(action, VictimPress):
            self._victim_press(now, action)
        elif isinstance(action, ScheduleReplay):
            self._attacker_replay(now, action.capture_index)
        elif isinstance(action, AttackerPhase):
            self.trace.add(now, "phase", name=action.name)
            self._apply(self.strategy.on_phase(action, len(self.captures), now), now)
        elif isinstance(action, LearnModeEntry):
            enter_learn_mode(self.receiver)
            self.trace.add(now, "learn_mode", state=self.receiver.learn_phase)
        elif isinstance(action, AdvanceClock):
            self.trace.add(now, "tick")
        else:
            raise ScenarioError(["unsupported event action %r" % (action,)])

    def _victim_press(self, now: int, event: VictimPress) -> None:
        new_fob, transmission = press(self.fobs[event.fob_serial], event.button, now)
        self.fobs[event.fob_serial] = new_fob
        out_of_range = event.out_of_range
        fields = {"ctr": new_fob.counter, "btn": event.button, "out_of_range": out_of_range}
        self._send(now, transmission, VICTIM, fields, out_of_range, event.fob_in_attacker_range)

    def _attacker_replay(self, now: int, index: int) -> None:
        # Checked when the replay fires: a capture made after the replay
        # was scheduled (a relock's ``last + 1``) counts.
        captured = len(self.captures)
        if not 0 <= index < captured:
            problem = "attacker replay of capture %d, but only %d captured" % (index, captured)
            raise ScenarioError([problem])
        self._send(now, self.captures[index], ATTACKER, {"idx": index})

    def _send(
        self, now, transmission, sender, fields, out_of_range=False, in_attacker_range=True
    ):
        """Puts a frame on the air: one ``tx`` record with the sender's own
        ``fields``, the capture callback, then delivery to the receiver."""
        record = transmit(self.channel, transmission, sender, out_of_range, in_attacker_range)
        self.trace.add(
            now,
            "tx",
            src=sender,
            serial=transmission.serial,
            **fields,
            jammed=record.jammed,
            delivered=record.delivered,
            captured=record.captured,
            frame=transmission.ciphertext,
        )
        if record.captured:
            index = len(self.captures) - 1
            self._apply(self.strategy.on_capture(index, record.delivered, now), now)
        if record.delivered:
            self._deliver(now, transmission, sender)

    def _deliver(self, now: int, transmission, sender: str) -> None:
        door = self.receiver.door
        action = receive(self.receiver, self.policy, transmission, now)
        fields = {
            "src": sender,
            "serial": transmission.serial,
            "action": action.kind,
        }
        if action.instruction is not None:
            fields["btn"] = action.instruction
        if action.reason is not None:
            fields["reason"] = action.reason
        if action.new_counter is not None:
            fields["ctr"] = action.new_counter
        fields["door"] = self.receiver.door
        self.trace.add(now, "rx", **fields)
        if self.receiver.door is not door:
            self.trace.add(now, "door", state=self.receiver.door)

    def _apply(self, commands: list, now: int) -> None:
        for command in commands:
            if isinstance(command, SetJamming):
                set_jamming(self.channel, command.on)
                self.trace.add(
                    now, "attacker", action="jam_on" if command.on else "jam_off"
                )
            elif isinstance(command, ScheduleReplay):
                self.trace.add(
                    now,
                    "attacker",
                    action="replay",
                    idx=command.capture_index,
                    due=command.at,
                )
                self._push(command.at, command)
            else:
                raise ScenarioError(["unsupported attacker command %r" % (command,)])

    def _footer(self, at: int) -> None:
        """Final records, stamped with the time of the last dispatched action."""
        for serial, fob in self.fobs.items():
            record = self.receiver.fobs.get(serial)
            stored = record.counter if record is not None else -1
            self.trace.add(at, "final_fob", serial=serial, ctr=fob.counter, stored=stored)
        self.trace.add(
            at,
            "final",
            door=self.receiver.door,
            captures=len(self.captures) if self.captures is not None else 0,
        )


def run(scenario: Scenario) -> Trace:
    """Execute a scenario and return its trace."""
    return Engine(scenario).run()


@dataclass(frozen=True)
class Summary:
    """Goal verdicts and run counters of one finished trace."""

    goals: dict[Goal, bool]
    presses: int
    captures: int
    replays: int
    resyncs: int


# The enum members summarize reads per record, bound once: a member read
# is slow on Python 3.11 (see receiver).
_ACTED = (ActionKind.EXECUTED, ActionKind.RESYNCED)
_RESYNCED = ActionKind.RESYNCED
_UNLOCK = Instruction.UNLOCK


def summarize(trace: Trace) -> Summary:
    """Compute every goal verdict and run counter in one pass over a trace.

    Each delivered, in-range, unjammed victim press is answered by the
    first later rx with the same time and serial.  The victim is
    unaffected only if every such rx executed or resynced the pressed
    button; a press whose time ends without an answer counts against it.
    """
    unlocked = False
    victim_unaffected = True
    final_door = None
    presses = captures = replays = resyncs = 0
    pending: dict[object, list] = {}  # serial -> buttons of unanswered presses
    now = None
    for record in trace:
        if record.at != now:
            if pending:
                victim_unaffected = False
                pending = {}
            now = record.at
        if record.kind == "tx":
            src = record.get("src")
            if src == VICTIM:
                presses += 1
                in_range = not record.get("out_of_range") and not record.get("jammed")
                if in_range and record.get("delivered"):
                    pending.setdefault(record.get("serial"), []).append(record.get("btn"))
            elif src == ATTACKER:
                replays += 1
            if record.get("captured"):
                captures += 1
        elif record.kind == "rx":
            action = record.get("action")
            button = record.get("btn")
            acted = action in _ACTED
            if action is _RESYNCED:
                resyncs += 1
            if acted and record.get("src") == ATTACKER and button is _UNLOCK:
                unlocked = True
            for intended in pending.pop(record.get("serial"), ()):
                if not (acted and button == intended):
                    victim_unaffected = False
        elif record.kind == "final":
            final_door = record.get("door")
    goals = {
        Goal.UNLOCK_WITHOUT_AUTHORIZATION: unlocked,
        Goal.VICTIM_UNAFFECTED: victim_unaffected and not pending,
        Goal.RELOCKED_AFTER: unlocked and final_door is Door.LOCKED,
    }
    return Summary(goals, presses, captures, replays, resyncs)


def evaluate(trace: Trace, goal: Goal) -> bool:
    """Check a goal predicate against a finished trace."""
    if not isinstance(goal, Goal):
        raise ValueError("unknown goal %r" % (goal,))
    return summarize(trace).goals[goal]
