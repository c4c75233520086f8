"""Deterministic discrete-event engine.

A scenario is a script: fob definitions, one receiver policy, an
optional attacker, and a time-ordered tuple of events, each a plain
``(at, action)`` pair whose action is its own type: ``VictimPress``,
``AttackerDeploy``, ``AttackerExploit``, ``LearnModeEntry`` and
``AdvanceClock``.  ``VictimPress``, shared by equal scripted presses,
is a ``NamedTuple``, which builds faster than a frozen dataclass.
Running it produces a trace: a list of ``(at, kind, fields)`` records
of every emission, delivery, receiver action, attacker action and door
change.  Events run in script order; a replay a strategy schedules
runs before the first scripted event due strictly later, so at equal
times the scripted event goes first.  Identical scenarios produce
bit-identical traces.  ``summarize`` reads a finished trace once and
returns the goal verdicts and run counters; ``evaluate`` looks up one
goal in it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .attacks import STRATEGY_KINDS, SetJamming
from .channel import ATTACKER, VICTIM, transmit
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
    FobRecord,
    ReceiverPolicy,
    ReceiverState,
    counter_base,
    enter_learn_mode,
    new_receiver_state,
    receive,
)


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


class VictimPress(NamedTuple):
    fob_serial: int
    button: Instruction
    out_of_range: bool = False
    fob_in_attacker_range: bool = True


@dataclass(frozen=True)
class AttackerDeploy:
    """The attacker starts capturing; the strategy answers ``on_deploy``."""

    name = "deploy"  # the scenario word and the ``phase`` record's name


@dataclass(frozen=True)
class AttackerExploit:
    """The attacker replays; the strategy answers ``on_exploit(params, ...)``."""

    name = "exploit"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LearnModeEntry:
    pass


@dataclass(frozen=True)
class AdvanceClock:
    pass


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
    events: tuple[tuple[int, object], ...] = ()  # (at, action)


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
        return {member: str(member._value_) for member in cls}.__getitem__
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
        """One ``t=<at> ev=<kind> key=value ...`` line per record, each
        ended by a newline, built in one pass with no per-record calls."""
        get = _RENDERERS.get
        lines = []
        for at, kind, fields in self:
            parts = ["t=%d ev=%s" % (at, kind)]
            for key, value in fields.items():
                parts.append(key + "=" + (get(type(value)) or render_value)(value))
            lines.append(" ".join(parts))
        lines.append("")
        return "\n".join(lines)


def validate_scenario(scenario: Scenario) -> None:
    """Raise a ``ScenarioError`` listing every problem; the engine runs only
    what passes, so every event action is one of the five it dispatches."""
    problems = []
    attacker = scenario.attacker
    strategy = None
    if attacker is not None:
        strategy = STRATEGY_KINDS.get(attacker.kind)
        if strategy is None:
            problems.append("unknown attacker strategy %r" % attacker.kind)
        else:
            unknown = [key for key in attacker.options if key not in strategy.options]
            problems += [
                "attacker: strategy %s does not take %s" % (attacker.kind, key)
                for key in unknown
            ]
            if not unknown:
                try:
                    strategy(**attacker.options)  # the strategy checks its own values
                except ValueError as exc:
                    problems.append("attacker: %s" % exc)
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
        if fob.key is not None and not fob.key:
            problems.append("fob %d: key is empty" % fob.serial)
        elif fob.key is not None and len(fob.key) > MAX_KEY_BYTES:
            problems.append(
                "fob %d: key of %d bytes is longer than %d"
                % (fob.serial, len(fob.key), MAX_KEY_BYTES)
            )
    previous = None
    for i, (at, action) in enumerate(scenario.events):
        if at < 0:
            problems.append("event %d: negative time %d" % (i, at))
        if previous is not None and at < previous:
            problems.append(
                "event %d: time %d before previous event at %d" % (i, at, previous)
            )
        previous = at
        if isinstance(action, VictimPress):
            fob = fobs.get(action.fob_serial)
            if fob is None:
                problems.append("event %d: unknown fob serial %d" % (i, action.fob_serial))
            elif fob.emit_timestamps and not 0 <= at + fob.clock_skew_ms < TIMESTAMP_MOD:
                problems.append(
                    "event %d: fob %d clock %d out of timestamp range"
                    % (i, fob.serial, at + fob.clock_skew_ms)
                )
        elif isinstance(action, (AttackerDeploy, AttackerExploit)):
            if attacker is None:
                problems.append("event %d: attacker phase without an attacker" % i)
            if isinstance(action, AttackerExploit):
                if strategy is not None:
                    problems += [
                        "event %d: strategy %s does not read %s" % (i, attacker.kind, name)
                        for name in action.params
                        if name not in strategy.exploit_params
                    ]
                if action.params.get("gap_ms", 0) < 0:
                    problems.append("event %d: gap_ms must be non-negative" % i)
        elif not isinstance(action, (LearnModeEntry, AdvanceClock)):
            problems.append("event %d: unsupported action %r" % (i, action))
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
                self.receiver.fobs[fob_def.serial] = FobRecord(key, stored)
        self.jamming = False
        self.strategy = None
        self.captures: list | None = None  # None until an attacker listens
        if scenario.attacker is not None:
            self.captures = []
            self.strategy = STRATEGY_KINDS[scenario.attacker.kind](**scenario.attacker.options)
        self.trace = Trace()
        self._queue: list[tuple[int, int, int]] = []  # (due, seq, capture index)
        self._seq = 0

    def run(self) -> Trace:
        trace = self.trace
        trace.add(0, "scenario", name=self.scenario.name, seed=self.scenario.seed)
        for serial, fob in self.fobs.items():
            trace.add(0, "fob", serial=serial, ctr=fob.counter)
        trace.add(0, "door", state=self.receiver.door)
        # Scripted events are already in time order (validate_scenario), so
        # only the replays a strategy schedules go through the heap.
        queue = self._queue
        at = 0
        for at, action in self.scenario.events:
            while queue and queue[0][0] < at:
                due, _, index = heapq.heappop(queue)
                self._attacker_replay(due, index)
            self._dispatch(at, action)
        while queue:
            at, _, index = heapq.heappop(queue)
            self._attacker_replay(at, index)
        self._footer(at)
        return trace

    def _dispatch(self, now: int, action: object) -> None:
        if isinstance(action, VictimPress):
            self._victim_press(now, action)
        elif isinstance(action, AttackerDeploy):
            self.trace.add(now, "phase", name=action.name)
            self._apply(self.strategy.on_deploy(len(self.captures), now), now)
        elif isinstance(action, AttackerExploit):
            self.trace.add(now, "phase", name=action.name)
            self._apply(self.strategy.on_exploit(action.params, len(self.captures), now), now)
        elif isinstance(action, LearnModeEntry):
            enter_learn_mode(self.receiver)
            self.trace.add(now, "learn_mode", state=self.receiver.learn_phase)
        else:  # AdvanceClock: validate_scenario admits no other action
            self.trace.add(now, "tick")

    def _victim_press(self, now: int, event: VictimPress) -> None:
        serial, button, out_of_range, in_attacker_range = event
        new_fob, transmission = press(self.fobs[serial], button, now)
        self.fobs[serial] = new_fob
        fields = {"src": VICTIM, "serial": serial, "ctr": new_fob.counter, "btn": button,
                  "out_of_range": out_of_range}
        self._send(now, transmission, fields, out_of_range, in_attacker_range)

    def _attacker_replay(self, now: int, index: int) -> None:
        # Checked when the replay fires: a capture made after the replay
        # was scheduled (a relock's ``last + 1``) counts.
        captured = len(self.captures)
        if not 0 <= index < captured:
            problem = "attacker replay of capture %d, but only %d captured" % (index, captured)
            raise ScenarioError([problem])
        transmission = self.captures[index]
        fields = {"src": ATTACKER, "serial": transmission.serial, "idx": index}
        self._send(now, transmission, fields)

    def _send(self, now, transmission, fields, out_of_range=False, in_attacker_range=True):
        """Puts a frame on the air: one ``tx`` record, the capture callback,
        then delivery to the receiver.  ``fields`` opens the record with
        ``src``, ``serial`` and the sender's own fields; the channel's
        outcome and the frame complete it in place."""
        sender = fields["src"]
        delivered, captured = transmit(
            self.jamming, self.captures, transmission, sender, out_of_range, in_attacker_range
        )
        fields["jammed"] = self.jamming
        fields["delivered"] = delivered
        fields["captured"] = captured
        fields["frame"] = transmission.ciphertext
        self.trace.append(TraceRecord(now, "tx", fields))
        if captured:
            self._apply(self.strategy.on_capture(len(self.captures) - 1, now), now)
        if delivered:
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
        self.trace.append(TraceRecord(now, "rx", fields))
        if self.receiver.door is not door:
            self.trace.add(now, "door", state=self.receiver.door)

    def _apply(self, commands: list, now: int) -> None:
        # A strategy answers with SetJamming and ScheduleReplay only.
        for command in commands:
            if isinstance(command, SetJamming):
                self.jamming = command.on
                self.trace.add(
                    now, "attacker", action="jam_on" if command.on else "jam_off"
                )
            else:
                self.trace.add(
                    now,
                    "attacker",
                    action="replay",
                    idx=command.capture_index,
                    due=command.at,
                )
                heapq.heappush(self._queue, (command.at, self._seq, command.capture_index))
                self._seq += 1

    def _footer(self, at: int) -> None:
        """Final records, stamped with the time of the last dispatched action.
        Under per-instruction counters, ``final_fob`` also gives the counter
        each button's next frame is checked against."""
        buttons = tuple(Instruction) if self.policy.per_instruction_counters else ()
        for serial, fob in self.fobs.items():
            record = self.receiver.fobs.get(serial)
            fields = {"serial": serial, "ctr": fob.counter,
                      "stored": record.counter if record is not None else -1}
            for button in buttons:
                fields["stored_" + button.value] = (
                    counter_base(record, self.policy, button) if record is not None else -1)
            self.trace.append(TraceRecord(at, "final_fob", fields))
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

    Each delivered victim press is answered by the first later rx with
    the same time and serial; the channel delivers only an in-range,
    unjammed frame, so ``delivered`` alone says which presses count.  The
    victim is unaffected only if every such rx executed or resynced the
    pressed button; a press whose time ends without an answer counts
    against it.
    """
    unlocked = False
    victim_unaffected = True
    final_door = None
    presses = captures = replays = resyncs = 0
    pending: dict[object, list] = {}  # serial -> buttons of unanswered presses
    now = None
    for at, kind, fields in trace:
        if at != now:
            if pending:
                victim_unaffected = False
                pending = {}
            now = at
        get = fields.get
        if kind == "tx":
            src = get("src")
            if src == VICTIM:
                presses += 1
                if get("delivered"):
                    pending.setdefault(get("serial"), []).append(get("btn"))
            elif src == ATTACKER:
                replays += 1
            if get("captured"):
                captures += 1
        elif kind == "rx":
            action = get("action")
            button = get("btn")
            acted = action in _ACTED
            if action is _RESYNCED:
                resyncs += 1
            if acted and get("src") == ATTACKER and button is _UNLOCK:
                unlocked = True
            for intended in pending.pop(get("serial"), ()):
                if not (acted and button == intended):
                    victim_unaffected = False
        elif kind == "final":
            final_door = get("door")
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
