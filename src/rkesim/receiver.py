"""Vehicle-side receiver state machine.

Incoming frames are validated against the stored counter through three
operation windows.  With the receiver counter ``c_v`` and the frame
counter ``c_k``, let ``d = (c_k - c_v) mod 2^16``:

* ``d == 0`` or ``d >= 2^15``   -> replay (stale code, discarded)
* ``0 < d <= single_window``    -> accepted immediately, counter syncs
* ``single_window < d < double_window_limit`` -> resync window: the
  frame is buffered and only a follow-up frame with the next counter
  value resynchronizes and executes
* anything else                 -> blocked window, discarded

Vulnerable receivers additionally run a rollback path: stale frames
accumulate in a per-fob buffer and, once the configured number of
signals arrives in an acceptable sequence and pace, the counter is
rolled back to the last replayed value and its instruction executes.

The learn-mode submachine registers a fob from two consecutive-counter
presses, deriving the fob key from the serial via the master secret.
Entry normally requires an explicit event; policies can instead keep
the receiver permanently in learn mode, which is the configuration that
reproduces rollback-like behaviour through re-learning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .codebook import (
    COUNTER_MOD,
    Instruction,
    Transmission,
    _decode_cached,
    derive_key,
)

_HALF_RING = COUNTER_MOD // 2

# Discard reasons, as they appear in traces.
UNKNOWN_FOB = "unknown_fob"
BAD_AUTH = "bad_auth"
STALE_TIMESTAMP = "stale_timestamp"
AWAITING_RESYNC = "awaiting_resync"
REPLAY = "replay"
BLOCKED = "blocked"
LEARN_ABORT = "learn_abort"
READD_IGNORED = "readd_ignored"


class WindowClass(Enum):
    REPLAY = "replay"
    SINGLE = "single"
    DOUBLE = "double"
    BLOCKED = "blocked"


class SequenceMode(str, Enum):
    STRICT = "strict"
    LOOSE = "loose"


class ReaddMode(str, Enum):
    IGNORE = "ignore"
    OVERWRITE = "overwrite"


class Door(str, Enum):
    LOCKED = "locked"
    UNLOCKED = "unlocked"


class LearnPhase(str, Enum):
    INACTIVE = "inactive"
    AWAIT_FIRST = "await_first"
    AWAIT_SECOND = "await_second"


class ActionKind(str, Enum):
    EXECUTED = "executed"
    DISCARDED = "discarded"
    RESYNCED = "resynced"
    LEARN_PROGRESS = "learn_progress"
    LEARN_COMPLETE = "learn_complete"


# On Python 3.11, EnumType.__getattr__ keeps a member read such as
# ``Door.UNLOCKED`` off the fast attribute path: about 0.2 µs, ten times
# a module global's.  So the per-frame functions below read the members
# they need from these bindings, made once at import.
_INACTIVE = LearnPhase.INACTIVE
_REPLAY_WINDOW, _SINGLE_WINDOW, _DOUBLE_WINDOW, _BLOCKED_WINDOW = WindowClass
_UNLOCKED, _LOCKED = Door.UNLOCKED, Door.LOCKED
_UNLOCK = Instruction.UNLOCK
_STRICT = SequenceMode.STRICT
_RESYNCED = ActionKind.RESYNCED


@dataclass(frozen=True)
class RollbackProfile:
    """Rollback acceptance knobs: #signals, sequence mode, replay pace."""

    signals_required: int
    sequence: SequenceMode
    timeframe_ms: int | None = None

    def __post_init__(self) -> None:
        if self.signals_required < 2:
            raise ValueError("rollback requires at least 2 signals")
        if self.timeframe_ms is not None and self.timeframe_ms <= 0:
            raise ValueError("timeframe_ms must be positive when set")


@dataclass(frozen=True)
class LearnBehavior:
    explicit_entry_required: bool = True
    exit_after_success: bool = True
    readd_known_fob: ReaddMode = ReaddMode.OVERWRITE


@dataclass(frozen=True)
class TimestampCheck:
    tolerance_ms: int

    def __post_init__(self) -> None:
        if self.tolerance_ms < 0:
            raise ValueError("timestamp tolerance must be non-negative")


@dataclass(frozen=True)
class ReceiverPolicy:
    single_window: int = 16
    double_window_limit: int = _HALF_RING
    rollback: RollbackProfile | None = None
    learn: LearnBehavior = field(default_factory=LearnBehavior)
    per_instruction_counters: bool = False
    timestamp_check: TimestampCheck | None = None

    def __post_init__(self) -> None:
        if not 0 < self.single_window < self.double_window_limit <= _HALF_RING:
            raise ValueError(
                "window bounds must satisfy 0 < single_window < "
                "double_window_limit <= 2^15"
            )


@dataclass(frozen=True)
class ReceiverAction:
    kind: ActionKind
    instruction: Instruction | None = None
    reason: str | None = None
    new_counter: int | None = None


# Discards and plain accepts carry no per-event data, so one frozen
# instance per reason, or per instruction, is shared.
_DISCARDS = {
    reason: ReceiverAction(kind=ActionKind.DISCARDED, reason=reason)
    for reason in (
        UNKNOWN_FOB,
        BAD_AUTH,
        STALE_TIMESTAMP,
        AWAITING_RESYNC,
        REPLAY,
        BLOCKED,
        LEARN_ABORT,
        READD_IGNORED,
    )
}
_EXECUTED = {
    instruction: ReceiverAction(kind=ActionKind.EXECUTED, instruction=instruction)
    for instruction in Instruction
}
_LEARN_PROGRESS = ReceiverAction(kind=ActionKind.LEARN_PROGRESS)


class FobRecord:
    """Per-fob receiver state: key, counter(s) and the two resync buffers."""

    __slots__ = ("key", "counter", "button_counters", "resync", "rollback")

    def __init__(self, key: bytes, counter: int):
        self.key = key
        self.counter = counter
        self.button_counters: dict[Instruction, int] | None = None
        self.resync: int | None = None              # buffered double-window counter
        self.rollback: list[tuple[int, int]] = []   # (counter, at) of stale frames

    def clone(self) -> "FobRecord":
        # Both clones fill every slot themselves, with no round trip
        # through __init__: the oracle makes ~10^5 clones per policy.
        other = object.__new__(FobRecord)
        other.key = self.key
        other.counter = self.counter
        counters = self.button_counters
        other.button_counters = None if counters is None else dict(counters)
        other.resync = self.resync
        other.rollback = list(self.rollback)
        return other


class ReceiverState:
    """Mutable receiver: learned-fob table, door, learn submachine, clock."""

    __slots__ = ("master", "fobs", "door", "learn_phase", "learn_buffer", "clock")

    def __init__(self, master: bytes, learn_phase: LearnPhase = LearnPhase.INACTIVE):
        self.master = master
        self.fobs: dict[int, FobRecord] = {}
        self.door = Door.LOCKED
        self.learn_phase = learn_phase
        self.learn_buffer: tuple[int, int] | None = None  # (serial, counter)
        self.clock = 0

    def clone(self) -> "ReceiverState":
        other = object.__new__(ReceiverState)
        other.master = self.master
        other.fobs = {serial: rec.clone() for serial, rec in self.fobs.items()}
        other.door = self.door
        other.learn_phase = self.learn_phase
        other.learn_buffer = self.learn_buffer
        other.clock = self.clock
        return other

    def key(self) -> tuple:
        """Hashable value of every slot ``clone`` copies, each fob record's
        included: states with equal keys answer every later frame alike."""
        return (
            self.master,
            tuple([
                (
                    serial,
                    rec.key,
                    rec.counter,
                    None if rec.button_counters is None
                    else tuple(sorted(rec.button_counters.items())),
                    rec.resync,
                    tuple(rec.rollback),
                )
                for serial, rec in self.fobs.items()
            ]),
            self.door,
            self.learn_phase,
            self.learn_buffer,
            self.clock,
        )


def new_receiver_state(policy: ReceiverPolicy, master: bytes) -> ReceiverState:
    """Fresh receiver; starts inside learn mode when entry is not explicit."""
    phase = (
        LearnPhase.INACTIVE
        if policy.learn.explicit_entry_required
        else LearnPhase.AWAIT_FIRST
    )
    return ReceiverState(master, learn_phase=phase)


def register_fob(state: ReceiverState, serial: int, key: bytes, counter: int) -> None:
    """Install a fob record directly (factory pairing, not radio learn)."""
    state.fobs[serial] = FobRecord(key, counter)


def enter_learn_mode(state: ReceiverState) -> None:
    """Arm the learn submachine; a no-op when already active."""
    if state.learn_phase is LearnPhase.INACTIVE:
        state.learn_phase = LearnPhase.AWAIT_FIRST
        state.learn_buffer = None


def classify_window(policy: ReceiverPolicy, c_v: int, c_k: int) -> WindowClass:
    """Place a frame counter into one of the four operation windows."""
    d = (c_k - c_v) % COUNTER_MOD
    if d == 0 or d >= _HALF_RING:
        return _REPLAY_WINDOW
    if d <= policy.single_window:
        return _SINGLE_WINDOW
    if d < policy.double_window_limit:
        return _DOUBLE_WINDOW
    return _BLOCKED_WINDOW


def receive(
    state: ReceiverState,
    policy: ReceiverPolicy,
    transmission: Transmission,
    now: int,
) -> ReceiverAction:
    """Process one frame; mutates the receiver and reports what happened.

    Every failure mode is a Discarded action rather than an exception:
    a radio receiver is silent about frames it drops.  Learn mode, when
    active, takes precedence over counter validation.
    """
    state.clock = now
    if state.learn_phase is not _INACTIVE:
        return _learn_receive(state, policy, transmission)

    record = state.fobs.get(transmission.serial)
    if record is None:
        return _DISCARDS[UNKNOWN_FOB]
    payload = _decode_cached(record.key, transmission.serial, transmission.ciphertext)
    if payload is None:
        return _DISCARDS[BAD_AUTH]

    if policy.timestamp_check is not None:
        ts = payload.timestamp
        if ts is None or abs(ts - now) > policy.timestamp_check.tolerance_ms:
            return _DISCARDS[STALE_TIMESTAMP]

    button = payload.button
    c_k = payload.counter
    c_v = _counter_base(record, policy, button)
    window = classify_window(policy, c_v, c_k)

    if window is _SINGLE_WINDOW:
        _accept(state, record, policy, button, c_k)
        return _EXECUTED[button]

    if window is _DOUBLE_WINDOW:
        buffered = record.resync
        if buffered is not None and c_k == (buffered + 1) % COUNTER_MOD:
            _accept(state, record, policy, button, c_k)
            return ReceiverAction(_RESYNCED, button, new_counter=c_k)
        record.resync = c_k
        return _DISCARDS[AWAITING_RESYNC]

    if window is _REPLAY_WINDOW:
        if policy.rollback is None:
            return _DISCARDS[REPLAY]
        return _rollback_receive(state, record, policy, button, c_k, now)

    return _DISCARDS[BLOCKED]


def _counter_base(record: FobRecord, policy: ReceiverPolicy, button: Instruction) -> int:
    if not policy.per_instruction_counters or record.button_counters is None:
        return record.counter
    return record.button_counters[button]


def _accept(
    state: ReceiverState,
    record: FobRecord,
    policy: ReceiverPolicy,
    button: Instruction,
    c_k: int,
) -> None:
    # Any accepted frame resynchronizes the counter and resets both
    # pending buffers; skipped codes in between become invalid.  Each
    # button's counter starts at the shared one, until its first accept.
    if policy.per_instruction_counters:
        if record.button_counters is None:
            record.button_counters = {instr: record.counter for instr in Instruction}
        record.button_counters[button] = c_k
    else:
        record.counter = c_k
    record.resync = None
    record.rollback.clear()
    state.door = _UNLOCKED if button is _UNLOCK else _LOCKED


def _rollback_receive(
    state: ReceiverState,
    record: FobRecord,
    policy: ReceiverPolicy,
    button: Instruction,
    c_k: int,
    now: int,
) -> ReceiverAction:
    profile = policy.rollback
    buffer = record.rollback
    if buffer:
        last_counter, last_at = buffer[-1]
        step = (c_k - last_counter) % COUNTER_MOD
        if profile.timeframe_ms is not None and now - last_at > profile.timeframe_ms:
            buffer.clear()
        elif profile.sequence is _STRICT and step != 1:
            buffer.clear()
        elif not 0 < step < _HALF_RING:
            # Loose mode still demands strictly ascending counters.
            buffer.clear()
    buffer.append((c_k, now))
    if len(buffer) >= profile.signals_required:
        _accept(state, record, policy, button, c_k)
        return ReceiverAction(_RESYNCED, button, new_counter=c_k)
    return _DISCARDS[REPLAY]


def _learn_receive(
    state: ReceiverState, policy: ReceiverPolicy, transmission: Transmission
) -> ReceiverAction:
    serial = transmission.serial
    known = state.fobs.get(serial)
    key = known.key if known is not None else derive_key(state.master, serial)
    payload = _decode_cached(key, serial, transmission.ciphertext)
    if payload is None:
        return _DISCARDS[BAD_AUTH]

    ignore_readd = (
        known is not None and policy.learn.readd_known_fob is ReaddMode.IGNORE
    )

    if state.learn_phase is LearnPhase.AWAIT_FIRST:
        if ignore_readd:
            return _DISCARDS[READD_IGNORED]
        state.learn_phase = LearnPhase.AWAIT_SECOND
        state.learn_buffer = (serial, payload.counter)
        return _LEARN_PROGRESS

    buffered_serial, buffered_counter = state.learn_buffer
    if serial != buffered_serial:
        # A different fob mid-sequence restarts the learn with that fob.
        if ignore_readd:
            return _DISCARDS[READD_IGNORED]
        state.learn_buffer = (serial, payload.counter)
        return _LEARN_PROGRESS

    if payload.counter != (buffered_counter + 1) % COUNTER_MOD:
        state.learn_phase = LearnPhase.AWAIT_FIRST
        state.learn_buffer = None
        return _DISCARDS[LEARN_ABORT]

    state.fobs[serial] = FobRecord(key, payload.counter)
    state.learn_buffer = None
    state.learn_phase = (
        _INACTIVE
        if policy.learn.exit_after_success
        else LearnPhase.AWAIT_FIRST
    )
    return ReceiverAction(kind=ActionKind.LEARN_COMPLETE)
