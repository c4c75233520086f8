import pytest

from rkesim.codebook import Instruction, derive_key, master_from_seed
from rkesim.fob import FobState, press
from rkesim.receiver import (
    ActionKind,
    Door,
    FobRecord,
    LearnPhase,
    ReaddMode,
    ReceiverAction,
    ReceiverPolicy,
    ReceiverState,
    RollbackProfile,
    SequenceMode,
    TimestampCheck,
    WindowClass,
    classify_window,
    enter_learn_mode,
    new_receiver_state,
    receive,
)

MASTER = master_from_seed(42)
SERIAL = 7
KEY = derive_key(MASTER, SERIAL)

LOCK = Instruction.LOCK
UNLOCK = Instruction.UNLOCK


def build(policy, fob_counter=100, stored=None, learned=True, **fob_kwargs):
    state = new_receiver_state(policy, MASTER)
    if learned:
        state.fobs[SERIAL] = FobRecord(KEY, stored if stored is not None else fob_counter)
    fob = FobState(serial=SERIAL, key=KEY, counter=fob_counter, **fob_kwargs)
    return state, fob


def emit(fob, button=UNLOCK, now=0):
    return press(fob, button, now)


# --- window classification -------------------------------------------------

def test_window_single():
    assert classify_window(ReceiverPolicy(), 100, 105) is WindowClass.SINGLE


def test_window_double():
    assert classify_window(ReceiverPolicy(), 100, 200) is WindowClass.DOUBLE


def test_window_replay_stale():
    assert classify_window(ReceiverPolicy(), 105, 100) is WindowClass.REPLAY


def test_window_replay_equal():
    assert classify_window(ReceiverPolicy(), 100, 100) is WindowClass.REPLAY


def test_window_boundaries():
    policy = ReceiverPolicy(single_window=16, double_window_limit=1 << 15)
    assert classify_window(policy, 0, 16) is WindowClass.SINGLE
    assert classify_window(policy, 0, 17) is WindowClass.DOUBLE
    assert classify_window(policy, 0, (1 << 15) - 1) is WindowClass.DOUBLE
    assert classify_window(policy, 0, 1 << 15) is WindowClass.REPLAY


def test_window_blocked_with_reduced_double_limit():
    policy = ReceiverPolicy(single_window=16, double_window_limit=1000)
    assert classify_window(policy, 0, 999) is WindowClass.DOUBLE
    assert classify_window(policy, 0, 1000) is WindowClass.BLOCKED
    assert classify_window(policy, 0, (1 << 15) - 1) is WindowClass.BLOCKED


def test_window_wraparound_forward():
    # Counter ahead across the 16-bit wrap still counts as forward.
    policy = ReceiverPolicy()
    assert classify_window(policy, (1 << 16) - 2, 3) is WindowClass.SINGLE


def test_policy_validation():
    with pytest.raises(ValueError):
        ReceiverPolicy(single_window=0)
    with pytest.raises(ValueError):
        ReceiverPolicy(single_window=20, double_window_limit=20)
    with pytest.raises(ValueError):
        ReceiverPolicy(double_window_limit=(1 << 15) + 1)
    with pytest.raises(ValueError):
        RollbackProfile(signals_required=1, sequence=SequenceMode.STRICT)


# --- basic reception -------------------------------------------------------

def test_unknown_serial_discarded():
    state, fob = build(ReceiverPolicy(), learned=False)
    fob, frame = emit(fob)
    action = receive(state, ReceiverPolicy(), frame, 0)
    assert action.kind is ActionKind.DISCARDED and action.reason == "unknown_fob"


def test_wrong_key_discarded():
    policy = ReceiverPolicy()
    state, _ = build(policy)
    impostor = FobState(serial=SERIAL, key=derive_key(MASTER, 999), counter=100)
    _, frame = emit(impostor)
    action = receive(state, policy, frame, 0)
    assert action.kind is ActionKind.DISCARDED and action.reason == "bad_auth"


def test_single_window_executes_and_resyncs():
    policy = ReceiverPolicy()
    state, fob = build(policy)
    fob, frame = emit(fob, UNLOCK)
    action = receive(state, policy, frame, 0)
    assert action.kind is ActionKind.EXECUTED
    assert action.instruction is UNLOCK
    assert state.fobs[SERIAL].counter == 101
    assert state.door is Door.UNLOCKED


def test_single_window_invalidates_skipped_codes():
    policy = ReceiverPolicy()
    state, fob = build(policy)
    skipped = []
    for _ in range(4):
        fob, frame = emit(fob)
        skipped.append(frame)
    action = receive(state, policy, skipped[-1], 0)  # counter 104, jump of 4
    assert action.kind is ActionKind.EXECUTED
    assert state.fobs[SERIAL].counter == 104
    for frame in skipped[:-1]:
        action = receive(state, policy, frame, 1000)
        assert action.kind is ActionKind.DISCARDED
        assert action.reason == "replay"


def test_double_window_needs_two_consecutive():
    policy = ReceiverPolicy()
    state, fob = build(policy, fob_counter=100, stored=100)
    fob = FobState(serial=SERIAL, key=KEY, counter=300)
    fob, first = emit(fob, LOCK, now=0)
    action = receive(state, policy, first, 0)
    assert action.kind is ActionKind.DISCARDED
    assert action.reason == "awaiting_resync"
    assert state.door is Door.LOCKED  # first frame never acts
    fob, second = emit(fob, UNLOCK, now=1000)
    action = receive(state, policy, second, 1000)
    assert action.kind is ActionKind.RESYNCED
    assert action.new_counter == 302
    assert action.instruction is UNLOCK
    assert state.fobs[SERIAL].counter == 302
    assert state.door is Door.UNLOCKED


def test_double_window_nonconsecutive_replaces_buffer():
    policy = ReceiverPolicy()
    state, _ = build(policy, fob_counter=100, stored=100)
    fob = FobState(serial=SERIAL, key=KEY, counter=300)
    fob, first = emit(fob, now=0)
    receive(state, policy, first, 0)
    fob = FobState(serial=SERIAL, key=KEY, counter=500)
    fob, jumped = emit(fob, now=1000)
    action = receive(state, policy, jumped, 1000)
    assert action.kind is ActionKind.DISCARDED  # 501 is not 302
    fob, following = emit(fob, now=2000)
    action = receive(state, policy, following, 2000)  # 502 follows 501
    assert action.kind is ActionKind.RESYNCED
    assert state.fobs[SERIAL].counter == 502


def test_double_window_follow_up_crosses_the_counter_wrap():
    policy = ReceiverPolicy()
    state, _ = build(policy, stored=65000)
    fob = FobState(serial=SERIAL, key=KEY, counter=65534)
    fob, last = emit(fob, now=0)  # counter 65535
    assert receive(state, policy, last, 0).reason == "awaiting_resync"
    fob, wrapped = emit(fob, now=1000)  # counter 0 follows 65535
    action = receive(state, policy, wrapped, 1000)
    assert action.kind is ActionKind.RESYNCED and action.new_counter == 0
    assert state.fobs[SERIAL].counter == 0


def test_accept_cancels_a_pending_double_window_resync():
    policy = ReceiverPolicy()
    state, fob = build(policy, fob_counter=100, stored=100)
    far = FobState(serial=SERIAL, key=KEY, counter=300)
    far, first = emit(far, now=0)  # counter 301 waits for 302
    assert receive(state, policy, first, 0).reason == "awaiting_resync"
    fob, near = emit(fob, now=1000)  # counter 101: a plain accept
    assert receive(state, policy, near, 1000).kind is ActionKind.EXECUTED
    # The accept dropped 301, so 302 only starts a new resync.
    far, second = emit(far, now=2000)
    action = receive(state, policy, second, 2000)
    assert action.kind is ActionKind.DISCARDED and action.reason == "awaiting_resync"
    assert state.fobs[SERIAL].counter == 101


def test_blocked_window_discards():
    policy = ReceiverPolicy(double_window_limit=200)
    state, _ = build(policy, fob_counter=0, stored=0)
    fob = FobState(serial=SERIAL, key=KEY, counter=5000)
    _, frame = emit(fob)
    action = receive(state, policy, frame, 0)
    assert action.kind is ActionKind.DISCARDED and action.reason == "blocked"


def test_secure_policy_discards_every_replay():
    policy = ReceiverPolicy()
    state, fob = build(policy)
    frames = []
    for i in range(5):
        fob, frame = emit(fob, now=i)
        receive(state, policy, frame, i)
        frames.append(frame)
    stored = state.fobs[SERIAL].counter
    door = state.door
    for frame in frames:
        action = receive(state, policy, frame, 10_000)
        assert action.kind is ActionKind.DISCARDED and action.reason == "replay"
        assert state.fobs[SERIAL].counter == stored
        assert state.door is door


# --- rollback path ----------------------------------------------------------

def loose2():
    return ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))


def capture_run(state, policy, fob, buttons, start=0, spacing=1000):
    frames = []
    now = start
    for button in buttons:
        fob, frame = press(fob, button, now)
        receive(state, policy, frame, now)
        frames.append(frame)
        now += spacing
    return fob, frames, now


def test_rollback_loose_two_signals_with_gap():
    # Captures at counters (i, i+3) replayed while the receiver is at i+9.
    policy = loose2()
    state, fob = build(policy, fob_counter=0, stored=0)
    fob, frames, now = capture_run(state, policy, fob, [UNLOCK] * 10)
    state.door = Door.LOCKED
    first = receive(state, policy, frames[0], now + 50_000)
    assert first.kind is ActionKind.DISCARDED
    assert state.door is Door.LOCKED
    second = receive(state, policy, frames[3], now + 51_000)
    assert second.kind is ActionKind.RESYNCED
    assert second.new_counter == 4  # counter of frames[3]
    assert state.fobs[SERIAL].counter == 4
    assert state.door is Door.UNLOCKED


def test_rollback_strict_requires_consecutive():
    policy = ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.STRICT))
    state, fob = build(policy, fob_counter=0, stored=0)
    fob, frames, now = capture_run(state, policy, fob, [UNLOCK] * 10)
    state.door = Door.LOCKED
    receive(state, policy, frames[0], now)
    action = receive(state, policy, frames[3], now + 1000)  # gap of 3: restart
    assert action.kind is ActionKind.DISCARDED
    assert state.door is Door.LOCKED
    # The violating frame became the new buffer head.
    action = receive(state, policy, frames[4], now + 2000)
    assert action.kind is ActionKind.RESYNCED
    assert state.door is Door.UNLOCKED


def test_rollback_loose_rejects_a_descending_pair():
    # Loose mode lets a run skip counters, but the run must still ascend:
    # capture 4 then capture 2 is two discarded replays.
    policy = loose2()
    state, fob = build(policy, fob_counter=0, stored=0)
    fob, frames, now = capture_run(state, policy, fob, [UNLOCK] * 10)
    state.door = Door.LOCKED
    receive(state, policy, frames[4], now + 50_000)
    action = receive(state, policy, frames[2], now + 51_000)
    assert action.kind is ActionKind.DISCARDED and action.reason == "replay"
    assert state.door is Door.LOCKED


def test_rollback_strict_timeframe_boundary():
    # Two consecutive replays within five seconds succeed; six seconds
    # apart they restart the buffer.
    policy = ReceiverPolicy(
        rollback=RollbackProfile(2, SequenceMode.STRICT, timeframe_ms=5000)
    )
    state, fob = build(policy, fob_counter=0, stored=0)
    fob, frames, now = capture_run(state, policy, fob, [UNLOCK] * 5)

    slow = state.clone()
    slow.door = Door.LOCKED
    receive(slow, policy, frames[0], 100_000)
    action = receive(slow, policy, frames[1], 106_000)  # 6 s gap
    assert action.kind is ActionKind.DISCARDED
    assert slow.door is Door.LOCKED

    fast = state.clone()
    fast.door = Door.LOCKED
    receive(fast, policy, frames[0], 100_000)
    action = receive(fast, policy, frames[1], 104_000)  # 4 s gap
    assert action.kind is ActionKind.RESYNCED
    assert fast.door is Door.UNLOCKED


def test_rollback_timeframe_boundary_inclusive():
    policy = ReceiverPolicy(
        rollback=RollbackProfile(2, SequenceMode.STRICT, timeframe_ms=5000)
    )
    state, fob = build(policy, fob_counter=0, stored=0)
    fob, frames, _ = capture_run(state, policy, fob, [UNLOCK] * 5)
    state.door = Door.LOCKED
    receive(state, policy, frames[0], 100_000)
    action = receive(state, policy, frames[1], 105_000)  # exactly 5 s
    assert action.kind is ActionKind.RESYNCED


def test_rollback_five_strict_over_hundred_days():
    policy = ReceiverPolicy(rollback=RollbackProfile(5, SequenceMode.STRICT))
    state, fob = build(policy, fob_counter=0, stored=0)
    fob, frames, now = capture_run(state, policy, fob, [UNLOCK] * 8)
    state.door = Door.LOCKED
    start = now + 100 * 24 * 3600 * 1000
    for i in range(4):
        action = receive(state, policy, frames[i], start + i * 1000)
        assert action.kind is ActionKind.DISCARDED
        assert state.door is Door.LOCKED
    action = receive(state, policy, frames[4], start + 4000)
    assert action.kind is ActionKind.RESYNCED
    assert state.door is Door.UNLOCKED


def test_rollback_instruction_agnostic_lock_then_unlock():
    # One lock signal and a later unlock signal are enough on loose-2;
    # the receiver executes the last replayed instruction.
    policy = loose2()
    state, fob = build(policy, fob_counter=0, stored=0)
    fob, frames, now = capture_run(
        state, policy, fob, [LOCK, UNLOCK, UNLOCK, LOCK, UNLOCK]
    )
    state.door = Door.LOCKED
    receive(state, policy, frames[0], now)          # lock @ 1
    action = receive(state, policy, frames[2], now + 1000)  # unlock @ 3
    assert action.kind is ActionKind.RESYNCED
    assert action.instruction is UNLOCK
    assert state.door is Door.UNLOCKED


def test_rollback_resync_then_single_window_relock():
    # After the rollback resync, the captured next-counter lock lands in
    # the single window and locks the car again.
    policy = loose2()
    state, fob = build(policy, fob_counter=0, stored=0)
    fob, frames, now = capture_run(
        state, policy, fob, [LOCK, UNLOCK, LOCK, UNLOCK, UNLOCK, LOCK]
    )
    state.door = Door.LOCKED
    receive(state, policy, frames[0], now)            # lock @ 1
    action = receive(state, policy, frames[1], now + 1000)  # unlock @ 2
    assert action.kind is ActionKind.RESYNCED and state.door is Door.UNLOCKED
    assert state.fobs[SERIAL].counter == 2
    action = receive(state, policy, frames[2], now + 2000)  # lock @ 3: single window
    assert action.kind is ActionKind.EXECUTED
    assert action.instruction is LOCK
    assert state.door is Door.LOCKED


def test_rollback_repeatable_after_normal_use():
    policy = loose2()
    state, fob = build(policy, fob_counter=0, stored=0)
    fob, frames, now = capture_run(state, policy, fob, [UNLOCK] * 4)
    for round_no in range(3):
        # Victim keeps using the fob in between.
        fob, fresh, now = capture_run(state, policy, fob, [LOCK, UNLOCK], start=now)
        state.door = Door.LOCKED
        receive(state, policy, frames[0], now + 10_000)
        action = receive(state, policy, frames[1], now + 11_000)
        assert action.kind is ActionKind.RESYNCED, "round %d" % round_no
        assert state.door is Door.UNLOCKED
        now += 20_000


def test_rollback_buffer_keyed_per_fob():
    # Frames from two fobs never combine into one rollback sequence.
    other_serial = 8
    other_key = derive_key(MASTER, other_serial)
    policy = ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))
    state = new_receiver_state(policy, MASTER)
    state.fobs[SERIAL] = FobRecord(KEY, 0)
    state.fobs[other_serial] = FobRecord(other_key, 0)
    fob_a = FobState(serial=SERIAL, key=KEY, counter=0)
    fob_b = FobState(serial=other_serial, key=other_key, counter=0)
    frames_a, frames_b = [], []
    now = 0
    for _ in range(4):
        fob_a, fa = press(fob_a, UNLOCK, now)
        receive(state, policy, fa, now)
        frames_a.append(fa)
        now += 1000
        fob_b, fb = press(fob_b, UNLOCK, now)
        receive(state, policy, fb, now)
        frames_b.append(fb)
        now += 1000
    state.door = Door.LOCKED
    receive(state, policy, frames_a[0], now)
    action = receive(state, policy, frames_b[1], now + 1000)
    assert action.kind is ActionKind.DISCARDED
    assert state.door is Door.LOCKED


# --- mitigations -------------------------------------------------------------

def test_per_instruction_counters_isolate_unlock():
    policy = ReceiverPolicy(
        rollback=RollbackProfile(2, SequenceMode.LOOSE),
        per_instruction_counters=True,
    )
    state, fob = build(policy, fob_counter=0, stored=0)
    fob, frames, now = capture_run(
        state, policy, fob, [LOCK, LOCK, UNLOCK, LOCK, LOCK, UNLOCK]
    )
    state.door = Door.LOCKED
    record = state.fobs[SERIAL]
    unlock_counter = record.button_counters[UNLOCK]
    # Lock-only rollback: resyncs the lock counter, leaves unlock alone.
    receive(state, policy, frames[0], now)
    action = receive(state, policy, frames[1], now + 1000)
    assert action.kind is ActionKind.RESYNCED
    assert action.instruction is LOCK
    assert record.button_counters[UNLOCK] == unlock_counter
    # A single stale unlock afterwards is still rejected.
    action = receive(state, policy, frames[2], now + 2000)
    assert action.kind is ActionKind.DISCARDED
    assert state.door is Door.LOCKED


def test_per_instruction_counters_normal_use():
    policy = ReceiverPolicy(per_instruction_counters=True)
    state, fob = build(policy, fob_counter=0, stored=0)
    for i, button in enumerate([LOCK, LOCK, UNLOCK, LOCK, UNLOCK]):
        fob, frame = press(fob, button, i * 1000)
        action = receive(state, policy, frame, i * 1000)
        assert action.kind is ActionKind.EXECUTED, "press %d" % i


def test_per_instruction_discarded_replay_leaves_state_unchanged():
    # A discarded frame is a read: it must not build the per-button table.
    policy = ReceiverPolicy(per_instruction_counters=True)
    state, fob = build(policy, fob_counter=3, stored=10)
    fob, frame = emit(fob, now=0)
    before = state.key()
    action = receive(state, policy, frame, 0)
    assert action.kind is ActionKind.DISCARDED and action.reason == "replay"
    assert state.key() == before


def test_timestamp_check_rejects_negative_tolerance():
    assert TimestampCheck(0).tolerance_ms == 0
    with pytest.raises(ValueError, match="timestamp tolerance must be non-negative"):
        TimestampCheck(-5)


def test_timestamp_check_discards_stale():
    policy = ReceiverPolicy(timestamp_check=TimestampCheck(tolerance_ms=1000))
    state, fob = build(policy, fob_counter=0, stored=0, emit_timestamps=True)
    fob, frame = press(fob, UNLOCK, now=10_000)
    action = receive(state, policy, frame, 12_000)  # 2 s later: stale
    assert action.kind is ActionKind.DISCARDED
    assert action.reason == "stale_timestamp"
    assert state.door is Door.LOCKED


@pytest.mark.parametrize(
    "skew, reason",
    [(1000, None), (-1000, None), (1001, "stale_timestamp"), (-1001, "stale_timestamp")],
)
def test_timestamp_tolerance_bound_is_inclusive(skew, reason):
    policy = ReceiverPolicy(timestamp_check=TimestampCheck(tolerance_ms=1000))
    state, fob = build(policy, emit_timestamps=True, clock_skew_ms=skew)
    _, frame = press(fob, UNLOCK, now=10_000)
    assert receive(state, policy, frame, 10_000).reason == reason


def test_timestamp_check_accepts_fresh_and_beats_rollback():
    policy = ReceiverPolicy(
        rollback=RollbackProfile(2, SequenceMode.LOOSE),
        timestamp_check=TimestampCheck(tolerance_ms=1000),
    )
    state, fob = build(policy, fob_counter=0, stored=0, emit_timestamps=True)
    frames = []
    now = 0
    for _ in range(5):
        fob, frame = press(fob, UNLOCK, now)
        action = receive(state, policy, frame, now)
        assert action.kind is ActionKind.EXECUTED  # fresh presses still work
        frames.append(frame)
        now += 10_000
    state.door = Door.LOCKED
    receive(state, policy, frames[0], now + 100_000)
    action = receive(state, policy, frames[1], now + 101_000)
    assert action.kind is ActionKind.DISCARDED
    assert action.reason == "stale_timestamp"
    assert state.door is Door.LOCKED


def test_timestamp_check_rejects_fob_without_timestamps():
    policy = ReceiverPolicy(timestamp_check=TimestampCheck(tolerance_ms=1000))
    state, fob = build(policy, fob_counter=0, stored=0)
    fob, frame = press(fob, UNLOCK, now=0)
    action = receive(state, policy, frame, 0)
    assert action.kind is ActionKind.DISCARDED
    assert action.reason == "stale_timestamp"


# --- learn mode ---------------------------------------------------------------

def new_fob(serial):
    return FobState(serial=serial, key=derive_key(MASTER, serial), counter=50)


def test_enter_learn_mode_transitions():
    state = new_receiver_state(ReceiverPolicy(), MASTER)
    assert state.learn_phase is LearnPhase.INACTIVE
    enter_learn_mode(state)
    assert state.learn_phase is LearnPhase.AWAIT_FIRST
    enter_learn_mode(state)  # no-op when active
    assert state.learn_phase is LearnPhase.AWAIT_FIRST


def test_learn_two_consecutive_presses_registers_fob():
    policy = ReceiverPolicy()
    state = new_receiver_state(policy, MASTER)
    enter_learn_mode(state)
    fob = new_fob(31)
    fob, first = press(fob, LOCK, 0)
    action = receive(state, policy, first, 0)
    assert action.kind is ActionKind.LEARN_PROGRESS
    fob, second = press(fob, UNLOCK, 1000)
    action = receive(state, policy, second, 1000)
    assert action.kind is ActionKind.LEARN_COMPLETE
    assert state.fobs[31].counter == 52  # second press counter
    assert state.learn_phase is LearnPhase.INACTIVE  # exit_after_success
    assert state.door is Door.LOCKED  # learning never drives the door


def test_learn_nonconsecutive_aborts():
    policy = ReceiverPolicy()
    state = new_receiver_state(policy, MASTER)
    enter_learn_mode(state)
    fob = new_fob(31)
    fob, first = press(fob, LOCK, 0)
    receive(state, policy, first, 0)
    fob, _ = press(fob, LOCK, 500)       # counter 52 skipped on air
    fob, third = press(fob, LOCK, 1000)  # counter 53
    action = receive(state, policy, third, 1000)
    assert action.kind is ActionKind.DISCARDED
    assert action.reason == "learn_abort"
    assert 31 not in state.fobs
    assert state.learn_phase is LearnPhase.AWAIT_FIRST


def test_learn_abort_clears_the_buffer_for_a_fresh_learn():
    policy = ReceiverPolicy()
    state = new_receiver_state(policy, MASTER)
    enter_learn_mode(state)
    fob = new_fob(31)
    fob, first = press(fob, LOCK, 0)
    receive(state, policy, first, 0)
    fob, _ = press(fob, LOCK, 500)  # counter 52 skipped on air
    fob, third = press(fob, LOCK, 1000)
    assert receive(state, policy, third, 1000).reason == "learn_abort"
    fob, fourth = press(fob, LOCK, 2000)
    assert receive(state, policy, fourth, 2000).kind is ActionKind.LEARN_PROGRESS
    fob, fifth = press(fob, LOCK, 3000)
    assert receive(state, policy, fifth, 3000).kind is ActionKind.LEARN_COMPLETE
    assert state.fobs[31].counter == 55


def test_learn_follow_up_crosses_the_counter_wrap():
    policy = ReceiverPolicy()
    state = new_receiver_state(policy, MASTER)
    enter_learn_mode(state)
    fob = new_fob(31)._replace(counter=65534)
    fob, first = press(fob, LOCK, 0)  # counter 65535
    assert receive(state, policy, first, 0).kind is ActionKind.LEARN_PROGRESS
    fob, second = press(fob, LOCK, 1000)  # counter 0 follows 65535
    assert receive(state, policy, second, 1000).kind is ActionKind.LEARN_COMPLETE
    assert state.fobs[31].counter == 0


def test_learn_stays_active_without_exit():
    policy = ReceiverPolicy(exit_after_success=False)
    state = new_receiver_state(policy, MASTER)
    enter_learn_mode(state)
    fob = new_fob(31)
    fob, first = press(fob, LOCK, 0)
    receive(state, policy, first, 0)
    fob, second = press(fob, LOCK, 1000)
    action = receive(state, policy, second, 1000)
    assert action.kind is ActionKind.LEARN_COMPLETE
    assert state.learn_phase is LearnPhase.AWAIT_FIRST


def test_learn_readd_ignore_leaves_known_fob_untouched():
    policy = ReceiverPolicy(readd_known_fob=ReaddMode.IGNORE)
    state = new_receiver_state(policy, MASTER)
    state.fobs[SERIAL] = FobRecord(KEY, 400)
    enter_learn_mode(state)
    fob = FobState(serial=SERIAL, key=KEY, counter=50)
    fob, frame = press(fob, LOCK, 0)
    action = receive(state, policy, frame, 0)
    assert action.kind is ActionKind.DISCARDED
    assert action.reason == "readd_ignored"
    assert state.fobs[SERIAL].counter == 400
    assert state.learn_phase is LearnPhase.AWAIT_FIRST


def test_learn_readd_ignore_keeps_the_learn_under_way():
    # A known fob that arrives while a new fob is half learned is
    # ignored too; the new fob's learn goes on from its first press.
    policy = ReceiverPolicy(readd_known_fob=ReaddMode.IGNORE)
    state = new_receiver_state(policy, MASTER)
    state.fobs[SERIAL] = FobRecord(KEY, 400)
    enter_learn_mode(state)
    newcomer = new_fob(31)
    newcomer, first = press(newcomer, LOCK, 0)
    assert receive(state, policy, first, 0).kind is ActionKind.LEARN_PROGRESS
    known = FobState(serial=SERIAL, key=KEY, counter=50)
    _, frame = press(known, LOCK, 500)
    action = receive(state, policy, frame, 500)
    assert action.kind is ActionKind.DISCARDED
    assert action.reason == "readd_ignored"
    assert state.learn_phase is LearnPhase.AWAIT_SECOND
    assert state.learn_buffer == (31, 51)
    _, second = press(newcomer, LOCK, 1000)
    assert receive(state, policy, second, 1000).kind is ActionKind.LEARN_COMPLETE
    assert state.fobs[31].counter == 52
    assert state.fobs[SERIAL].counter == 400


def test_learn_readd_overwrite_resyncs_counter():
    policy = ReceiverPolicy()  # overwrite is the default
    state = new_receiver_state(policy, MASTER)
    state.fobs[SERIAL] = FobRecord(KEY, 400)
    enter_learn_mode(state)
    fob = FobState(serial=SERIAL, key=KEY, counter=50)
    fob, first = press(fob, LOCK, 0)
    receive(state, policy, first, 0)
    fob, second = press(fob, LOCK, 1000)
    action = receive(state, policy, second, 1000)
    assert action.kind is ActionKind.LEARN_COMPLETE
    assert state.fobs[SERIAL].counter == 52


def test_learn_wrong_key_rejected():
    policy = ReceiverPolicy()
    state = new_receiver_state(policy, MASTER)
    enter_learn_mode(state)
    foreign = FobState(serial=31, key=derive_key(master_from_seed(777), 31), counter=0)
    _, frame = press(foreign, LOCK, 0)
    action = receive(state, policy, frame, 0)
    assert action.kind is ActionKind.DISCARDED
    assert action.reason == "bad_auth"
    assert state.learn_phase is LearnPhase.AWAIT_FIRST


def test_forever_learn_mode_relearns_old_counters():
    # The permanently-open learn machine re-registers a fob from two
    # consecutive stale frames: the counter rolls back without any
    # explicit learn event.
    policy = ReceiverPolicy(explicit_entry_required=False, exit_after_success=False)
    state = new_receiver_state(policy, MASTER)
    state.fobs[SERIAL] = FobRecord(KEY, 400)
    assert state.learn_phase is LearnPhase.AWAIT_FIRST
    fob = FobState(serial=SERIAL, key=KEY, counter=50)
    fob, first = press(fob, UNLOCK, 0)
    fob, second = press(fob, UNLOCK, 1000)
    receive(state, policy, first, 2000)
    action = receive(state, policy, second, 3000)
    assert action.kind is ActionKind.LEARN_COMPLETE
    assert state.fobs[SERIAL].counter == 52
    assert state.learn_phase is LearnPhase.AWAIT_FIRST


def test_learn_different_serial_restarts_sequence():
    policy = ReceiverPolicy()
    state = new_receiver_state(policy, MASTER)
    enter_learn_mode(state)
    first_fob = new_fob(31)
    second_fob = new_fob(32)
    first_fob, f1 = press(first_fob, LOCK, 0)
    receive(state, policy, f1, 0)
    second_fob, f2 = press(second_fob, LOCK, 1000)
    action = receive(state, policy, f2, 1000)
    assert action.kind is ActionKind.LEARN_PROGRESS
    second_fob, f3 = press(second_fob, LOCK, 2000)
    action = receive(state, policy, f3, 2000)
    assert action.kind is ActionKind.LEARN_COMPLETE
    assert 32 in state.fobs and 31 not in state.fobs


# --- clones and shared actions ---------------------------------------------

def test_clone_mutations_leave_the_original_untouched():
    policy = ReceiverPolicy(
        rollback=RollbackProfile(3, SequenceMode.LOOSE),
        per_instruction_counters=True,
    )
    state, fob = build(policy, fob_counter=0, stored=0)
    fob, frames, now = capture_run(state, policy, fob, [LOCK, UNLOCK, LOCK, UNLOCK])
    receive(state, policy, frames[1], now)  # stale unlock: buffered for rollback
    record = state.fobs[SERIAL]
    record.resync = 500
    state.door = Door.LOCKED

    def snapshot():
        return (state.door, state.learn_phase, state.learn_buffer,
                record.counter, dict(record.button_counters), record.resync,
                list(record.rollback))

    before = snapshot()
    assert record.rollback and record.button_counters
    copy = state.clone()
    copied = copy.fobs[SERIAL]
    assert copied is not record and copied.key == record.key
    assert (copied.counter, copied.button_counters, copied.resync, copied.rollback) == (
        record.counter, record.button_counters, record.resync, record.rollback)
    copied.rollback.append((9, now))
    copied.button_counters[UNLOCK] = 9
    copied.resync = None
    copy.door = Door.UNLOCKED
    copy.learn_phase = LearnPhase.AWAIT_FIRST
    assert snapshot() == before


def _state_with_every_slot_set():
    policy = ReceiverPolicy(
        rollback=RollbackProfile(3, SequenceMode.LOOSE),
        per_instruction_counters=True,
    )
    state, fob = build(policy, fob_counter=0, stored=0)
    fob, frames, now = capture_run(state, policy, fob, [LOCK, UNLOCK, LOCK, UNLOCK])
    receive(state, policy, frames[1], now)  # stale unlock: buffered for rollback
    state.fobs[SERIAL].resync = 500
    state.door = Door.LOCKED
    state.learn_buffer = (SERIAL, 3)
    return state


KEY_MUTATIONS = {
    "master": lambda s: setattr(s, "master", master_from_seed(43)),
    "fobs": lambda s: s.fobs.__setitem__(SERIAL + 1, FobRecord(KEY, 0)),
    "door": lambda s: setattr(s, "door", Door.UNLOCKED),
    "learn_phase": lambda s: setattr(s, "learn_phase", LearnPhase.AWAIT_FIRST),
    "learn_buffer": lambda s: setattr(s, "learn_buffer", None),
    "fob.key": lambda s: setattr(s.fobs[SERIAL], "key", derive_key(MASTER, SERIAL + 1)),
    "fob.counter": lambda s: setattr(s.fobs[SERIAL], "counter", 9),
    "fob.button_counters": lambda s: s.fobs[SERIAL].button_counters.__setitem__(UNLOCK, 9),
    "fob.resync": lambda s: setattr(s.fobs[SERIAL], "resync", None),
    "fob.rollback": lambda s: s.fobs[SERIAL].rollback.append((9, 0)),
}


@pytest.mark.parametrize("used", [False, True], ids=["fresh", "used"])
def test_clone_sets_every_slot(used):
    # clone() fills the slots one by one, so a slot added later and not
    # copied there is unset on the copy: getattr raises AttributeError.
    state = _state_with_every_slot_set() if used else build(ReceiverPolicy())[0]
    copy = state.clone()
    for name in ReceiverState.__slots__:
        if name != "fobs":
            assert getattr(copy, name) == getattr(state, name), name
    assert copy.fobs.keys() == state.fobs.keys() == {SERIAL}
    record, copied = state.fobs[SERIAL], copy.fobs[SERIAL]
    assert bool(record.button_counters) is used
    for name in FobRecord.__slots__:
        assert getattr(copied, name) == getattr(record, name), name


def test_clone_has_an_equal_hashable_key():
    state = _state_with_every_slot_set()
    assert state.fobs[SERIAL].rollback and state.fobs[SERIAL].button_counters
    assert state.clone().key() == state.key()
    assert hash(state.clone().key()) == hash(state.key())


@pytest.mark.parametrize("slot", KEY_MUTATIONS)
def test_key_changes_with_every_slot(slot):
    state = _state_with_every_slot_set()
    copy = state.clone()
    KEY_MUTATIONS[slot](copy)
    assert copy.key() != state.key()
    assert state.clone().key() == state.key()  # the original is untouched


def test_key_ignores_when_a_discarded_frame_arrived():
    # Two receivers take the same frames, the last one a replay that is
    # discarded, at different times: no later frame can tell them apart.
    policy = ReceiverPolicy()
    states = []
    for last_at in (2000, 9000):
        state, fob = build(policy, fob_counter=0, stored=0)
        fob, first = emit(fob, UNLOCK, 0)
        fob, second = emit(fob, LOCK, 1000)
        receive(state, policy, first, 0)
        receive(state, policy, second, 1000)
        assert receive(state, policy, first, last_at).reason == "replay"
        states.append(state)
    assert states[0].key() == states[1].key()


def test_accepts_return_equal_executed_actions():
    policy = ReceiverPolicy()
    state, fob = build(policy)
    for button in (UNLOCK, LOCK):
        fob, first = emit(fob, button, 0)
        fob, second = emit(fob, button, 1000)
        one = receive(state, policy, first, 0)
        two = receive(state, policy, second, 1000)
        assert one == two == ReceiverAction(kind=ActionKind.EXECUTED, instruction=button)
