"""Property tests for the protocol invariants."""

import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from rkesim import attacks
from rkesim.analyzer import UNBOUNDED_GAP_MS, ProbeBudget, Transcript, classify
from rkesim.attacks import ExploitSpec, execute_exploit, schedule_exploit
from rkesim.codebook import (
    COUNTER_MOD,
    Instruction,
    Payload,
    Transmission,
    derive_key,
    discrimination_for,
    encode,
    master_from_seed,
)
from rkesim.fob import FobState, press
from rkesim.receiver import (
    ActionKind,
    Door,
    FobRecord,
    ReaddMode,
    ReceiverPolicy,
    RollbackProfile,
    SequenceMode,
    TimestampCheck,
    WindowClass,
    classify_window,
    enter_learn_mode,
    new_receiver_state,
    receive,
)
from test_analyzer import _fresh_replay_classify

MASTER = master_from_seed(1000)
SERIAL = 5
KEY = derive_key(MASTER, SERIAL)

buttons = st.sampled_from([Instruction.LOCK, Instruction.UNLOCK])


def fresh(policy, counter=0):
    state = new_receiver_state(policy, MASTER)
    state.fobs[SERIAL] = FobRecord(KEY, counter)
    fob = FobState(serial=SERIAL, key=KEY, counter=counter)
    return state, fob


@given(
    start=st.integers(min_value=0, max_value=COUNTER_MOD - 1),
    ops=st.lists(
        st.tuples(st.sampled_from(["press", "replay"]), buttons, st.integers(0, 30)),
        max_size=30,
    ),
)
@settings(max_examples=300, deadline=None)
def test_safe_monotone_counter_never_decreases(start, ops):
    # On the secure policy the stored counter is non-decreasing (modulo
    # explicit learning, which never happens here) and every stale frame
    # leaves counters and door untouched.
    policy = ReceiverPolicy()
    state, fob = fresh(policy, counter=start)
    seen: list[Transmission] = []
    previous = start
    now = 0
    for kind, button, pick in ops:
        now += 1000
        if kind == "press" or not seen:
            fob, frame = press(fob, button, now)
            seen.append(frame)
        else:
            frame = seen[pick % len(seen)]
        record = state.fobs[SERIAL]
        before_counter = record.counter
        before_door = state.door
        action = receive(state, policy, frame, now)
        after = record.counter
        assert (after - previous) % COUNTER_MOD < COUNTER_MOD // 2 or after == previous
        previous = after
        if action.kind is ActionKind.DISCARDED and action.reason == "replay":
            assert after == before_counter
            assert state.door is before_door


@given(
    frames=st.lists(
        st.tuples(st.binary(min_size=16, max_size=16), st.integers(0, 3)),
        max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_no_forge_random_frames_never_move_door(frames):
    # An attacker with no captures can only invent bytes; those never
    # authenticate, so the door and the counters never move.
    policy = ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))
    state, _ = fresh(policy, counter=700)
    now = 0
    for blob, serial_pick in frames:
        now += 500
        serial = [SERIAL, SERIAL, 99, 12345][serial_pick]
        action = receive(
            state, policy, Transmission(serial=serial, ciphertext=blob), now
        )
        assert action.kind is ActionKind.DISCARDED
        assert state.door is Door.LOCKED
        assert state.fobs[SERIAL].counter == 700


@given(
    pattern=st.lists(buttons, min_size=2, max_size=2),
    gap=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_instruction_agnostic_success_ignores_buttons(pattern, gap):
    # Rollback success depends on counters and timing only; buttons just
    # pick the final action.
    policy = ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))
    state, fob = fresh(policy)
    frames = []
    now = 0
    for i in range(8):
        now += 1000
        button = pattern[i % 2]
        fob, frame = press(fob, button, now)
        receive(state, policy, frame, now)
        frames.append((frame, button))
    state.door = Door.LOCKED
    first, _ = frames[0]
    second, second_button = frames[gap]
    receive(state, policy, first, now + 10_000)
    action = receive(state, policy, second, now + 11_000)
    assert action.kind is ActionKind.RESYNCED
    assert action.instruction is second_button
    expected = Door.UNLOCKED if second_button is Instruction.UNLOCK else Door.LOCKED
    assert state.door is expected


@given(
    signals=st.integers(min_value=2, max_value=5),
    extra=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_rollback_resync_lands_on_last_replayed_counter(signals, extra):
    policy = ReceiverPolicy(rollback=RollbackProfile(signals, SequenceMode.STRICT))
    state, fob = fresh(policy)
    frames = []
    now = 0
    for _ in range(signals + extra + 2):
        now += 1000
        fob, frame = press(fob, Instruction.UNLOCK, now)
        receive(state, policy, frame, now)
        frames.append(frame)
    state.door = Door.LOCKED
    start = extra  # replay a consecutive run starting anywhere
    action = None
    for j in range(signals):
        action = receive(state, policy, frames[start + j], now + 5000 + j * 1000)
    assert action.kind is ActionKind.RESYNCED
    assert action.new_counter == start + signals  # counters begin at 1
    assert state.fobs[SERIAL].counter == start + signals


@given(
    c_v=st.integers(min_value=0, max_value=COUNTER_MOD - 1),
    c_k=st.integers(min_value=0, max_value=COUNTER_MOD - 1),
    single=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=500, deadline=None)
def test_window_partition_is_total(c_v, c_k, single):
    policy = ReceiverPolicy(single_window=single, double_window_limit=1 << 15)
    window = classify_window(policy, c_v, c_k)
    d = (c_k - c_v) % COUNTER_MOD
    if d == 0 or d >= 1 << 15:
        assert window is WindowClass.REPLAY
    elif d <= single:
        assert window is WindowClass.SINGLE
    else:
        assert window is WindowClass.DOUBLE


@given(
    counters=st.lists(
        st.integers(min_value=0, max_value=COUNTER_MOD - 1),
        min_size=2,
        max_size=6,
        unique=True,
    ),
    button=buttons,
)
@settings(max_examples=200, deadline=None)
def test_encode_injective_over_distinct_counters(counters, button):
    frames = {
        encode(
            KEY,
            SERIAL,
            Payload(
                counter=c,
                button=button,
                discrimination=discrimination_for(KEY, SERIAL),
            ),
        ).ciphertext
        for c in counters
    }
    assert len(frames) == len(counters)


def test_replayed_frames_always_equal_captured_bytes():
    # Replay-only invariant at the byte level over a random session.
    rng = random.Random(7)
    policy = ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))
    state, fob = fresh(policy)
    captured = []
    now = 0
    for _ in range(200):
        now += 250
        if captured and rng.random() < 0.5:
            frame = rng.choice(captured)
            replay = Transmission(serial=frame.serial, ciphertext=frame.ciphertext)
            assert replay.ciphertext == frame.ciphertext
            receive(state, policy, replay, now)
        else:
            fob, frame = press(fob, rng.choice(list(Instruction)), now)
            captured.append(frame)
            receive(state, policy, frame, now)


def _loose2_session(presses):
    policy = ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))
    state, fob = fresh(policy)
    captures = []
    for i in range(presses):
        fob, frame = press(fob, Instruction.UNLOCK, 1000 * (i + 1))
        captures.append(frame)
    return state, policy, captures


@given(
    indices=st.lists(st.integers(0, 8), unique=True, max_size=6).map(sorted),
    gap=st.integers(1, 10_000),
    relock=st.booleans(),
    now=st.integers(10_000, 10**9),
)
@settings(max_examples=200, deadline=None)
def test_execute_exploit_delivers_the_schedule_exploit_plan(indices, gap, relock, now):
    # The scenario engine replays what schedule_exploit plans; the direct
    # path must hand receive() the same frames at the same times, and
    # answer the door after the last selected frame.
    state, policy, captures = _loose2_session(10)
    spec = ExploitSpec(tuple(indices), gap, relock)
    delivered = []
    doors = []

    def recording_receive(state, policy, frame, at):
        delivered.append((at, frame))
        action = receive(state, policy, frame, at)
        doors.append(state.door)
        return action

    attacks.receive = recording_receive
    try:
        success = execute_exploit(spec, captures, state, policy, now)
    finally:
        attacks.receive = receive
    plan = schedule_exploit(spec, now)
    assert delivered == [(c.at, captures[c.capture_index]) for c in plan]
    assert success is (bool(indices) and doors[len(indices) - 1] is Door.UNLOCKED)


@st.composite
def policies(draw):
    """Any receiver policy: rollback, per-button counters, every learn-mode
    knob (a receiver without explicit entry starts in learn mode), a
    timestamp check and the window bounds."""
    single = draw(st.integers(1, 8))
    # Two drawn booleans lean towards False, which leaves the receiver in
    # learn mode for good and NOT VULNERABLE; draw the pair as one of four.
    explicit_entry, exit_after_success = draw(st.sampled_from(
        [(True, True), (True, False), (False, True), (False, False)]))
    return ReceiverPolicy(
        single_window=single,
        double_window_limit=draw(st.integers(single + 1, single + 12) | st.just(1 << 15)),
        rollback=draw(st.none() | st.builds(
            RollbackProfile, st.integers(2, 4), st.sampled_from(SequenceMode),
            st.none() | st.integers(1, 5000),
        )),
        explicit_entry_required=explicit_entry,
        exit_after_success=exit_after_success,
        readd_known_fob=draw(st.sampled_from(ReaddMode)),
        per_instruction_counters=draw(st.booleans()),
        timestamp_check=draw(st.none() | st.builds(TimestampCheck, st.integers(0, 3000))),
    )


near_the_top = st.integers(COUNTER_MOD - 24, COUNTER_MOD - 1)


@given(
    policy=policies(),
    start=near_the_top | st.integers(0, COUNTER_MOD - 1),
    offset=near_the_top | st.integers(1, COUNTER_MOD - 1),
    ops=st.lists(
        st.one_of(
            # A press, heard or not (a skipped counter opens the double window).
            st.tuples(st.just("press"), buttons, st.booleans(), st.integers(0, 4000)),
            st.tuples(st.just("replay"), st.integers(0, 40), st.integers(0, 4000)),
            st.tuples(st.just("learn"), st.just(0)),
        ),
        max_size=30,
    ),
)
@settings(max_examples=200, deadline=None)
def test_receive_is_equivariant_under_translating_every_counter(policy, start, offset, ops):
    # Two fobs that differ only in their start counter, each heard by a
    # receiver that stored that counter, take the same presses and replays
    # at the same times.  Every counter of one run is the other's moved by
    # ``offset``, mod 2^16, so the actions agree and the receivers key
    # alike relative to their starts.  On the strength of this the oracle
    # walks start 0's transcript alone, on behalf of every start.
    runs = []
    for origin in (start, (start + offset) % COUNTER_MOD):
        state = new_receiver_state(policy, MASTER)
        state.fobs[SERIAL] = FobRecord(KEY, origin)
        fob = FobState(SERIAL, KEY, origin, emit_timestamps=policy.timestamp_check is not None)
        runs.append([origin, state, fob, []])
    now = 0
    for op in ops:
        now += op[-1]
        actions = []
        for run in runs:
            origin, state, fob, seen = run
            if op[0] == "learn":
                enter_learn_mode(state)
                continue
            if op[0] == "press":
                run[2], frame = press(fob, op[1], now)
                seen.append(frame)
                if not op[2]:
                    continue
            elif seen:
                frame = seen[op[1] % len(seen)]
            else:
                continue
            action = receive(state, policy, frame, now)
            if action.new_counter is not None:
                action = replace(action, new_counter=(action.new_counter - origin) % COUNTER_MOD)
            actions.append(action)
        if actions:
            one, other = actions
            assert one == other, op
        (origin_one, state_one, *_), (origin_other, state_other, *_) = runs
        assert state_one.key(origin=origin_one) == state_other.key(origin=origin_other), op


_GAP_SETS = st.sets(
    st.sampled_from([1, UNBOUNDED_GAP_MS]) | st.integers(2, 12_000)
    | st.integers(UNBOUNDED_GAP_MS + 1, 3 * UNBOUNDED_GAP_MS),
    min_size=1, max_size=6,
)


@st.composite
def classify_cases(draw):
    """A probe budget, and a rollback policy whose timeframe and timestamp
    tolerance sit where the probe gaps' verdicts can change: timeframes
    near a grid gap, tolerances near the replay start (a capture's age
    when the first replay lands).  A policy without rollback never
    unlocks on replays, so every drawn policy has one."""
    gaps = sorted(draw(_GAP_SETS))
    budget = ProbeBudget(max_signals=draw(st.integers(2, 5)), gap_probes_ms=tuple(gaps))
    near_a_gap = gaps[draw(st.integers(0, len(gaps) - 1))] + draw(st.integers(-2, 2))
    timeframe = draw(
        st.sampled_from([None, max(1, near_a_gap)]) | st.integers(1, 4 * UNBOUNDED_GAP_MS)
    )
    replay_start = Transcript(2 * budget.max_signals).replay_start
    policy = replace(
        draw(policies()),
        rollback=RollbackProfile(
            draw(st.integers(2, budget.max_signals + 1)), draw(st.sampled_from(SequenceMode)),
            timeframe,
        ),
        timestamp_check=draw(st.none() | st.builds(
            TimestampCheck, st.integers(replay_start - 10**6, replay_start + 10**6),
        )),
    )
    return policy, budget


@given(case=classify_cases())
@settings(max_examples=200, deadline=None)
def test_classify_matches_the_full_grid_reference(case):
    # classify decides each length at the smallest gap and bisects the grid
    # only where a shape passes; that is exact only if passing gaps form a
    # down-set at the first passing length.  The reference replays every
    # (shape, gap) probe of every length from a fresh clone.
    policy, budget = case
    assert classify(policy, budget) == _fresh_replay_classify(policy, budget)
