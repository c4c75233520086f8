import pytest

from rkesim.attacks import (
    AttackConfigError,
    AttackerStrategy,
    ExploitSpec,
    FutureCode,
    JamAndReplayLock,
    NaiveReplay,
    RollBack,
    RollJam,
    ScheduleReplay,
    SetJamming,
    execute_exploit,
    schedule_exploit,
)
from rkesim.codebook import Instruction, derive_key, master_from_seed
from rkesim.fob import FobState, press
from rkesim.receiver import (
    Door,
    FobRecord,
    ReceiverPolicy,
    RollbackProfile,
    SequenceMode,
    new_receiver_state,
    receive,
)

MASTER = master_from_seed(11)
SERIAL = 7
KEY = derive_key(MASTER, SERIAL)
UNLOCK = Instruction.UNLOCK
LOCK = Instruction.LOCK


def synced_pair(policy, presses, buttons=None):
    """Receiver that saw a press run, plus the captures an attacker made."""
    state = new_receiver_state(policy, MASTER)
    state.fobs[SERIAL] = FobRecord(KEY, 0)
    fob = FobState(serial=SERIAL, key=KEY, counter=0)
    captures = []
    now = 0
    for i in range(presses):
        button = buttons[i] if buttons else UNLOCK
        now += 1000
        fob, frame = press(fob, button, now)
        receive(state, policy, frame, now)
        captures.append(frame)
    state.door = Door.LOCKED
    return state, captures, now


def test_rolljam_state_machine_sequence():
    strategy = RollJam()
    assert strategy.on_deploy(0, 0) == [SetJamming(True)]
    assert strategy.on_capture(0, 10) == []
    commands = strategy.on_capture(1, 20)
    assert commands == [SetJamming(False), ScheduleReplay(20, 0)]
    assert strategy.held_index == 1
    # Exploit replays the held capture.
    assert strategy.on_exploit({}, 2, 500) == [ScheduleReplay(500, 1)]


def test_rolljam_keeps_held_code_through_later_captures():
    # The strategy does not track whether a later press invalidated its
    # held code; the receiver decides that when the code is replayed
    # (tests/test_sim.py::test_rolljam_fragile_after_intervening_press).
    strategy = RollJam()
    strategy.on_deploy(0, 0)
    strategy.on_capture(0, 10)
    strategy.on_capture(1, 20)
    assert strategy.on_capture(2, 30) == []
    assert strategy.on_exploit({}, 3, 500) == [ScheduleReplay(500, 1)]


def test_rollback_recon_jams_only_first():
    strategy = RollBack(jam_first=True, signals_to_capture=3)
    assert strategy.on_deploy(0, 0) == [SetJamming(True)]
    commands = strategy.on_capture(0, 10)
    assert commands == [SetJamming(False)]
    assert strategy.on_capture(1, 20) == []
    assert strategy.on_capture(2, 30) == []
    assert not strategy.armed
    assert strategy.recon_indices == [0, 1, 2]


@pytest.mark.parametrize("signals", [0, -1])
def test_rollback_needs_at_least_one_signal(signals):
    with pytest.raises(ValueError, match="^signals_to_capture must be at least 1$"):
        RollBack(signals_to_capture=signals)


def test_rollback_recon_passive_never_jams():
    strategy = RollBack(jam_first=False, signals_to_capture=2)
    assert strategy.on_deploy(0, 0) == []
    assert strategy.on_capture(0, 10) == []
    assert strategy.on_capture(1, 20) == []


@pytest.mark.parametrize(
    "strategy, phase, captured",
    [
        (AttackerStrategy, "exploit", 3),
        (NaiveReplay, "deploy", 3),
        (NaiveReplay, "exploit", 0),
        (JamAndReplayLock, "exploit", 0),
        (FutureCode, "deploy", 3),
        (RollJam, "exploit", 3),  # never deployed, so nothing is held
    ],
    ids=[
        "base", "naive-deploy", "naive-nothing-captured", "jam-lock-nothing-captured",
        "future-code-deploy", "rolljam-nothing-held",
    ],
)
def test_ignored_phase_answers_no_command(strategy, phase, captured):
    if phase == "deploy":
        assert strategy().on_deploy(captured, 1000) == []
    else:
        assert strategy().on_exploit({}, captured, 1000) == []


def test_rollback_exploit_schedules_replays_with_gaps():
    strategy = RollBack(jam_first=False, signals_to_capture=2)
    strategy.on_deploy(0, 0)
    strategy.on_capture(0, 10)
    strategy.on_capture(1, 20)
    commands = strategy.on_exploit({"gap_ms": 4000}, 2, 1_000_000)
    assert commands == [
        ScheduleReplay(1_000_000, 0),
        ScheduleReplay(1_004_000, 1),
    ]


def test_execute_exploit_loose_pair_succeeds():
    policy = ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))
    state, captures, now = synced_pair(policy, presses=8)
    spec = ExploitSpec(signal_indices=(0, 3), inter_replay_gap_ms=1000)
    assert execute_exploit(spec, captures, state, policy, now + 10_000)
    assert state.door is Door.UNLOCKED
    assert len(schedule_exploit(spec, now + 10_000)) == 2


def test_execute_exploit_gap_boundary():
    policy = ReceiverPolicy(
        rollback=RollbackProfile(2, SequenceMode.STRICT, timeframe_ms=5000)
    )
    state, captures, now = synced_pair(policy, presses=6)

    fast = execute_exploit(
        ExploitSpec(signal_indices=(0, 1), inter_replay_gap_ms=4000),
        captures,
        state.clone(),
        policy,
        now + 10_000,
    )
    assert fast

    slow_state = state.clone()
    slow = execute_exploit(
        ExploitSpec(signal_indices=(0, 1), inter_replay_gap_ms=6000),
        captures,
        slow_state,
        policy,
        now + 10_000,
    )
    assert not slow
    assert slow_state.door is Door.LOCKED


def test_execute_exploit_relock_replays_following_capture():
    policy = ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))
    buttons = [UNLOCK, UNLOCK, LOCK, UNLOCK, LOCK]
    state, captures, now = synced_pair(policy, presses=5, buttons=buttons)
    spec = ExploitSpec(signal_indices=(0, 1), inter_replay_gap_ms=1000, relock=True)
    # Unlocked after the main sequence, then capture #2 (lock) relocked it.
    assert execute_exploit(spec, captures, state, policy, now + 10_000)
    assert state.door is Door.LOCKED
    assert len(schedule_exploit(spec, now + 10_000)) == 3


def test_execute_exploit_secure_policy_fails():
    policy = ReceiverPolicy()
    state, captures, now = synced_pair(policy, presses=4)
    success = execute_exploit(
        ExploitSpec(signal_indices=(0, 1), inter_replay_gap_ms=1000),
        captures,
        state,
        policy,
        now + 10_000,
    )
    assert not success
    assert state.door is Door.LOCKED


def test_execute_exploit_index_out_of_range():
    policy = ReceiverPolicy()
    state, captures, now = synced_pair(policy, presses=2)
    with pytest.raises(AttackConfigError):
        execute_exploit(
            ExploitSpec(signal_indices=(0, 9)),
            captures,
            state,
            policy,
            now,
        )
    with pytest.raises(AttackConfigError):
        # relock needs one capture beyond the last replayed index
        execute_exploit(
            ExploitSpec(signal_indices=(0, 1), relock=True),
            captures,
            state,
            policy,
            now,
        )


def test_exploit_spec_rejects_negative_gap():
    # A negative gap would send both replay paths back in time.
    with pytest.raises(ValueError):
        ExploitSpec(signal_indices=(0, 1), inter_replay_gap_ms=-5000)


def test_execute_exploit_relock_without_selection_replays_nothing():
    # Both paths share one plan: no selection means no relock target either.
    policy = ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))
    state, captures, now = synced_pair(policy, presses=3)
    spec = ExploitSpec(signal_indices=(), relock=True)
    assert execute_exploit(spec, captures, state, policy, now + 10_000) is False
    assert state.door is Door.LOCKED
    assert schedule_exploit(spec, now + 10_000) == []


def test_exploit_repeatable_many_times():
    policy = ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))
    state, captures, now = synced_pair(policy, presses=6)
    at = now + 1_000_000
    for _ in range(4):
        state.door = Door.LOCKED
        assert execute_exploit(
            ExploitSpec(signal_indices=(0, 1), inter_replay_gap_ms=1000),
            captures,
            state,
            policy,
            at,
        )
        at += 3600 * 1000
