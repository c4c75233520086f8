"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (run with ``pytest -v``
or ``-s`` to see them); a failure shows up as a normal pytest failure.
"""

import itertools
import json
import os
import random
import time

from rkesim.analyzer import (
    classify,
    exhaustive_search,
    signature_from_findings,
)
from rkesim.attacks import ExploitSpec, execute_exploit
from rkesim.cli import main
from rkesim.codebook import (
    COUNTER_MOD,
    Instruction,
    Transmission,
    derive_key,
    master_from_seed,
)
from rkesim.fob import FobState, press
from rkesim.receiver import (
    ActionKind,
    Door,
    ReceiverPolicy,
    RollbackProfile,
    SequenceMode,
    TimestampCheck,
    new_receiver_state,
    receive,
    register_fob,
)
from rkesim.sim import (
    AttackerDef,
    AttackerPhase,
    FobDef,
    Goal,
    Scenario,
    ScenarioEvent,
    VictimPress,
    evaluate,
    run,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POLICIES = os.path.join(REPO, "policies")
SCENARIOS = os.path.join(REPO, "scenarios")

LOCK = Instruction.LOCK
UNLOCK = Instruction.UNLOCK
DAY_MS = 24 * 3600 * 1000
MASTER = master_from_seed(321)
SERIAL = 7
KEY = derive_key(MASTER, SERIAL)


def _passed(number, label):
    print("ACCEPTANCE %d (%s): PASS" % (number, label))


def _press(at, button=UNLOCK, serial=SERIAL, **kwargs):
    return ScenarioEvent(at, VictimPress(fob_serial=serial, button=button, **kwargs))


def _fob_receiver(policy, counter=0, emit_timestamps=False):
    state = new_receiver_state(policy, MASTER)
    register_fob(state, SERIAL, KEY, counter)
    fob = FobState(
        serial=SERIAL, key=KEY, counter=counter, emit_timestamps=emit_timestamps
    )
    return state, fob


def _captured_run(state, policy, fob, buttons, start_ms=0, spacing_ms=1000):
    captures = []
    now = start_ms
    for button in buttons:
        now += spacing_ms
        fob, frame = press(fob, button, now)
        receive(state, policy, frame, now)
        captures.append(frame)
    return fob, captures, now


def test_criterion_01_variant_matrix(capsys):
    # The four canonical policies classify to exactly the four known
    # variants, with the 5000 ms timeframe recovered from the 1..10 s
    # probe grid, in under ten seconds.
    started = time.monotonic()
    code = main(["matrix", POLICIES, "--json"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)["policies"]
    signatures = {row["name"]: row["signature"] for row in rows}
    assert signatures == {
        "loose2": "RollBack^Loose_⊗(2)",
        "strict2_5s": "RollBack^Strict_5(2)",
        "strict3": "RollBack^Strict_⊗(3)",
        "strict5": "RollBack^Strict_⊗(5)",
    }
    strict2 = next(row for row in rows if row["name"] == "strict2_5s")
    assert strict2["timeframe_ms"] == 5000
    assert not strict2["incomplete"]
    assert elapsed < 10.0, "matrix took %.1fs" % elapsed
    _passed(1, "variant matrix reproduces all four signatures")


def test_criterion_02_five_second_boundary():
    # Exact boundary, no tolerance: 4000 ms gap succeeds, 6000 ms fails.
    policy = ReceiverPolicy(
        rollback=RollbackProfile(2, SequenceMode.STRICT, timeframe_ms=5000)
    )
    state, fob = _fob_receiver(policy)
    fob, captures, now = _captured_run(state, policy, fob, [UNLOCK] * 6)
    state.door = Door.LOCKED

    fast = execute_exploit(
        ExploitSpec(signal_indices=(0, 1), inter_replay_gap_ms=4000),
        captures,
        state.clone(),
        policy,
        now + 60_000,
    )
    slow = execute_exploit(
        ExploitSpec(signal_indices=(0, 1), inter_replay_gap_ms=6000),
        captures,
        state.clone(),
        policy,
        now + 60_000,
    )
    assert fast.success is True
    assert slow.success is False
    assert slow.door_after is Door.LOCKED
    _passed(2, "five-second timeframe boundary is exact")


def _time_agnostic_scenario(signals, sequence):
    policy = ReceiverPolicy(rollback=RollbackProfile(signals, sequence))
    events = [ScenarioEvent(0, AttackerPhase("deploy"))]
    # Recon: the jammed first press forces consecutive retries, so the
    # attacker captures `signals` consecutive unlock codes.
    for i in range(signals):
        events.append(_press(10_000 + i * 4_000))
    recon_end = 10_000 + signals * 4_000

    # At least 50 legitimate presses over the following 100 days.
    at = recon_end
    for i in range(50):
        at = recon_end + (i + 1) * 2 * DAY_MS
        events.append(_press(at, LOCK if i % 2 else UNLOCK))

    exploit_times = []
    exploit_at = at + 100 * DAY_MS
    indices = list(range(signals))
    for round_no in range(4):
        events.append(
            ScenarioEvent(
                exploit_at,
                AttackerPhase("exploit", {"indices": indices, "gap_ms": 1000}),
            )
        )
        exploit_times.append(exploit_at)
        # The victim keeps using the car between exploit rounds; two
        # consecutive presses walk the counter forward through the
        # resync window.
        events.append(_press(exploit_at + 3_600_000, LOCK))
        events.append(_press(exploit_at + 3_601_000, LOCK))
        exploit_at += 2 * 3_600_000 + 7_200_000
    scenario = Scenario(
        name="time_agnostic_%d" % signals,
        seed=17,
        fobs=(FobDef(serial=SERIAL, initial_counter=400),),
        policy=policy,
        attacker=AttackerDef(
            kind="rollback", options={"jam_first": True, "signals_to_capture": signals}
        ),
        events=tuple(events),
    )
    return scenario, exploit_times


def test_criterion_03_time_agnosticism():
    # Every unbounded-timeframe variant: exploit fires 100+ days after
    # recon with 50 intervening presses, then three more times.
    for signals, sequence in (
        (2, SequenceMode.LOOSE),
        (3, SequenceMode.STRICT),
        (5, SequenceMode.STRICT),
    ):
        scenario, exploit_times = _time_agnostic_scenario(signals, sequence)
        trace = run(scenario)
        assert evaluate(trace, Goal.UNLOCK_WITHOUT_AUTHORIZATION)
        resyncs = [
            r
            for r in trace
            if r.kind == "rx"
            and r.get("src") == "attacker"
            and r.get("action") is ActionKind.RESYNCED
            and r.get("btn") is UNLOCK
        ]
        assert len(resyncs) == 4, "policy (%d,%s): %d exploit rounds succeeded" % (
            signals,
            sequence.value,
            len(resyncs),
        )
        gap_days = (exploit_times[0] - 10_000) / DAY_MS
        assert gap_days >= 100
        presses = [r for r in trace if r.kind == "tx" and r.get("src") == "victim"]
        assert len(presses) >= 50 + signals
    _passed(3, "unbounded variants are time-agnostic and repeatable")


def _rolljam_scenario(policy, intervening_press):
    events = [
        ScenarioEvent(0, AttackerPhase("deploy")),
        _press(5_000),
        _press(9_000),
    ]
    if intervening_press:
        events.append(_press(30_000, LOCK))
    events.append(ScenarioEvent(60_000, AttackerPhase("exploit")))
    return Scenario(
        name="rolljam_grid",
        seed=23,
        fobs=(FobDef(serial=SERIAL, initial_counter=50),),
        policy=policy,
        attacker=AttackerDef(kind="rolljam"),
        events=tuple(events),
    )


def _exploit_rx_actions(trace, at):
    return [
        r
        for r in trace
        if r.kind == "rx" and r.get("src") == "attacker" and r.at == at
    ]


def test_criterion_04_rolljam_universality_and_fragility():
    # Every combination of the stated policy knobs, without timestamps:
    # the held code unlocks when replayed before any victim press, and
    # one intervening delivered press invalidates it.
    combos = list(
        itertools.product((8, 16, 32), (True, False), (True, False))
    )
    for single_window, double_on, rollback_on in combos:
        policy = ReceiverPolicy(
            single_window=single_window,
            double_window_limit=(1 << 15) if double_on else single_window + 1,
            rollback=(
                RollbackProfile(2, SequenceMode.LOOSE) if rollback_on else None
            ),
        )
        label = "sw=%d double=%s rollback=%s" % (single_window, double_on, rollback_on)

        fresh = run(_rolljam_scenario(policy, intervening_press=False))
        replays = _exploit_rx_actions(fresh, 60_000)
        assert len(replays) == 1, label
        assert replays[0].get("action") is ActionKind.EXECUTED, label
        assert replays[0].get("btn") is UNLOCK, label

        stale = run(_rolljam_scenario(policy, intervening_press=True))
        replays = _exploit_rx_actions(stale, 60_000)
        assert len(replays) == 1, label
        assert replays[0].get("action") is ActionKind.DISCARDED, label
    _passed(4, "rolljam is universal and fragile across %d policies" % len(combos))


def test_criterion_05_soundness_properties():
    # SAFE-MONOTONE and NO-FORGE over ten thousand randomized sequences
    # each, fully seeded.
    from rkesim.codebook import decode
    from rkesim.receiver import WindowClass, classify_window

    rng = random.Random(0xC0DE)
    policy = ReceiverPolicy()
    for _ in range(10_000):
        start = rng.randrange(COUNTER_MOD)
        state, fob = _fob_receiver(policy, counter=start)
        frames = []
        previous = start
        now = 0
        for _ in range(rng.randrange(2, 9)):
            now += 1000
            if frames and rng.random() < 0.45:
                frame = rng.choice(frames)
            else:
                fob, frame = press(fob, rng.choice((LOCK, UNLOCK)), now)
                frames.append(frame)
            record = state.fobs[SERIAL]
            before = record.counter
            door_before = state.door
            window = classify_window(policy, before, decode(KEY, frame).counter)
            action = receive(state, policy, frame, now)
            moved = (record.counter - previous) % COUNTER_MOD
            assert moved < COUNTER_MOD // 2  # never decreases
            previous = record.counter
            if window is WindowClass.REPLAY:
                # A stale counter is never accepted.
                assert action.kind is ActionKind.DISCARDED
            if action.kind is ActionKind.DISCARDED:
                assert record.counter == before
                assert state.door is door_before

    forge_policy = ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))
    for _ in range(10_000):
        state, _ = _fob_receiver(forge_policy, counter=1234)
        now = 0
        for _ in range(rng.randrange(1, 5)):
            now += 500
            serial = rng.choice((SERIAL, 99))
            frame = Transmission(serial=serial, ciphertext=rng.randbytes(16))
            action = receive(state, forge_policy, frame, now)
            assert action.kind is ActionKind.DISCARDED
            assert state.door is Door.LOCKED
            assert state.fobs[SERIAL].counter == 1234
    _passed(5, "SAFE-MONOTONE and NO-FORGE over 2x10^4 random sequences")


def test_criterion_06_instruction_agnosticism_and_relock():
    # Captured (lock@i, unlock@i+k) unlocks; the captured lock that
    # followed the unlock then relocks through the single window, after
    # the counter resynced to the last replayed value.
    policy = ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))
    state, fob = _fob_receiver(policy, counter=60)
    buttons = [LOCK, UNLOCK, UNLOCK, LOCK, UNLOCK, LOCK, UNLOCK]
    #           61    62      63     64    65      66    67
    fob, captures, now = _captured_run(state, policy, fob, buttons)
    state.door = Door.LOCKED

    at = now + 30 * DAY_MS
    first = receive(state, policy, captures[0], at)        # lock@61
    assert first.kind is ActionKind.DISCARDED
    second = receive(state, policy, captures[4], at + 1000)  # unlock@65
    assert second.kind is ActionKind.RESYNCED
    assert second.instruction is UNLOCK
    assert second.new_counter == 65          # counter of the last replay
    assert state.fobs[SERIAL].counter == 65  # ROLLBACK-RESYNC
    assert state.door is Door.UNLOCKED

    relock = receive(state, policy, captures[5], at + 2000)  # lock@66
    assert relock.kind is ActionKind.EXECUTED  # single window, d == 1
    assert relock.instruction is LOCK
    assert state.door is Door.LOCKED
    assert state.fobs[SERIAL].counter == 66
    _passed(6, "instruction-agnostic unlock and single-window relock")


def test_criterion_07_mitigation_kill_tests():
    # Timestamp freshness (1 s tolerance) defeats rolljam and every
    # rollback exploit; per-instruction counters stop the stale unlock
    # after a lock-only resync.
    tolerance = TimestampCheck(tolerance_ms=1000)

    # RollJam against the timestamp policy.
    scenario = Scenario(
        name="rolljam_ts",
        seed=29,
        fobs=(FobDef(serial=SERIAL, initial_counter=10, emit_timestamps=True),),
        policy=ReceiverPolicy(timestamp_check=tolerance),
        attacker=AttackerDef(kind="rolljam"),
        events=(
            ScenarioEvent(0, AttackerPhase("deploy")),
            _press(5_000),
            _press(9_000),
            ScenarioEvent(120_000, AttackerPhase("exploit")),
        ),
    )
    trace = run(scenario)
    assert not evaluate(trace, Goal.UNLOCK_WITHOUT_AUTHORIZATION)
    attacker_rx = [r for r in trace if r.kind == "rx" and r.get("src") == "attacker"]
    assert attacker_rx, "replays must reach the receiver"
    assert all(r.get("reason") == "stale_timestamp" for r in attacker_rx)

    # Every rollback variant with the same mitigation bolted on.
    for signals, sequence, timeframe in (
        (2, SequenceMode.LOOSE, None),
        (2, SequenceMode.STRICT, 5000),
        (3, SequenceMode.STRICT, None),
        (5, SequenceMode.STRICT, None),
    ):
        policy = ReceiverPolicy(
            rollback=RollbackProfile(signals, sequence, timeframe),
            timestamp_check=tolerance,
        )
        state, fob = _fob_receiver(policy, counter=0, emit_timestamps=True)
        fob, captures, now = _captured_run(state, policy, fob, [UNLOCK] * (signals + 1))
        state.door = Door.LOCKED
        outcome = execute_exploit(
            ExploitSpec(signal_indices=tuple(range(signals)), inter_replay_gap_ms=1000),
            captures,
            state,
            policy,
            now + 60_000,
        )
        assert not outcome.success
        assert outcome.door_after is Door.LOCKED

    # Per-instruction counters: lock-only rollback leaves unlock intact.
    policy = ReceiverPolicy(
        rollback=RollbackProfile(2, SequenceMode.LOOSE),
        per_instruction_counters=True,
    )
    state, fob = _fob_receiver(policy, counter=0)
    fob, captures, now = _captured_run(
        state, policy, fob, [LOCK, LOCK, UNLOCK, LOCK, UNLOCK]
    )
    state.door = Door.LOCKED
    lock_resync = execute_exploit(
        ExploitSpec(signal_indices=(0, 1), inter_replay_gap_ms=1000),
        captures,
        state,
        policy,
        now + 60_000,
    )
    assert not lock_resync.success          # executed a lock, not an unlock
    assert state.door is Door.LOCKED
    stale_unlock = receive(state, policy, captures[2], now + 120_000)
    assert stale_unlock.kind is ActionKind.DISCARDED
    assert state.door is Door.LOCKED
    _passed(7, "timestamp and per-instruction mitigations kill the attacks")


def test_criterion_08_oracle_equivalence():
    # classify and the exhaustive oracle agree across a 12-policy grid
    # on 6-bit counters and 8-press transcripts, within a minute.
    def rb(signals, sequence=SequenceMode.STRICT, timeframe=None):
        return ReceiverPolicy(rollback=RollbackProfile(signals, sequence, timeframe))

    grid = [
        ReceiverPolicy(),
        ReceiverPolicy(single_window=8),
        rb(2, SequenceMode.LOOSE),
        rb(2, SequenceMode.STRICT, 5000),
        rb(3),
        rb(5),
        rb(2, SequenceMode.LOOSE, 3000),
        rb(3, SequenceMode.LOOSE),
        rb(2),
        rb(4),
        rb(2, SequenceMode.STRICT, 8000),
        rb(3, SequenceMode.STRICT, 5000),
    ]
    assert len(grid) == 12
    started = time.monotonic()
    for policy in grid:
        findings = exhaustive_search(policy, counter_bits=6, transcript_len=8)
        induced = signature_from_findings(findings)
        direct = classify(policy)
        assert induced.vulnerable == direct.vulnerable, policy
        assert induced.signals == direct.signals, policy
        assert induced.sequence == direct.sequence, policy
        assert induced.timeframe_ms == direct.timeframe_ms, policy
        assert induced.incomplete == direct.incomplete, policy
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, "oracle equivalence took %.1fs" % elapsed
    _passed(8, "classifier agrees with the exhaustive oracle (%.1fs)" % elapsed)


def test_criterion_09_determinism():
    # Any scenario run twice renders byte-identical traces.
    from rkesim.scenario import load_scenario

    for name in sorted(os.listdir(SCENARIOS)):
        scenario = load_scenario(os.path.join(SCENARIOS, name))
        first = run(scenario).render().encode()
        second = run(scenario).render().encode()
        assert first == second, name
    scenario, _ = _time_agnostic_scenario(3, SequenceMode.STRICT)
    assert run(scenario).render() == run(scenario).render()
    _passed(9, "traces are byte-identical across runs")
