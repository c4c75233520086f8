import gc
import time
from enum import Enum

import pytest

from rkesim.codebook import TIMESTAMP_MOD, Instruction
from rkesim.receiver import ActionKind, Door, ReceiverPolicy, RollbackProfile, SequenceMode
from rkesim.scenario import loads_scenario
from rkesim.sim import (
    AdvanceClock,
    AttackerDef,
    AttackerPhase,
    FobDef,
    Goal,
    LearnModeEntry,
    Scenario,
    ScenarioError,
    ScenarioEvent,
    Trace,
    VictimPress,
    evaluate,
    render_value,
    run,
)

UNLOCK = Instruction.UNLOCK
LOCK = Instruction.LOCK
EXECUTED = ActionKind.EXECUTED

DAY_MS = 24 * 3600 * 1000


def press_event(at, button=UNLOCK, serial=7, **kwargs):
    return ScenarioEvent(at, VictimPress(fob_serial=serial, button=button, **kwargs))


def loose2_policy():
    return ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))


def rollback_scenario(exploit_at=2 * DAY_MS, gap_ms=1000, extra_events=(), name="rb"):
    events = [
        ScenarioEvent(0, AttackerPhase("deploy")),
        press_event(10_000),
        press_event(15_000),
        *extra_events,
        ScenarioEvent(exploit_at, AttackerPhase("exploit", {"gap_ms": gap_ms})),
    ]
    return Scenario(
        name=name,
        seed=1,
        fobs=(FobDef(serial=7, initial_counter=100),),
        policy=loose2_policy(),
        attacker=AttackerDef(
            kind="rollback", options={"jam_first": True, "signals_to_capture": 2}
        ),
        events=tuple(events),
    )


def test_empty_event_list():
    scenario = Scenario(
        name="empty", seed=0, fobs=(FobDef(serial=7),), policy=ReceiverPolicy()
    )
    trace = run(scenario)
    kinds = [record.kind for record in trace]
    assert kinds[0] == "scenario"
    assert "final" in kinds
    assert not any(kind == "tx" for kind in kinds)


def test_determinism_identical_traces():
    scenario = rollback_scenario()
    assert run(scenario).render() == run(scenario).render()


def test_trace_timestamps_monotonic():
    def plain(*events):
        return Scenario(
            name="tail", seed=1, fobs=(FobDef(serial=7),), policy=ReceiverPolicy(),
            events=(press_event(1000), *events),
        )

    scenarios = [
        rollback_scenario(),
        # The last events deliver nothing to the receiver, so its clock
        # stays behind them: the footer must not go back to it.
        plain(ScenarioEvent(2500, AdvanceClock())),
        plain(press_event(3000, out_of_range=True)),
        # Jammed from the start: no frame ever reaches the receiver.
        Scenario(
            name="jammed", seed=1, fobs=(FobDef(serial=7),), policy=loose2_policy(),
            attacker=AttackerDef(kind="rollback", options={"jam_first": True}),
            events=(ScenarioEvent(0, AttackerPhase("deploy")), press_event(1000)),
        ),
    ]
    for scenario in scenarios:
        trace = run(scenario)
        times = [record.at for record in trace]
        assert times == sorted(times), scenario.name
        # The footer is stamped with the time of the last event.
        body = [record for record in trace if record.kind not in ("final_fob", "final")]
        assert trace[-1].kind == "final" and trace[-1].at == body[-1].at, scenario.name


def test_canonical_rollback_scenario_unlocks():
    # Jam-first recon, victim drives for days, two replays roll back.
    victim_days = [
        press_event(1 * DAY_MS + i * 60_000, LOCK if i % 2 else UNLOCK)
        for i in range(20)
    ]
    scenario = rollback_scenario(extra_events=victim_days, exploit_at=40 * DAY_MS)
    trace = run(scenario)
    assert evaluate(trace, Goal.UNLOCK_WITHOUT_AUTHORIZATION)
    assert evaluate(trace, Goal.VICTIM_UNAFFECTED)
    final = [record for record in trace if record.kind == "final"]
    assert final[-1].get("door").value == "unlocked"


def test_rolljam_scenario_goals():
    scenario = Scenario(
        name="rolljam",
        seed=3,
        fobs=(FobDef(serial=7, initial_counter=50),),
        policy=ReceiverPolicy(),
        attacker=AttackerDef(kind="rolljam"),
        events=(
            ScenarioEvent(0, AttackerPhase("deploy")),
            press_event(5_000),
            press_event(9_000),
            ScenarioEvent(60_000, AttackerPhase("exploit")),
        ),
    )
    trace = run(scenario)
    assert evaluate(trace, Goal.UNLOCK_WITHOUT_AUTHORIZATION)
    # The victim's presses were jammed but the door still opened on the
    # second try, so the victim is unaffected.
    assert evaluate(trace, Goal.VICTIM_UNAFFECTED)


def test_rolljam_fragile_after_intervening_press():
    scenario = Scenario(
        name="rolljam_fragile",
        seed=3,
        fobs=(FobDef(serial=7, initial_counter=50),),
        policy=ReceiverPolicy(),
        attacker=AttackerDef(kind="rolljam"),
        events=(
            ScenarioEvent(0, AttackerPhase("deploy")),
            press_event(5_000),
            press_event(9_000),
            press_event(30_000, LOCK),  # delivered press invalidates the held code
            ScenarioEvent(60_000, AttackerPhase("exploit")),
        ),
    )
    trace = run(scenario)
    # The recon-phase replay legitimately opened the door for the victim;
    # fragility shows in the exploit replay being rejected.
    exploit_rx = [
        r
        for r in trace
        if r.kind == "rx" and r.get("src") == "attacker" and r.at == 60_000
    ]
    assert exploit_rx
    assert all(r.get("action").value == "discarded" for r in exploit_rx)
    final = [r for r in trace if r.kind == "final"][-1]
    assert final.get("door").value == "locked"


def test_naive_replay_fails():
    scenario = Scenario(
        name="naive",
        seed=5,
        fobs=(FobDef(serial=7),),
        policy=ReceiverPolicy(),
        attacker=AttackerDef(kind="naive_replay"),
        events=(
            press_event(1000),
            press_event(2000),
            ScenarioEvent(10_000, AttackerPhase("exploit")),
        ),
    )
    trace = run(scenario)
    assert not evaluate(trace, Goal.UNLOCK_WITHOUT_AUTHORIZATION)
    assert evaluate(trace, Goal.VICTIM_UNAFFECTED)


def test_relock_scenario_all_goals():
    buttons = [LOCK, UNLOCK, LOCK, UNLOCK, LOCK]
    presses = [press_event(1000 * (i + 1), b) for i, b in enumerate(buttons)]
    scenario = Scenario(
        name="relock",
        seed=6,
        fobs=(FobDef(serial=7, initial_counter=10),),
        policy=loose2_policy(),
        attacker=AttackerDef(
            kind="rollback", options={"jam_first": False, "signals_to_capture": 2}
        ),
        events=(
            ScenarioEvent(0, AttackerPhase("deploy")),
            *presses,
            ScenarioEvent(
                DAY_MS,
                AttackerPhase(
                    "exploit", {"indices": [0, 1], "gap_ms": 1000, "relock": True}
                ),
            ),
        ),
    )
    trace = run(scenario)
    assert evaluate(trace, Goal.UNLOCK_WITHOUT_AUTHORIZATION)
    assert evaluate(trace, Goal.VICTIM_UNAFFECTED)
    assert evaluate(trace, Goal.RELOCKED_AFTER)


def test_jam_replay_lock_leaves_car_open_then_covers_tracks():
    scenario = Scenario(
        name="jrl",
        seed=21,
        fobs=(FobDef(serial=7, initial_counter=100),),
        policy=ReceiverPolicy(),
        attacker=AttackerDef(kind="jam_replay_lock"),
        events=(
            press_event(1_000, UNLOCK),
            ScenarioEvent(200_000, AttackerPhase("deploy")),
            press_event(201_000, LOCK),  # jammed: the car stays open
            ScenarioEvent(900_000, AttackerPhase("exploit")),
        ),
    )
    trace = run(scenario)
    doors = [(r.at, r.get("state").value) for r in trace if r.kind == "door"]
    # Unlocked by the victim, still unlocked after the jammed lock press,
    # locked again only by the attacker's replay.
    assert doors == [(0, "locked"), (1_000, "unlocked"), (900_000, "locked")]
    replay_rx = [r for r in trace if r.kind == "rx" and r.get("src") == "attacker"]
    assert len(replay_rx) == 1
    assert replay_rx[0].get("action").value == "executed"
    assert replay_rx[0].get("btn").value == "lock"


def test_future_code_exploit():
    # Presses out of the vehicle's range advance the fob and feed the
    # attacker; replaying them lands in the single window.
    scenario = Scenario(
        name="future_code",
        seed=9,
        fobs=(FobDef(serial=7, initial_counter=30),),
        policy=ReceiverPolicy(),
        attacker=AttackerDef(kind="future_code"),
        events=(
            press_event(1000, UNLOCK, out_of_range=True),
            press_event(2000, UNLOCK, out_of_range=True),
            ScenarioEvent(50_000, AttackerPhase("exploit")),
        ),
    )
    trace = run(scenario)
    assert evaluate(trace, Goal.UNLOCK_WITHOUT_AUTHORIZATION)
    final_fob = [r for r in trace if r.kind == "final_fob"][-1]
    assert final_fob.get("ctr") == 32  # out-of-range presses still count


def test_out_of_range_press_not_captured_when_flagged():
    scenario = Scenario(
        name="oor",
        seed=9,
        fobs=(FobDef(serial=7),),
        policy=ReceiverPolicy(),
        attacker=AttackerDef(kind="naive_replay"),
        events=(
            press_event(1000, out_of_range=True, fob_in_attacker_range=False),
        ),
    )
    trace = run(scenario)
    final = [r for r in trace if r.kind == "final"][-1]
    assert final.get("captures") == 0


def test_attacker_replay_while_jamming_is_not_delivered():
    # jam_first turns the jammer on at deploy and off only at the next
    # capture; with no press after deploy, the replays go out jammed.
    trace = run(loads_scenario(
        "rkesim-scenario v1\nseed 4\n[fob]\nserial 7\n[receiver]\nrollback 2 loose\n"
        "[attacker]\nstrategy rollback\njam_first on\n[events]\n"
        "1000 press 7 unlock\n2000 press 7 lock\n3000 attacker deploy\n"
        "4000 attacker exploit indices=0,1\n"
    ))
    replays = [r for r in trace if r.kind == "tx" and r.get("src") == "attacker"]
    assert [r.get("idx") for r in replays] == [0, 1]
    assert all(r.get("jammed") and not r.get("delivered") for r in replays)
    assert all(" jammed=1 delivered=0 " in r.render() for r in replays)
    assert not [r for r in trace if r.kind == "rx" and r.at >= 3000]
    assert not evaluate(trace, Goal.UNLOCK_WITHOUT_AUTHORIZATION)


def test_learn_mode_event_registers_new_fob():
    scenario = Scenario(
        name="learn",
        seed=2,
        fobs=(
            FobDef(serial=7, initial_counter=5),
            FobDef(serial=8, initial_counter=70, learned=False),
        ),
        policy=ReceiverPolicy(),
        events=(
            ScenarioEvent(1000, LearnModeEntry()),
            press_event(2000, LOCK, serial=8),
            press_event(3000, LOCK, serial=8),
            press_event(4000, UNLOCK, serial=8),
        ),
    )
    trace = run(scenario)
    learn = [r for r in trace if r.kind == "rx" and r.get("action").value == "learn_complete"]
    assert len(learn) == 1
    # After learning, the new fob operates normally.
    executed = [r for r in trace if r.kind == "rx" and r.get("action").value == "executed"]
    assert len(executed) == 1
    final = {r.get("serial"): r for r in trace if r.kind == "final_fob"}
    assert final[8].get("stored") == 73  # learned at 72, third press resynced


def test_advance_clock_records_tick():
    scenario = Scenario(
        name="tick",
        seed=0,
        fobs=(FobDef(serial=7),),
        policy=ReceiverPolicy(),
        events=(ScenarioEvent(5000, AdvanceClock()),),
    )
    trace = run(scenario)
    assert any(r.kind == "tick" and r.at == 5000 for r in trace)


def test_validation_unknown_fob():
    scenario = Scenario(
        name="bad",
        seed=0,
        fobs=(FobDef(serial=7),),
        policy=ReceiverPolicy(),
        events=(press_event(0, serial=99),),
    )
    with pytest.raises(ScenarioError) as excinfo:
        run(scenario)
    assert any("unknown fob serial 99" in p for p in excinfo.value.problems)


def test_validation_unsorted_events():
    scenario = Scenario(
        name="bad",
        seed=0,
        fobs=(FobDef(serial=7),),
        policy=ReceiverPolicy(),
        events=(press_event(5000), press_event(1000)),
    )
    with pytest.raises(ScenarioError) as excinfo:
        run(scenario)
    assert any("before previous" in p for p in excinfo.value.problems)


@pytest.mark.parametrize(
    "phase, problem",
    [
        (AttackerPhase("exployt"), "event 0: attacker phase 'exployt' is not deploy or exploit"),
        (AttackerPhase("deploy", {"indices": [0]}), "event 0: attacker deploy takes no parameters"),
        (AttackerPhase("exploit", {"gap_ms": -5000}), "event 0: gap_ms must be non-negative"),
    ],
    ids=["unknown-phase", "deploy-params", "negative-gap"],
)
def test_validation_bad_attacker_phase(phase, problem):
    scenario = Scenario(
        name="bad",
        seed=0,
        fobs=(FobDef(serial=7),),
        policy=ReceiverPolicy(),
        attacker=AttackerDef(kind="rollback"),
        events=(ScenarioEvent(0, phase),),
    )
    with pytest.raises(ScenarioError) as excinfo:
        run(scenario)
    assert excinfo.value.problems == [problem]


def test_validation_phase_without_attacker():
    scenario = Scenario(
        name="bad",
        seed=0,
        fobs=(FobDef(serial=7),),
        policy=ReceiverPolicy(),
        events=(ScenarioEvent(0, AttackerPhase("deploy")),),
    )
    with pytest.raises(ScenarioError):
        run(scenario)


@pytest.mark.parametrize(
    "at, skew, timestamps, clock",
    [
        (1000, -5000, True, -4000),
        (1000, TIMESTAMP_MOD - 1000, True, TIMESTAMP_MOD),
        (1000, -1000, True, None),  # clock 0, the first valid timestamp
        (1000, TIMESTAMP_MOD - 1001, True, None),  # the last valid timestamp
        (1000, -5000, False, None),  # no timestamp is sent
    ],
)
def test_validation_fob_clock_out_of_timestamp_range(at, skew, timestamps, clock):
    scenario = Scenario(
        name="skew",
        seed=0,
        fobs=(FobDef(serial=7, clock_skew_ms=skew, emit_timestamps=timestamps),),
        policy=ReceiverPolicy(),
        events=(press_event(at),),
    )
    if clock is None:
        assert sum(r.kind == "tx" for r in run(scenario)) == 1
        return
    with pytest.raises(ScenarioError) as excinfo:
        run(scenario)
    assert excinfo.value.problems == [
        "event 0: fob 7 clock %d out of timestamp range" % clock
    ]


@pytest.mark.parametrize(
    "fields, problem",
    [
        ({"serial": -3}, "fob serial -3 out of range [0, 2^64)"),
        ({"serial": 1 << 64}, "fob serial %d out of range [0, 2^64)" % (1 << 64)),
        ({"initial_counter": 70000}, "fob 7: counter 70000 out of range [0, 2^16)"),
        ({"initial_counter": -1}, "fob 7: counter -1 out of range [0, 2^16)"),
        ({"receiver_counter": -1}, "fob 7: receiver_counter -1 out of range [0, 2^16)"),
        ({"receiver_counter": 1 << 16}, "fob 7: receiver_counter 65536 out of range [0, 2^16)"),
        ({"key": bytes(65)}, "fob 7: key of 65 bytes is longer than 64"),
        ({"serial": (1 << 64) - 1, "initial_counter": (1 << 16) - 1, "key": bytes(64)}, None),
        ({"receiver_counter": 0}, None),
    ],
    ids=[
        "serial-negative", "serial-too-big", "counter-too-big", "counter-negative",
        "receiver-counter-negative", "receiver-counter-too-big", "key-65-bytes",
        "upper-limits", "receiver-counter-zero",
    ],
)
def test_validation_fob_fields_out_of_range(fields, problem):
    fields = {"serial": 7, **fields}
    scenario = Scenario(
        name="fob",
        seed=0,
        fobs=(FobDef(**fields),),
        policy=ReceiverPolicy(),
        events=(press_event(1000, serial=fields["serial"]),),
    )
    if problem is None:
        assert sum(r.kind == "tx" for r in run(scenario)) == 1
        return
    with pytest.raises(ScenarioError) as excinfo:
        run(scenario)
    assert excinfo.value.problems == [problem]


class _Shade(Enum):
    DARK = 2


@pytest.mark.parametrize(
    "value, text",
    [
        (True, "1"),  # bool before int
        (False, "0"),
        (1, "1"),
        (-12, "-12"),
        (Instruction.UNLOCK, "unlock"),  # str-Enum by value
        (Door.LOCKED, "locked"),
        (ActionKind.RESYNCED, "resynced"),
        (_Shade.DARK, "2"),  # any Enum by value, not by name
        (b"\x00\xab", "00ab"),
        (None, "None"),
        ("victim", "victim"),
    ],
)
def test_render_value_rules(value, text):
    assert render_value(value) == text


@pytest.mark.parametrize(
    "indices, relock, late_press, problem",
    [
        ([0, 9], False, False, "attacker replay of capture 9, but only 2 captured"),
        ([-1, 0], False, False, "attacker replay of capture -1, but only 2 captured"),
        ([0, 1], True, False, "attacker replay of capture 2, but only 2 captured"),
        ([0, 1], True, True, None),
    ],
    ids=["past-the-end", "negative", "relock-target-missing", "relock-target-captured-late"],
)
def test_replay_of_missing_capture_is_scenario_error(indices, relock, late_press, problem):
    # The capture count is checked when a replay fires, so a relock target
    # captured after the exploit was scheduled still counts.
    params = {"indices": indices, "gap_ms": 1000, "relock": relock}
    events = [
        ScenarioEvent(0, AttackerPhase("deploy")),
        press_event(1000),
        press_event(2000),
        ScenarioEvent(3000, AttackerPhase("exploit", params)),
    ]
    if late_press:
        events.append(press_event(4500))
    scenario = Scenario(
        name="missing",
        seed=1,
        fobs=(FobDef(serial=7),),
        policy=loose2_policy(),
        attacker=AttackerDef(kind="rollback", options={"jam_first": False}),
        events=tuple(events),
    )
    if problem is None:
        trace = run(scenario)
        replayed = [r.get("idx") for r in trace if r.kind == "tx" and r.get("src") == "attacker"]
        assert replayed == [0, 1, 2]
        return
    with pytest.raises(ScenarioError) as excinfo:
        run(scenario)
    assert excinfo.value.problems == [problem]


def test_causality_replays_reference_prior_captures():
    trace = run(rollback_scenario())
    seen_frames = set()
    for record in trace:
        if record.kind != "tx":
            continue
        frame = record.get("frame")
        if record.get("src") == "attacker":
            assert frame in seen_frames
        else:
            seen_frames.add(frame)


def add_victim_press(trace, at, serial=7, button=UNLOCK):
    trace.add(
        at,
        "tx",
        src="victim",
        serial=serial,
        btn=button,
        out_of_range=False,
        jammed=False,
        delivered=True,
        captured=False,
    )


def add_rx(trace, at, serial=7, button=UNLOCK, action=EXECUTED):
    trace.add(at, "rx", src="victim", serial=serial, action=action, btn=button)


@pytest.mark.parametrize(
    "steps, unaffected",
    [
        ([("tx", 0, 7, UNLOCK), (EXECUTED, 0, 7, UNLOCK)], True),
        ([("tx", 0, 7, UNLOCK), (ActionKind.RESYNCED, 0, 7, UNLOCK)], True),
        ([("tx", 0, 7, UNLOCK), (ActionKind.DISCARDED, 0, 7, UNLOCK)], False),
        ([("tx", 0, 7, UNLOCK), (EXECUTED, 0, 7, LOCK)], False),
        ([("tx", 0, 7, UNLOCK), (EXECUTED, 1, 7, UNLOCK)], False),
        ([("tx", 0, 7, UNLOCK)], False),
        ([("tx", 0, 7, UNLOCK), (EXECUTED, 0, 8, LOCK), (EXECUTED, 0, 7, UNLOCK)], True),
        # The first later rx of the serial answers every press before it.
        ([("tx", 0, 7, UNLOCK), ("tx", 0, 7, LOCK), (EXECUTED, 0, 7, LOCK)], False),
        ([("tx", 0, 7, LOCK), ("tx", 0, 7, LOCK), (EXECUTED, 0, 7, LOCK)], True),
    ],
)
def test_victim_unaffected_rule(steps, unaffected):
    trace = Trace()
    for kind, at, serial, button in steps:
        if kind == "tx":
            add_victim_press(trace, at, serial, button)
        else:
            add_rx(trace, at, serial, button, kind)
    assert evaluate(trace, Goal.VICTIM_UNAFFECTED) is unaffected


def test_evaluate_rejects_unknown_goal():
    with pytest.raises(ValueError):
        evaluate(Trace(), "VictimUnaffected")


def doubling_ratio(measure, size, rounds):
    """Best time of ``measure(2 * size)`` over best of ``measure(size)``.

    The two sizes alternate inside one best-of loop, so host-speed
    drift during the test slows both alike.  Each sample starts from a
    full collection and runs with the collector off: otherwise a
    collection, pending from earlier tests or triggered by the sample's
    own allocations, lands in the larger, more allocating sample only.
    """
    best = {size: float("inf"), 2 * size: float("inf")}
    for _ in range(rounds):
        for n in best:
            gc.collect()
            gc.disable()
            try:
                best[n] = min(best[n], measure(n))
            finally:
                gc.enable()
    return best[2 * size] / best[size]


def test_victim_evaluation_grows_linearly():
    traces = {}
    for pairs in (10_000, 20_000):
        traces[pairs] = trace = Trace()
        for i in range(pairs):
            add_victim_press(trace, i * 1000)
            add_rx(trace, i * 1000)

    def measure(pairs):
        start = time.perf_counter()
        assert evaluate(traces[pairs], Goal.VICTIM_UNAFFECTED)
        return time.perf_counter() - start

    # A ratio, not an absolute bound: doubling the trace must not
    # (nearly) quadruple the cost, whatever the host speed.
    assert doubling_ratio(measure, 10_000, rounds=15) < 3


def press_script(presses):
    lines = [
        "rkesim-scenario v1",
        "seed 3",
        "[fob]",
        "serial 7",
        "[receiver]",
        "rollback 2 loose",
        "[attacker]",
        "strategy rollback",
        "jam_first off",
        "[events]",
        "0 attacker deploy",
    ]
    for i in range(1, presses + 1):
        lines.append("%d press 7 %s" % (i * 10_000, ("lock", "unlock")[i % 2]))
    lines.append("%d attacker exploit indices=0,1" % ((presses + 1) * 10_000 + DAY_MS))
    return "\n".join(lines) + "\n"


def test_simulate_path_grows_linearly():
    scripts = {presses: press_script(presses) for presses in (2000, 4000)}

    def measure(presses):
        start = time.perf_counter()
        trace = run(loads_scenario(scripts[presses]))
        trace.render()
        elapsed = time.perf_counter() - start
        assert sum(r.kind == "tx" for r in trace) == presses + 2
        return elapsed

    # Parse, engine run and render together; doubling the script must
    # not (nearly) quadruple the cost, whatever the host speed.
    assert doubling_ratio(measure, 2000, rounds=7) < 3
