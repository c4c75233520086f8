import dataclasses
import gc
import os
import time
from enum import Enum

import pytest

from rkesim.codebook import (
    TIMESTAMP_MOD,
    Instruction,
    Transmission,
    derive_key,
    master_from_seed,
)
from rkesim.receiver import (
    ActionKind,
    Door,
    FobRecord,
    ReceiverPolicy,
    RollbackProfile,
    SequenceMode,
    enter_learn_mode,
    new_receiver_state,
    receive,
)
from rkesim.fob import FobState, press
from rkesim.scenario import load_scenario, loads_scenario
from rkesim.sim import (
    AdvanceClock,
    AttackerDef,
    AttackerDeploy,
    AttackerExploit,
    Engine,
    FobDef,
    Goal,
    LearnModeEntry,
    Scenario,
    ScenarioError,
    Trace,
    TraceRecord,
    VictimPress,
    evaluate,
    render_value,
    run,
    summarize,
    validate_scenario,
)

UNLOCK = Instruction.UNLOCK
LOCK = Instruction.LOCK
EXECUTED = ActionKind.EXECUTED

DAY_MS = 24 * 3600 * 1000


def render_record(record):
    """The reference trace line of one record: ``t=<at>``, ``ev=<kind>``
    and each field as ``key=value``, joined by single spaces."""
    texts = [key + "=" + render_value(value) for key, value in record.fields.items()]
    return " ".join(["t=%d" % record.at, "ev=%s" % record.kind, *texts])


def press_event(at, button=UNLOCK, serial=7, **kwargs):
    return at, VictimPress(fob_serial=serial, button=button, **kwargs)


def loose2_policy():
    return ReceiverPolicy(rollback=RollbackProfile(2, SequenceMode.LOOSE))


def rollback_scenario(exploit_at=2 * DAY_MS, gap_ms=1000, extra_events=(), name="rb"):
    events = [
        (0, AttackerDeploy()),
        press_event(10_000),
        press_event(15_000),
        *extra_events,
        (exploit_at, AttackerExploit({"gap_ms": gap_ms})),
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
        plain((2500, AdvanceClock())),
        plain(press_event(3000, out_of_range=True)),
        # Jammed from the start: no frame ever reaches the receiver.
        Scenario(
            name="jammed", seed=1, fobs=(FobDef(serial=7),), policy=loose2_policy(),
            attacker=AttackerDef(kind="rollback", options={"jam_first": True}),
            events=((0, AttackerDeploy()), press_event(1000)),
        ),
    ]
    for scenario in scenarios:
        trace = run(scenario)
        times = [record.at for record in trace]
        assert times == sorted(times), scenario.name
        # The footer is stamped with the time of the last event.
        body = [record for record in trace if record.kind not in ("final_fob", "final")]
        assert trace[-1].kind == "final" and trace[-1].at == body[-1].at, scenario.name


@pytest.mark.parametrize("gap_ms", [0, 1000], ids=["same-time-as-exploit", "later-replay"])
def test_scripted_press_goes_before_a_replay_due_at_its_time(gap_ms):
    # The exploit at 2 days schedules replays of captures 0 and 1, gap_ms
    # apart; the victim presses at the second one's due time.
    exploit_at = 2 * DAY_MS
    tie = exploit_at + gap_ms
    scenario = rollback_scenario(exploit_at=exploit_at, gap_ms=gap_ms)
    trace = run(dataclasses.replace(scenario, events=scenario.events + (press_event(tie),)))
    sent = [(r.get("src"), r.get("idx")) for r in trace if r.kind == "tx" and r.at == tie]
    replays = [("attacker", 0), ("attacker", 1)] if gap_ms == 0 else [("attacker", 1)]
    assert sent == [("victim", None)] + replays


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
            (0, AttackerDeploy()),
            press_event(5_000),
            press_event(9_000),
            (60_000, AttackerExploit()),
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
            (0, AttackerDeploy()),
            press_event(5_000),
            press_event(9_000),
            press_event(30_000, LOCK),  # delivered press invalidates the held code
            (60_000, AttackerExploit()),
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
            (10_000, AttackerExploit()),
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
            (0, AttackerDeploy()),
            *presses,
            (
                DAY_MS,
                AttackerExploit({"indices": [0, 1], "gap_ms": 1000, "relock": True}),
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
            (200_000, AttackerDeploy()),
            press_event(201_000, LOCK),  # jammed: the car stays open
            (900_000, AttackerExploit()),
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
            (50_000, AttackerExploit()),
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
    assert all(" jammed=1 delivered=0 " in render_record(r) for r in replays)
    assert not [r for r in trace if r.kind == "rx" and r.at >= 3000]
    assert not evaluate(trace, Goal.UNLOCK_WITHOUT_AUTHORIZATION)


def test_final_fob_gives_each_button_counter_under_per_instruction_counters():
    # Under per-instruction counters the shared ``stored`` never moves; each
    # button's own counter is what its next frame is checked against.
    scenario = loads_scenario(
        "rkesim-scenario v1\n[fob]\nserial 7\n[receiver]\nper_instruction_counters on\n"
        "[events]\n1000 press 7 unlock\n2000 press 7 unlock\n3000 press 7 lock\n"
    )
    engine = Engine(scenario)
    assert render_record(engine.run()[-2]) == (
        "t=3000 ev=final_fob serial=7 ctr=3 stored=0 stored_lock=3 stored_unlock=2"
    )
    for button, stored in ((LOCK, 3), (UNLOCK, 2)):
        for counter, kind in ((stored, ActionKind.DISCARDED), (stored + 1, EXECUTED)):
            _, frame = press(engine.fobs[7]._replace(counter=counter - 1), button, 4000)
            action = receive(engine.receiver.clone(), scenario.policy, frame, 4000)
            assert action.kind is kind, (button, counter)


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
            (1000, LearnModeEntry()),
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
        events=((5000, AdvanceClock()),),
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
        (AttackerExploit({"gap_ms": -5000}), "event 0: gap_ms must be non-negative"),
    ],
    ids=["negative-gap"],
)
def test_validation_bad_attacker_phase(phase, problem):
    scenario = Scenario(
        name="bad",
        seed=0,
        fobs=(FobDef(serial=7),),
        policy=ReceiverPolicy(),
        attacker=AttackerDef(kind="rollback"),
        events=((0, phase),),
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
        events=((0, AttackerDeploy()),),
    )
    with pytest.raises(ScenarioError):
        run(scenario)


def test_validation_rejects_an_unsupported_action_before_the_run():
    # validate_scenario owns the event vocabulary: an action the engine
    # cannot dispatch is reported with the other problems, and no Engine
    # is built, so no record is written.
    scenario = Scenario(
        name="bad",
        seed=0,
        fobs=(FobDef(serial=7),),
        policy=ReceiverPolicy(),
        events=((0, object()), press_event(1000, serial=99)),
    )
    with pytest.raises(ScenarioError) as excinfo:
        validate_scenario(scenario)
    first, second = excinfo.value.problems
    assert first.startswith("event 0: unsupported action <object object at ")
    assert second == "event 1: unknown fob serial 99"
    with pytest.raises(ScenarioError):
        Engine(scenario)


def test_validation_duplicate_fob_serial():
    scenario = Scenario(
        name="bad",
        seed=0,
        fobs=(FobDef(serial=7), FobDef(serial=7, initial_counter=5)),
        policy=ReceiverPolicy(),
    )
    with pytest.raises(ScenarioError) as excinfo:
        run(scenario)
    assert excinfo.value.problems == ["duplicate fob serial 7"]


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
        # An empty key would be taken as no key and replaced by the derived one.
        ({"key": b""}, "fob 7: key is empty"),
        ({"serial": (1 << 64) - 1, "initial_counter": (1 << 16) - 1, "key": bytes(64)}, None),
        ({"key": bytes(1)}, None),
        ({"receiver_counter": 0}, None),
    ],
    ids=[
        "serial-negative", "serial-too-big", "counter-too-big", "counter-negative",
        "receiver-counter-negative", "receiver-counter-too-big", "key-65-bytes",
        "key-empty", "upper-limits", "key-1-byte", "receiver-counter-zero",
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


SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


def _hand_built_trace():
    # One field of every value type ``render_value`` handles, None included.
    trace = Trace()
    trace.add(0, "tick")
    trace.add(5, "mixed", on=True, off=False, btn=UNLOCK, shade=_Shade.DARK, frame=b"\x00\xab",
              ctr=-12, src="victim", stored=None)
    trace.append(TraceRecord(7, "rx", {"action": ActionKind.RESYNCED, "door": Door.LOCKED}))
    return trace


@pytest.mark.parametrize("name", ["hand-built"] + sorted(os.listdir(SCENARIOS)))
def test_trace_render_is_the_record_lines(name):
    # Trace.render() writes each record's reference line, ended by a newline.
    if name == "hand-built":
        trace = _hand_built_trace()
    else:
        trace = run(load_scenario(os.path.join(SCENARIOS, name)))
    assert trace.render() == "".join(render_record(record) + "\n" for record in trace)


def _answers_from_a_rebuilt_receiver(scenario, trace):
    """Re-derive the receiver side of ``trace``: a receiver rebuilt from
    the scenario hears every delivered ``tx`` frame at its time and every
    ``learn_mode`` entry.  Returns the door, rx and final_fob records its
    answers imply, and its resync count."""
    master = master_from_seed(scenario.seed)
    receiver = new_receiver_state(scenario.policy, master)
    for fob_def in scenario.fobs:
        if fob_def.learned:
            key = derive_key(master, fob_def.serial) if fob_def.key is None else fob_def.key
            stored = (fob_def.initial_counter if fob_def.receiver_counter is None
                      else fob_def.receiver_counter)
            receiver.fobs[fob_def.serial] = FobRecord(key, stored)
    records, resyncs = [(0, "door", {"state": receiver.door})], 0
    for at, kind, fields in trace:
        if kind == "learn_mode":
            enter_learn_mode(receiver)
            assert fields == {"state": receiver.learn_phase}
        elif kind == "tx" and fields["delivered"]:
            door = receiver.door
            frame = Transmission(fields["serial"], fields["frame"])
            action = receive(receiver, scenario.policy, frame, at)
            rx = {"src": fields["src"], "serial": fields["serial"], "action": action.kind,
                  "btn": action.instruction, "reason": action.reason,
                  "ctr": action.new_counter, "door": receiver.door}
            records.append((at, "rx", {k: v for k, v in rx.items() if v is not None}))
            if receiver.door is not door:
                records.append((at, "door", {"state": receiver.door}))
            resyncs += action.kind is ActionKind.RESYNCED
    for fob_def in scenario.fobs:
        record = receiver.fobs.get(fob_def.serial)
        records.append(("final_fob", fob_def.serial, -1 if record is None else record.counter))
    records.append(("final", receiver.door))
    return records, resyncs


@pytest.mark.parametrize("name", sorted(os.listdir(SCENARIOS)))
def test_engine_trace_matches_a_receiver_rebuilt_from_the_scenario(name):
    # The engine checks its own trace: every rx and door record, every
    # final_fob's stored counter and the final door follow from feeding
    # the traced frames to a receiver built from the scenario alone, and
    # summarize counts what the tx and rx records say.
    scenario = load_scenario(os.path.join(SCENARIOS, name))
    trace = run(scenario)
    expected, resyncs = _answers_from_a_rebuilt_receiver(scenario, trace)
    traced = []
    for at, kind, fields in trace:
        if kind in ("rx", "door"):
            traced.append((at, kind, fields))
        elif kind == "final_fob":
            traced.append(("final_fob", fields["serial"], fields["stored"]))
        elif kind == "final":
            traced.append(("final", fields["door"]))
    assert traced == expected
    tx = [fields for _, kind, fields in trace if kind == "tx"]
    summary = summarize(trace)
    assert (summary.presses, summary.captures, summary.replays, summary.resyncs) == (
        sum(f["src"] == "victim" for f in tx), sum(f["captured"] for f in tx),
        sum(f["src"] == "attacker" for f in tx), resyncs)


@pytest.mark.parametrize(
    "value, same, other",
    [
        (FobState(3, b"k", 5), FobState(serial=3, key=b"k", counter=5, clock_skew_ms=0,
                                        emit_timestamps=False), FobState(3, b"k", 6)),
        (VictimPress(7, UNLOCK), VictimPress(fob_serial=7, button=UNLOCK, out_of_range=False,
                                             fob_in_attacker_range=True), VictimPress(7, LOCK)),
        ((0, AdvanceClock()), (0, AdvanceClock()), (1, AdvanceClock())),
    ],
    ids=["FobState", "VictimPress", "ScenarioEvent"],
)
def test_per_press_values_are_frozen_and_compare_by_value(value, same, other):
    assert value == same and hash(value) == hash(same)
    assert value != other
    assert len({value, same, other}) == 2
    first_field = getattr(value, "_fields", ("at",))[0]  # an event is a plain pair
    for name in (first_field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    assert value == same


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
        (0, AttackerDeploy()),
        press_event(1000),
        press_event(2000),
        (3000, AttackerExploit(params)),
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
