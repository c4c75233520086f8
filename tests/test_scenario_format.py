import os

import pytest

from rkesim.receiver import ReaddMode, ReceiverPolicy, SequenceMode
from rkesim.scenario import (
    ParseError,
    load_policy,
    load_scenario,
    loads_policy,
    loads_scenario,
)
from rkesim.sim import AttackerPhase, VictimPress

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCENARIO_TEXT = """\
rkesim-scenario v1
name demo
seed 99

[fob]
serial 7
counter 100
clock_skew_ms 5
timestamps on
learned off
receiver_counter 90

[receiver]
single_window 8
double_window_limit 4096
rollback 3 strict 5000
per_instruction_counters on
timestamp_tolerance_ms 2000
learn_entry auto
learn_exit off
learn_readd ignore

[attacker]
strategy rollback
jam_first off
signals_to_capture 3

[events]
0       attacker deploy
1000    press 7 unlock
2000    press 7 lock out_of_range no_capture
5000    learn_mode
6000    advance
9000    attacker exploit indices=0,1,2 gap_ms=2500 relock
"""


def test_parse_full_scenario():
    scenario = loads_scenario(SCENARIO_TEXT)
    assert scenario.name == "demo"
    assert scenario.seed == 99
    fob = scenario.fobs[0]
    assert fob.serial == 7
    assert fob.initial_counter == 100
    assert fob.clock_skew_ms == 5
    assert fob.emit_timestamps
    assert not fob.learned
    assert fob.receiver_counter == 90
    policy = scenario.policy
    assert policy.single_window == 8
    assert policy.double_window_limit == 4096
    assert policy.rollback.signals_required == 3
    assert policy.rollback.sequence is SequenceMode.STRICT
    assert policy.rollback.timeframe_ms == 5000
    assert policy.per_instruction_counters
    assert policy.timestamp_check.tolerance_ms == 2000
    assert not policy.learn.explicit_entry_required
    assert not policy.learn.exit_after_success
    assert policy.learn.readd_known_fob is ReaddMode.IGNORE
    assert scenario.attacker.kind == "rollback"
    assert not scenario.attacker.options["jam_first"]
    assert scenario.attacker.options["signals_to_capture"] == 3
    assert len(scenario.events) == 6
    press = scenario.events[1].action
    assert isinstance(press, VictimPress) and press.fob_serial == 7
    oor = scenario.events[2].action
    assert oor.out_of_range and not oor.fob_in_attacker_range
    exploit = scenario.events[5].action
    assert isinstance(exploit, AttackerPhase)
    assert exploit.params == {"indices": [0, 1, 2], "gap_ms": 2500, "relock": True}


def test_defaults_are_minimal():
    scenario = loads_scenario(
        "rkesim-scenario v1\n[fob]\nserial 1\n[receiver]\nsingle_window 16\n"
    )
    assert scenario.seed == 0
    assert scenario.policy == ReceiverPolicy()
    assert scenario.attacker is None
    fob = scenario.fobs[0]
    assert fob.initial_counter == 0 and fob.learned and not fob.emit_timestamps


def test_bad_header_rejected():
    with pytest.raises(ParseError) as excinfo:
        loads_scenario("something else\n")
    assert excinfo.value.line == 1


def test_unknown_key_reports_position():
    text = "rkesim-scenario v1\n[fob]\nserial 1\n  bogus 5\n[receiver]\nsingle_window 16\n"
    with pytest.raises(ParseError) as excinfo:
        loads_scenario(text)
    assert excinfo.value.line == 4
    assert excinfo.value.column == 3
    assert "bogus" in excinfo.value.message


def test_bad_integer_reports_position():
    text = "rkesim-scenario v1\nseed ten\n[fob]\nserial 1\n[receiver]\nsingle_window 16\n"
    with pytest.raises(ParseError) as excinfo:
        loads_scenario(text)
    assert excinfo.value.line == 2
    assert excinfo.value.column == 6


def test_event_errors():
    base = "rkesim-scenario v1\n[fob]\nserial 1\n[receiver]\nsingle_window 16\n[events]\n"
    with pytest.raises(ParseError):
        loads_scenario(base + "100 jump\n")
    with pytest.raises(ParseError):
        loads_scenario(base + "100 press 1 sideways\n")
    with pytest.raises(ParseError):
        loads_scenario(base + "x press 1 unlock\n")


@pytest.mark.parametrize(
    "event, column, message",
    [
        ("100 attacker deplyo", 14, "attacker phase must be deploy or exploit"),
        ("100 attacker rollback gap_ms=5", 14, "attacker phase must be deploy or exploit"),
        ("100 attacker exploit indices=-1,0", 22, "indices must be non-negative"),
        ("100 attacker exploit gap_ms=5 indices=0,-2", 31, "indices must be non-negative"),
        ("100 attacker exploit indices=0,1 gap_ms=-5000", 34, "gap_ms must be non-negative"),
        ("100 attacker deploy indices=3 relock", 21, "attacker deploy takes no parameters"),
        ("100 attacker deploy relock", 21, "attacker deploy takes no parameters"),
        ("100 attacker deploy gap_ms=5", 21, "attacker deploy takes no parameters"),
        ("100 learn_mode now please", 16, "learn_mode takes no parameters"),
        ("100 advance 5", 13, "advance takes no parameters"),
    ],
)
def test_attacker_event_errors_report_the_token(event, column, message):
    base = "rkesim-scenario v1\n[fob]\nserial 1\n[receiver]\nsingle_window 16\n[events]\n"
    with pytest.raises(ParseError) as excinfo:
        loads_scenario(base + event + "\n")
    assert (excinfo.value.line, excinfo.value.column) == (7, column)
    assert excinfo.value.message == message


def test_missing_sections():
    with pytest.raises(ParseError):
        loads_scenario("rkesim-scenario v1\n[receiver]\nsingle_window 16\n")
    with pytest.raises(ParseError):
        loads_scenario("rkesim-scenario v1\n[fob]\nserial 1\n")


def test_policy_rejects_scenario_sections():
    with pytest.raises(ParseError):
        loads_policy("rkesim-policy v1\n[fob]\nserial 1\n")


def test_invalid_window_bounds_reported():
    with pytest.raises(ParseError):
        loads_policy("rkesim-policy v1\n[receiver]\nsingle_window 0\n")


def test_comments_and_blank_lines_ignored():
    text = (
        "rkesim-scenario v1\n\n# a comment\nseed 5   # trailing\n"
        "[fob]\nserial 1\n[receiver]\nsingle_window 16\n"
    )
    assert loads_scenario(text).seed == 5


def test_repo_fixture_files_parse():
    for name in os.listdir(os.path.join(REPO, "scenarios")):
        scenario = load_scenario(os.path.join(REPO, "scenarios", name))
        assert scenario.fobs
    for root, _, files in os.walk(os.path.join(REPO, "policies")):
        for name in files:
            policy_name, policy = load_policy(os.path.join(root, name))
            assert policy_name


_FOB = "[fob]\nserial 1\n"
_RX = "[receiver]\nsingle_window 16\n"
_SCN = "rkesim-scenario v1\n"


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        (_SCN + _FOB + "[receiver]\nbogus 5\n", 5, 1, "unknown receiver key 'bogus'"),
        (_SCN + "[fob]\nserial 1\n  bogus 5\n" + _RX, 4, 3, "unknown fob key 'bogus'"),
        (
            _SCN + _FOB + _RX + "[attacker]\nstrategy rollback\nspeed 9\n",
            8, 1, "unknown attacker key 'speed'",
        ),
        (_SCN + "seed 1\ncolour red\n" + _FOB + _RX, 3, 1, "unknown top-level key 'colour'"),
        ("rkesim-policy v1\nseed 1\n[receiver]\n", 2, 1, "unknown top-level key 'seed'"),
        (
            _SCN + _FOB + "[receiver]\nsingle_window 16 32\n",
            5, 18, "unexpected extra value after 'single_window'",
        ),
        (_SCN + "[fob]\nserial 1\ncounter ten\n" + _RX, 4, 9, "expected an integer, got 'ten'"),
        (
            _SCN + "[fob]\nserial 1\ntimestamps maybe\n" + _RX,
            4, 12, "expected on or off, got 'maybe'",
        ),
        (_SCN + "[fob]\nserial 1\nkey 0xzz\n" + _RX, 4, 5, "key must be hex"),
        (
            _SCN + _FOB + "[receiver]\nlearn_entry manual\n",
            5, 13, "learn_entry must be explicit or auto",
        ),
        (
            _SCN + _FOB + "[receiver]\nlearn_readd replace\n",
            5, 13, "learn_readd must be overwrite or ignore",
        ),
        (
            _SCN + _FOB + "[receiver]\nrollback 2 sloppy\n",
            5, 12, "sequence must be strict or loose",
        ),
        (
            _SCN + _FOB + "[receiver]\n  rollback 2\n",
            5, 3, "rollback takes '<signals> strict|loose [<ms>]'",
        ),
        (_SCN + "[fob]\ncounter 5\n" + _RX, 3, 1, "fob section needs a serial"),
        (_SCN + "[fob]\n" + _RX, 1, 1, "fob section needs a serial"),
        (
            _SCN + _FOB + _RX + "[attacker]\njam_first off\n",
            7, 1, "attacker section needs a strategy",
        ),
        (
            _SCN + _FOB + "[receiver]\nlearn_exit off\nsingle_window 40000\n",
            5, 1,
            "window bounds must satisfy 0 < single_window < double_window_limit <= 2^15",
        ),
        (
            _SCN + _FOB + "[receiver]\nbogus 5\nsingle_window\n",
            6, 1, "expected 'key value...'",
        ),
    ],
    ids=[
        "receiver-unknown-key",
        "fob-unknown-key",
        "attacker-unknown-key",
        "top-level-unknown-key",
        "policy-top-level-unknown-key",
        "extra-value",
        "bad-integer",
        "bad-flag",
        "bad-hex",
        "bad-learn-entry",
        "bad-learn-readd",
        "bad-rollback-sequence",
        "rollback-arity",
        "missing-serial",
        "missing-serial-empty-section",
        "missing-strategy",
        "window-bound",
        "line-shape-before-key",
    ],
)
def test_section_errors_report_line_column_message(text, line, column, message):
    loads = loads_policy if text.startswith("rkesim-policy") else loads_scenario
    with pytest.raises(ParseError) as excinfo:
        loads(text)
    assert (excinfo.value.line, excinfo.value.column, excinfo.value.message) == (
        line,
        column,
        message,
    )


@pytest.mark.parametrize(
    "receiver_line, message",
    [
        ("rollback 1 strict", "rollback requires at least 2 signals"),
        ("rollback 2 strict 0", "timeframe_ms must be positive when set"),
        ("timestamp_tolerance_ms -5", "timestamp tolerance must be non-negative"),
    ],
    ids=["rollback-one-signal", "rollback-zero-timeframe", "negative-tolerance"],
)
def test_rejected_values_are_parse_errors_at_the_key(receiver_line, message):
    policy = "rkesim-policy v1\nname p\n[receiver]\n  " + receiver_line + "\n"
    with pytest.raises(ParseError) as excinfo:
        loads_policy(policy)
    assert (excinfo.value.line, excinfo.value.column, excinfo.value.message) == (
        4,
        3,
        message,
    )
    scenario = _SCN + _FOB + "[receiver]\n" + receiver_line + "\n"
    with pytest.raises(ParseError) as excinfo:
        loads_scenario(scenario)
    assert (excinfo.value.line, excinfo.value.column, excinfo.value.message) == (
        5,
        1,
        message,
    )
