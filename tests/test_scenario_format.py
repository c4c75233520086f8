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
from rkesim.sim import AttackerExploit, VictimPress

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
    assert not policy.explicit_entry_required
    assert not policy.exit_after_success
    assert policy.readd_known_fob is ReaddMode.IGNORE
    assert scenario.attacker.kind == "rollback"
    assert not scenario.attacker.options["jam_first"]
    assert scenario.attacker.options["signals_to_capture"] == 3
    assert len(scenario.events) == 6
    press = scenario.events[1][1]
    assert isinstance(press, VictimPress) and press.fob_serial == 7
    oor = scenario.events[2][1]
    assert oor.out_of_range and not oor.fob_in_attacker_range
    exploit = scenario.events[5][1]
    assert isinstance(exploit, AttackerExploit)
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
        ("100 attacker exploit relock=1", 22, "relock takes no value"),
        ("100 attacker exploit gap_ms", 22, "gap_ms needs '=<value>'"),
        ("100 attacker exploit indices=0 indices", 32, "indices needs '=<value>'"),
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
        # A scenario's name is the stem of its trace file, so a separator
        # in it would write the trace outside the trace directory.
        (_SCN + "name ../escaped\n" + _FOB + _RX, 2, 6, "name must not contain / or \\"),
        (_SCN + "name /abs/escaped\n" + _FOB + _RX, 2, 6, "name must not contain / or \\"),
        ("rkesim-policy v1\nname  a\\b\n[receiver]\n", 2, 7, "name must not contain / or \\"),
        # It is also an open() argument and a report line: a NUL or a
        # control character has no place in either.
        (_SCN + "name a\x00b\n" + _FOB + _RX, 2, 6, "name must hold only printable characters"),
        ("rkesim-policy v1\nname a\x1b[2Jb\n[receiver]\n", 2, 6,
         "name must hold only printable characters"),
        ("rkesim-policy v1\nname \x7f\n[receiver]\n", 2, 6,
         "name must hold only printable characters"),
        # A column counts characters: a tab is one, and a word is found
        # after the one before it, not at an earlier copy of itself.
        (_SCN + "seed\t\tten\n" + _FOB + _RX, 2, 7, "expected an integer, got 'ten'"),
        (_SCN + _FOB + "[receiver]\nsingle_window 16 16\n", 5, 18,
         "unexpected extra value after 'single_window'"),
        (_SCN + "seed ten#5\n" + _FOB + _RX, 2, 6, "expected an integer, got 'ten'"),
        ((_SCN + _FOB + "[receiver]\nbogus 5\n").replace("\n", "\r\n"), 5, 1,
         "unknown receiver key 'bogus'"),
        ((_SCN + _FOB + "[receiver]\nbogus 5\n").replace("\n", "\r"), 5, 1,
         "unknown receiver key 'bogus'"),
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
        "scenario-name-dotdot",
        "scenario-name-absolute",
        "policy-name-backslash",
        "scenario-name-nul",
        "policy-name-escape",
        "policy-name-delete",
        "tab-separated",
        "word-repeated-on-its-line",
        "comment-glued-to-value",
        "crlf-line-breaks",
        "cr-line-breaks",
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


_EVENTS = _SCN + _FOB + _RX + "[events]\n"


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("# only a comment\n", 1, 1, "empty file, expected header 'rkesim-scenario v1'"),
        (_SCN + "[fob\nserial 1\n" + _RX, 2, 1, "malformed section header"),
        (_SCN + _FOB + "[receiver] now\n", 4, 1, "malformed section header"),
        ("rkesim-policy v1\nname p\n", 1, 1, "policy file needs exactly one [receiver] section"),
        (
            "rkesim-policy v1\n[receiver]\n[receiver]\nsingle_window 8\n",
            3, 1, "duplicate [receiver] section",
        ),
        (_SCN + _FOB + _RX + _RX, 6, 1, "duplicate [receiver] section"),
        (
            _SCN + _FOB + _RX + "[attacker]\nstrategy rollback\n[attacker]\nstrategy rolljam\n",
            8, 1, "duplicate [attacker] section",
        ),
        (_SCN + _FOB + _RX + "[victim]\n", 6, 1, "unknown section '[victim]'"),
        (_EVENTS + "100\n", 7, 1, "event needs an action verb"),
        (_EVENTS + "100 press 1\n", 7, 5, "press takes '<serial> lock|unlock [flags]'"),
        (_EVENTS + "100 press 1 unlock loud\n", 7, 20, "unknown press flag 'loud'"),
        (_EVENTS + "100 attacker\n", 7, 5, "attacker event needs a phase name"),
        (
            _EVENTS + "100 attacker exploit indices=0,x\n",
            7, 22, "indices must be comma-separated integers",
        ),
        (_EVENTS + "100 attacker exploit gap_ms=1s\n", 7, 22, "gap_ms must be an integer"),
        (_EVENTS + "100 attacker exploit speed=3\n", 7, 22, "unknown exploit parameter 'speed'"),
        (_EVENTS + "100 attacker exploit now\n", 7, 22, "unknown attacker argument 'now'"),
        (_EVENTS + "100 press 1 lock lock\n", 7, 18, "unknown press flag 'lock'"),
        (_EVENTS + "100 press 1 lock\n[events]\n50 press 1 unlock\n", 8, 1,
         "duplicate [events] section"),
        # Several errors: the first offending line is reported.
        (
            _SCN + "[fob]\nserial 7\ncounter x\n[receiver]\n[events]\n100 press 7 lokc\n[bad\n",
            4, 9, "expected an integer, got 'x'",
        ),
        (
            _SCN + "[fob]\nserial 7\n[receiver]\n[events]\n100 press 7 lokc\n[bad\n",
            6, 13, "button must be lock or unlock",
        ),
        (
            "rkesim-policy v1\n[receiver]\nbogus 5\n[fob]\n",
            3, 1, "unknown receiver key 'bogus'",
        ),
    ],
    ids=[
        "empty-file",
        "unclosed-section-header",
        "section-header-with-value",
        "policy-without-receiver",
        "policy-with-two-receivers",
        "duplicate-receiver-section",
        "duplicate-attacker-section",
        "unknown-section",
        "event-without-verb",
        "press-arity",
        "unknown-press-flag",
        "attacker-without-phase",
        "non-integer-indices",
        "non-integer-gap",
        "unknown-exploit-parameter",
        "unknown-attacker-argument",
        "press-flag-repeats-button",
        "duplicate-events-section",
        "first-error-in-a-key-section",
        "first-error-in-events",
        "policy-first-error-before-unknown-section",
    ],
)
def test_file_structure_errors_report_line_column_message(text, line, column, message):
    test_section_errors_report_line_column_message(text, line, column, message)


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


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        (
            "rkesim-policy v1\nname a\n  name b\n[receiver]\nsingle_window 16\n",
            3, 3, "duplicate top-level key 'name'",
        ),
        (
            _SCN + "seed 1\nseed 2\n" + _FOB + _RX,
            3, 1, "duplicate top-level key 'seed'",
        ),
        (
            "rkesim-policy v1\n[receiver]\nrollback 2 loose\nrollback 7 strict\n",
            4, 1, "duplicate receiver key 'rollback'",
        ),
        (
            _SCN + "[fob]\nserial 1\ncounter 5\n  counter 6\n" + _RX,
            5, 3, "duplicate fob key 'counter'",
        ),
        (
            _SCN + _FOB + _RX + "[attacker]\nstrategy rollback\nstrategy naive_replay\n",
            8, 1, "duplicate attacker key 'strategy'",
        ),
        (
            _EVENTS + "100 attacker exploit indices=0,1 gap_ms=1000 gap_ms=999999\n",
            7, 46, "duplicate exploit parameter 'gap_ms'",
        ),
        (
            _EVENTS + "100 attacker exploit indices=0 relock indices=1\n",
            7, 39, "duplicate exploit parameter 'indices'",
        ),
        (
            _EVENTS + "100 attacker exploit relock relock\n",
            7, 29, "duplicate exploit parameter 'relock'",
        ),
        (
            _EVENTS + "100 press 1 unlock out_of_range out_of_range\n",
            7, 33, "duplicate press flag 'out_of_range'",
        ),
        (
            _EVENTS + "100 press 1 lock no_capture out_of_range no_capture\n",
            7, 42, "duplicate press flag 'no_capture'",
        ),
    ],
    ids=[
        "policy-top-level", "scenario-top-level", "receiver", "fob", "attacker",
        "exploit-gap-ms", "exploit-indices", "exploit-relock", "press-out-of-range",
        "press-no-capture",
    ],
)
def test_duplicate_key_reports_the_second_occurrence(text, line, column, message):
    loads = loads_policy if text.startswith("rkesim-policy") else loads_scenario
    with pytest.raises(ParseError) as excinfo:
        loads(text)
    assert (excinfo.value.line, excinfo.value.column, excinfo.value.message) == (
        line,
        column,
        message,
    )


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        # A form feed is whitespace inside the line, not a line break.
        ("rkesim-policy v1\nname a\x0cb\n[receiver]\n", 2, 8,
         "unexpected extra value after 'name'"),
        # So is a NEL: the lines after it keep their numbers.
        (_SCN + "name demo\x85\nseed x\n" + _FOB + _RX, 3, 6, "expected an integer, got 'x'"),
    ],
    ids=["form-feed", "next-line"],
)
def test_only_universal_newlines_end_a_line(tmp_path, text, line, column, message):
    policy = text.startswith("rkesim-policy")
    path = tmp_path / ("input.pol" if policy else "input.scn")
    path.write_text(text, encoding="utf-8")
    for parse, source in (
        (loads_policy if policy else loads_scenario, text),
        (load_policy if policy else load_scenario, path),
    ):
        with pytest.raises(ParseError) as excinfo:
            parse(source)
        assert (excinfo.value.line, excinfo.value.column, excinfo.value.message) == (
            line,
            column,
            message,
        )
