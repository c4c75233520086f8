import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from rkesim import scenario
from rkesim.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(REPO, "scenarios")
POLICIES = os.path.join(REPO, "policies")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_rollback_loose2(capsys, tmp_path):
    trace_path = tmp_path / "out.trace"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        os.path.join(SCENARIOS, "rollback_loose2.scn"),
        "--trace-out",
        str(trace_path),
    )
    assert code == 0
    assert "scenario: rollback_loose2" in out
    assert "UnlockWithoutAuthorization: true" in out
    assert "VictimUnaffected: true" in out
    assert trace_path.exists()
    text = trace_path.read_text()
    assert text.splitlines()[0].startswith("t=0 ev=scenario")


def test_simulate_naive_replay_fails(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", os.path.join(SCENARIOS, "naive_replay.scn")
    )
    assert code == 0  # exit 0 regardless of attack outcome
    assert "UnlockWithoutAuthorization: false" in out


def test_simulate_report_counters_match_trace(capsys, tmp_path):
    trace_path = tmp_path / "rb.trace"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        os.path.join(SCENARIOS, "rollback_loose2.scn"),
        "--trace-out",
        str(trace_path),
    )
    assert code == 0
    lines = trace_path.read_text().splitlines()
    presses = sum(1 for l in lines if " ev=tx " in l and "src=victim" in l)
    replays = sum(1 for l in lines if " ev=tx " in l and "src=attacker" in l)
    captures = sum(1 for l in lines if " ev=tx " in l and "captured=1" in l)
    resyncs = sum(1 for l in lines if " ev=rx " in l and "action=resynced" in l)
    expected = "presses=%d captures=%d replays=%d resyncs=%d" % (
        presses,
        captures,
        replays,
        resyncs,
    )
    assert expected in out


def test_simulate_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("rkesim-scenario v1\n[fob]\nwhat 1\n")
    code, _, err = run_cli(capsys, "simulate", str(bad))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize(
    "receiver_line, message",
    [
        ("rollback 1 strict", "rollback requires at least 2 signals"),
        ("rollback 2 strict 0", "timeframe_ms must be positive when set"),
        ("timestamp_tolerance_ms -5", "timestamp tolerance must be non-negative"),
    ],
    ids=["rollback-one-signal", "rollback-zero-timeframe", "negative-tolerance"],
)
def test_rejected_receiver_value_exit_code(capsys, tmp_path, receiver_line, message):
    scn = tmp_path / "value.scn"
    scn.write_text(
        "rkesim-scenario v1\n[fob]\nserial 7\n[receiver]\n" + receiver_line + "\n"
        "[events]\n1000 press 7 unlock\n"
    )
    code, out, err = run_cli(capsys, "simulate", str(scn))
    assert (code, out) == (2, "")
    assert err == "parse error: line 5, column 1: %s\n" % message
    pol = tmp_path / "value.pol"
    pol.write_text("rkesim-policy v1\n[receiver]\n" + receiver_line + "\n")
    code, out, err = run_cli(capsys, "classify", str(pol))
    assert (code, out) == (2, "")
    assert err == "parse error: line 3, column 1: %s\n" % message


@pytest.mark.parametrize("skew", [-5000, (1 << 48) - 1000])
def test_simulate_fob_clock_out_of_timestamp_range(capsys, tmp_path, skew):
    scn = tmp_path / "skew.scn"
    scn.write_text(
        "rkesim-scenario v1\n"
        "[fob]\nserial 7\ntimestamps on\nclock_skew_ms %d\n"
        "[receiver]\n"
        "[events]\n1000 press 7 unlock\n" % skew
    )
    code, out, err = run_cli(capsys, "simulate", str(scn))
    assert code == 2
    assert out == ""
    assert err == "scenario error: event 0: fob 7 clock %d out of timestamp range\n" % (
        1000 + skew
    )


@pytest.mark.parametrize(
    "fob_lines, problem",
    [
        ("serial -3\n", "fob serial -3 out of range [0, 2^64)"),
        ("serial 18446744073709551616\n", "fob serial 18446744073709551616 out of range [0, 2^64)"),
        ("serial 7\ncounter 70000\n", "fob 7: counter 70000 out of range [0, 2^16)"),
        ("serial 7\nreceiver_counter -1\n", "fob 7: receiver_counter -1 out of range [0, 2^16)"),
        ("serial 7\nkey %s\n" % ("ab" * 65), "fob 7: key of 65 bytes is longer than 64"),
    ],
    ids=["serial-negative", "serial-too-big", "counter", "receiver-counter", "key-65-bytes"],
)
def test_simulate_fob_fields_out_of_range(capsys, tmp_path, fob_lines, problem):
    scn = tmp_path / "fob.scn"
    scn.write_text(
        "rkesim-scenario v1\n"
        "[fob]\n" + fob_lines + "[receiver]\n"
        "[events]\n1000 press 7 unlock\n"
    )
    code, out, err = run_cli(capsys, "simulate", str(scn))
    assert code == 2
    assert out == ""
    assert "scenario error: %s\n" % problem in err


@pytest.mark.parametrize(
    "attacker_event, error",
    [
        (
            "attacker exploit indices=0,9",
            "scenario error: attacker replay of capture 9, but only 5 captured\n",
        ),
        (
            "attacker exploit indices=-1,0",
            "parse error: line 16, column 23: indices must be non-negative\n",
        ),
        (
            "attacker deplyo",
            "parse error: line 16, column 15: attacker phase must be deploy or exploit\n",
        ),
        (
            "attacker exploit indices=0,1 gap_ms=-5000",
            "parse error: line 16, column 35: gap_ms must be non-negative\n",
        ),
        (
            "attacker deploy indices=3 relock",
            "parse error: line 16, column 22: attacker deploy takes no parameters\n",
        ),
    ],
    ids=["missing-capture", "negative-index", "unknown-phase", "negative-gap", "deploy-params"],
)
def test_simulate_bad_attacker_event(capsys, tmp_path, attacker_event, error):
    presses = "".join("%d press 7 unlock\n" % (1000 * i) for i in range(1, 6))
    scn = tmp_path / "attacker.scn"
    scn.write_text(
        "rkesim-scenario v1\n[fob]\nserial 7\n[receiver]\nrollback 2 loose\n"
        "[attacker]\nstrategy rollback\njam_first off\n[events]\n"
        "0 attacker deploy\n" + presses + "9000 " + attacker_event + "\n"
    )
    code, out, err = run_cli(capsys, "simulate", str(scn))
    assert code == 2
    assert out == ""
    assert err == error


@pytest.mark.parametrize(
    "attacker_lines, problems",
    [
        (
            "strategy naive_replay\njam_first off\nsignals_to_capture 9\n",
            [
                "attacker: strategy naive_replay does not take jam_first",
                "attacker: strategy naive_replay does not take signals_to_capture",
                "event 2: strategy naive_replay does not read indices",
                "event 2: strategy naive_replay does not read gap_ms",
                "event 2: strategy naive_replay does not read relock",
            ],
        ),
        (
            "strategy future_code\n",
            [
                "event 2: strategy future_code does not read indices",
                "event 2: strategy future_code does not read relock",
            ],
        ),
        (
            "strategy rollback\nsignals_to_capture 0\n",
            ["attacker: signals_to_capture must be at least 1"],
        ),
    ],
    ids=["naive-replay", "future-code", "rollback-no-signals"],
)
def test_simulate_rejects_options_the_strategy_ignores(capsys, tmp_path, attacker_lines, problems):
    scn = tmp_path / "ignored.scn"
    scn.write_text(
        "rkesim-scenario v1\n[fob]\nserial 7\n[receiver]\n[attacker]\n" + attacker_lines
        + "[events]\n1000 press 7 unlock\n2000 press 7 unlock\n"
        "9000 attacker exploit indices=0 gap_ms=5 relock\n"
    )
    code, out, err = run_cli(capsys, "simulate", str(scn))
    assert code == 2
    assert out == ""
    assert err == "".join("scenario error: %s\n" % problem for problem in problems)


def test_simulate_unknown_strategy_reported_with_other_problems(capsys, tmp_path):
    scn = tmp_path / "bogus.scn"
    scn.write_text(
        "rkesim-scenario v1\n[fob]\nserial 7\n[receiver]\n[attacker]\nstrategy bogus\n"
        "[events]\n-5 press 7 unlock\n"
    )
    code, out, err = run_cli(capsys, "simulate", str(scn))
    assert code == 2
    assert out == ""
    assert err == (
        "scenario error: unknown attacker strategy 'bogus'\n"
        "scenario error: event 0: negative time -5\n"
    )


def test_simulate_missing_file(capsys):
    code, _, err = run_cli(capsys, "simulate", "/nonexistent.scn")
    assert code == 2


@pytest.mark.parametrize("verb, suffix", [("simulate", ".scn"), ("classify", ".pol")])
def test_undecodable_input_is_a_parse_error(capsys, tmp_path, verb, suffix):
    bad = tmp_path / ("latin1" + suffix)
    bad.write_bytes(b"rkesim-policy v1\nname caf\xe9\n")
    code, out, err = run_cli(capsys, verb, str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: line 1, column 1: not UTF-8 text")
    if verb == "classify":
        code, out, _ = run_cli(capsys, "matrix", str(tmp_path), "--json")
        assert code == 1
        [row] = json.loads(out)["policies"]
        assert row["error"].startswith("line 1, column 1: not UTF-8 text")


@pytest.mark.parametrize("verb", ["simulate", "classify"])
def test_directory_input_cannot_be_opened(capsys, tmp_path, verb):
    code, out, err = run_cli(capsys, verb, str(tmp_path))
    assert (code, out, err) == (2, "", "cannot open %s\n" % tmp_path)


@pytest.mark.parametrize("target", ["missing", "file"])
def test_matrix_unlistable_directory_cannot_be_opened(capsys, tmp_path, target):
    paths = {"missing": str(tmp_path / "missing"), "file": os.path.join(POLICIES, "loose2.pol")}
    path = paths[target]
    code, out, err = run_cli(capsys, "matrix", path)
    assert (code, out, err) == (2, "", "cannot open %s\n" % path)


def test_duplicate_key_is_a_parse_error(capsys, tmp_path):
    pol = tmp_path / "twice.pol"
    pol.write_text("rkesim-policy v1\n[receiver]\nrollback 2 loose\nrollback 7 strict\n")
    code, out, err = run_cli(capsys, "classify", str(pol))
    assert (code, out) == (2, "")
    assert err == "parse error: line 4, column 1: duplicate receiver key 'rollback'\n"


def test_unreadable_input_cannot_be_opened(capsys, monkeypatch):
    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(scenario, "open", denied, raising=False)
    path = os.path.join(POLICIES, "loose2.pol")
    code, out, err = run_cli(capsys, "classify", path)
    assert (code, out, err) == (2, "", "cannot open %s\n" % path)


def test_simulate_pretty_output(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", os.path.join(SCENARIOS, "rolljam.scn"), "--pretty"
    )
    assert code == 0
    assert "victim" in out and "attacker" in out


def test_classify_canonical_policies(capsys):
    expectations = {
        "loose2.pol": "loose2: RollBack^Loose_⊗(2)",
        "strict2_5s.pol": "strict2_5s: RollBack^Strict_5(2)",
        "strict3.pol": "strict3: RollBack^Strict_⊗(3)",
        "strict5.pol": "strict5: RollBack^Strict_⊗(5)",
    }
    for filename, expected in expectations.items():
        code, out, _ = run_cli(capsys, "classify", os.path.join(POLICIES, filename))
        assert code == 0
        assert out.strip() == expected


def test_classify_secure_policy(capsys):
    code, out, _ = run_cli(
        capsys, "classify", os.path.join(POLICIES, "extra", "secure.pol")
    )
    assert code == 0
    assert out.strip() == "secure: NOT VULNERABLE"


def test_classify_bad_gaps_usage_error(capsys):
    code, _, err = run_cli(
        capsys,
        "classify",
        os.path.join(POLICIES, "loose2.pol"),
        "--gaps",
        "5000,1000",
    )
    assert code == 2
    assert "usage error" in err


def test_non_integer_gaps_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "classify", os.path.join(POLICIES, "loose2.pol"), "--gaps", "1000,2s"
    )
    assert (code, out) == (2, "")
    assert err == "usage error: --gaps must be comma-separated integers (ms)\n"


def test_repeated_gaps_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "classify", os.path.join(POLICIES, "loose2.pol"), "--gaps", "1000,1000"
    )
    assert (code, out) == (2, "")
    assert err == "usage error: gap probes must not repeat\n"


@pytest.mark.parametrize("verb, target", [("classify", "loose2.pol"), ("matrix", "")])
def test_empty_gaps_usage_error(capsys, verb, target):
    # An empty grid is an error, as in the API, not the default grid.
    code, out, err = run_cli(capsys, verb, os.path.join(POLICIES, target), "--gaps", "")
    assert (code, out) == (2, "")
    assert err == "usage error: --gaps must be comma-separated integers (ms)\n"


@pytest.mark.parametrize(
    "option, value", [("--gaps", "0,1000"), ("--max-signals", "1"), ("--max-signals", "16385")]
)
def test_classify_bad_budget_usage_error(capsys, option, value):
    code, _, err = run_cli(
        capsys, "classify", os.path.join(POLICIES, "loose2.pol"), option, value
    )
    assert code == 2
    assert "usage error" in err


def test_matrix_canonical_table(capsys):
    code, out, _ = run_cli(capsys, "matrix", POLICIES)
    assert code == 0
    for expected in (
        "RollBack^Loose_⊗(2)",
        "RollBack^Strict_5(2)",
        "RollBack^Strict_⊗(3)",
        "RollBack^Strict_⊗(5)",
    ):
        assert expected in out
    assert out.splitlines()[0].split()[:3] == ["name", "policy", "signature"]


def test_matrix_json_stable(capsys):
    code1, out1, _ = run_cli(capsys, "matrix", POLICIES, "--json")
    code2, out2, _ = run_cli(capsys, "matrix", POLICIES, "--json")
    assert code1 == code2 == 0
    assert out1 == out2  # canonical output, byte-identical
    data = json.loads(out1)
    assert [row["name"] for row in data["policies"]] == [
        "loose2",
        "strict2_5s",
        "strict3",
        "strict5",
    ]
    strict2 = data["policies"][1]
    assert strict2["signals"] == 2
    assert strict2["timeframe_ms"] == 5000


def test_matrix_table_marks_an_incomplete_signature(capsys, tmp_path):
    # A 20 s timeframe passes every finite probe gap but not the unbounded
    # one, so the bound lies beyond the grid; the table says so, as classify does.
    path = tmp_path / "far.pol"
    path.write_text("rkesim-policy v1\nname far\n[receiver]\nrollback 2 loose 20000\n")
    marked = "RollBack^Loose_10(2)  (incomplete: bound beyond probe grid)"
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert (code, out) == (0, "far: %s\n" % marked)
    code, out, _ = run_cli(capsys, "matrix", str(tmp_path))
    assert code == 0
    assert out.splitlines()[1].endswith("20000ms  " + marked)
    code, out, _ = run_cli(capsys, "matrix", str(tmp_path), "--json")
    row = json.loads(out)["policies"][0]
    assert (row["signature"], row["incomplete"]) == ("RollBack^Loose_10(2)", True)


def test_matrix_table_lines_end_without_whitespace(capsys, tmp_path):
    # Signatures of three widths, an error row and the header: only the
    # last column differs in width from line to line.
    for name in sorted(os.listdir(POLICIES)):
        if name.endswith(".pol"):
            shutil.copy(os.path.join(POLICIES, name), tmp_path)
    (tmp_path / "far.pol").write_text(
        "rkesim-policy v1\nname far\n[receiver]\nrollback 2 loose 20000\n"
    )
    (tmp_path / "bad.pol").write_text("rkesim-policy v1\n[receiver]\nrollback 2\n")
    code, out, _ = run_cli(capsys, "matrix", str(tmp_path))
    lines = out.splitlines()
    assert code == 1 and len(lines) == 7
    assert [line for line in lines if line != line.rstrip()] == []


def test_matrix_empty_directory(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "matrix", str(tmp_path))
    assert code == 0
    assert out.splitlines()[0].split()[:3] == ["name", "policy", "signature"]
    assert len(out.splitlines()) == 1


def test_matrix_mixed_invalid_files(capsys, tmp_path):
    (tmp_path / "good.pol").write_text(
        "rkesim-policy v1\nname good\n[receiver]\nrollback 2 loose\n"
    )
    (tmp_path / "broken.pol").write_text("not a policy\n")
    code, out, _ = run_cli(capsys, "matrix", str(tmp_path))
    assert code == 1
    assert "RollBack^Loose_⊗(2)" in out
    assert "ERROR" in out


def test_matrix_row_reports_rejected_value_position(capsys, tmp_path):
    (tmp_path / "one.pol").write_text("rkesim-policy v1\n[receiver]\nrollback 1 strict\n")
    code, out, _ = run_cli(capsys, "matrix", str(tmp_path), "--json")
    assert code == 1
    assert json.loads(out)["policies"] == [
        {"name": "one.pol", "error": "line 3, column 1: rollback requires at least 2 signals"}
    ]


def test_trace_dir_environment_variable(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RKESIM_TRACE_DIR", str(tmp_path))
    code, out, _ = run_cli(
        capsys, "simulate", os.path.join(SCENARIOS, "naive_replay.scn")
    )
    assert code == 0
    assert (tmp_path / "naive_replay.trace").exists()


def test_trace_dir_keeps_a_named_trace_inside(capsys, tmp_path, monkeypatch):
    trace_dir = tmp_path / "traces"
    monkeypatch.setenv("RKESIM_TRACE_DIR", str(trace_dir))
    scn = tmp_path / "escape.scn"
    scn.write_text("rkesim-scenario v1\nname ../escaped\n[fob]\nserial 7\n[receiver]\n")
    code, out, err = run_cli(capsys, "simulate", str(scn))
    assert (code, out) == (2, "")
    assert err == "parse error: line 2, column 6: name must not contain / or \\\n"
    assert sorted(os.listdir(tmp_path)) == ["escape.scn"]


@pytest.mark.parametrize("verb, suffix, text", [
    ("simulate", ".scn", "rkesim-scenario v1\nname a\x00b\n[fob]\nserial 7\n[receiver]\n"),
    ("classify", ".pol", "rkesim-policy v1\nname a\x00b\n[receiver]\n"),
], ids=["simulate", "classify"])
def test_unprintable_name_is_a_parse_error(capsys, tmp_path, monkeypatch, verb, suffix, text):
    monkeypatch.setenv("RKESIM_TRACE_DIR", str(tmp_path / "traces"))
    path = tmp_path / ("nul" + suffix)
    path.write_text(text)
    code, out, err = run_cli(capsys, verb, str(path))
    assert (code, out) == (2, "")
    assert err == "parse error: line 2, column 6: name must hold only printable characters\n"
    assert sorted(os.listdir(tmp_path)) == ["nul" + suffix]


def test_empty_stem_takes_the_format_default_name(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RKESIM_TRACE_DIR", str(tmp_path / "traces"))
    (tmp_path / ".scn").write_text("rkesim-scenario v1\n[fob]\nserial 7\n[receiver]\n")
    code, out, _ = run_cli(capsys, "simulate", str(tmp_path / ".scn"))
    assert code == 0
    assert out.startswith("scenario: scenario\n")
    assert os.listdir(tmp_path / "traces") == ["scenario.trace"]
    (tmp_path / ".pol").write_text("rkesim-policy v1\n[receiver]\n")
    assert scenario.load_policy(str(tmp_path / ".pol"))[0] == "policy"


def test_unfit_stem_takes_the_format_default_name(tmp_path):
    # A stem is the default name only when the name key would accept it.
    path = tmp_path / "a\\b.scn"
    path.write_text("rkesim-scenario v1\n[fob]\nserial 7\n[receiver]\n")
    assert scenario.load_scenario(str(path)).name == "scenario"
    path = tmp_path / "fine.name.scn"
    path.write_text("rkesim-scenario v1\n[fob]\nserial 7\n[receiver]\n")
    assert scenario.load_scenario(str(path)).name == "fine.name"


def test_all_shipped_scenarios_run(capsys):
    for name in sorted(os.listdir(SCENARIOS)):
        code, out, _ = run_cli(capsys, "simulate", os.path.join(SCENARIOS, name))
        assert code == 0, name


# Goal verdicts and report counters of every shipped scenario, as printed
# by ``rkesim simulate``: (unlock, victim unaffected, relocked),
# (presses, captures, replays, resyncs).
SHIPPED_REPORTS = {
    "future_code": ((True, True, False), (2, 2, 2, 0)),
    "jam_replay_lock": ((False, True, False), (2, 2, 1, 0)),
    "learn_mode": ((False, False, False), (3, 0, 0, 0)),
    "naive_replay": ((False, True, False), (3, 3, 1, 0)),
    "relock": ((True, True, True), (5, 5, 3, 1)),
    "rollback_loose2": ((True, True, False), (5, 5, 2, 1)),
    "rollback_strict2_timeframe": ((True, True, False), (2, 2, 2, 1)),
    "rolljam": ((True, True, False), (2, 2, 2, 0)),
    "timestamp_mitigation": ((False, True, False), (3, 3, 2, 0)),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_REPORTS))
def test_shipped_scenario_reports(capsys, name):
    goals, counters = SHIPPED_REPORTS[name]
    code, out, _ = run_cli(capsys, "simulate", os.path.join(SCENARIOS, name + ".scn"))
    assert code == 0
    flag = lambda value: "true" if value else "false"
    assert out == (
        "scenario: %s\n"
        "UnlockWithoutAuthorization: %s\n"
        "VictimUnaffected: %s\n"
        "ReLockedAfter: %s\n"
        "presses=%d captures=%d replays=%d resyncs=%d\n"
    ) % ((name,) + tuple(flag(g) for g in goals) + counters)


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", os.path.join(SCENARIOS, "rolljam.scn"), "--pretty"),
        ("matrix", POLICIES, "--json"),
    ],
    ids=["simulate-pretty", "matrix-json"],
)
def test_closed_stdout_pipe_exits_quietly(argv):
    # The read end is closed before the start, as when ``| head -1`` has
    # taken its line and gone: every write to stdout fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "rkesim", *argv], stdout=write_end, stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, b"")


def test_closed_stdout_pipe_points_stdout_at_devnull(monkeypatch, tmp_path):
    # The same exit in-process: the failed flush returns 141, and later
    # writes to stdout's descriptor go to devnull, not to the old target.
    class ClosedPipe(io.StringIO):
        def fileno(self):
            return descriptor

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    target = tmp_path / "stdout"
    descriptor = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["classify", os.path.join(POLICIES, "loose2.pol")]) == 141
        os.write(descriptor, b"after the pipe closed")
    finally:
        os.close(descriptor)
    assert target.read_bytes() == b""


def test_closed_stdout_pipe_closes_its_devnull_descriptor(monkeypatch, tmp_path):
    # The devnull descriptor that stdout is pointed at must not stay open.
    class ClosedPipe(io.StringIO):
        def fileno(self):
            return descriptor

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    opened = []
    real_open = os.open

    def recording_open(path, *args, **kwargs):
        fd = real_open(path, *args, **kwargs)
        if path == os.devnull:
            opened.append(fd)
        return fd

    descriptor = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        monkeypatch.setattr(os, "open", recording_open)
        assert main(["classify", os.path.join(POLICIES, "loose2.pol")]) == 141
        monkeypatch.undo()
        assert len(opened) == 1
        with pytest.raises(OSError):  # EBADF: main closed it after the dup2
            os.fstat(opened[0])
    finally:
        os.close(descriptor)
