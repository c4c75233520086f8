"""Scenario and policy file formats.

Both formats are line oriented and diff friendly.  Only ``\\n``,
``\\r\\n`` and ``\\r`` end a line; other Unicode line breaks are
whitespace.  ``#`` starts a comment, blank lines are ignored, and the
first meaningful line is a versioned header.  Keys and values are
whitespace separated, and a key appears at most once in its section or
at the top level.  A ``ParseError`` names the first offending line and
word in file order, but a key line without a value comes first in its
section, and a missing key is reported at its section's first line.

Scenario file grammar (header ``rkesim-scenario v1``)::

    name <ident>              # optional, defaults to the file stem if that is a
                              # valid name, else "scenario"; printable, no / or \\
    seed <int>

    [fob]                     # one section per fob
    serial <int>              # 0 .. 2^64-1
    counter <int>             # initial fob counter 0 .. 2^16-1, default 0
    key <hex>                 # at most 64 bytes; default: derived from the seed
    clock_skew_ms <int>       # default 0
    timestamps on|off         # embed timestamps, default off
    learned on|off            # receiver knows this fob, default on
    receiver_counter <int>    # stored counter 0 .. 2^16-1, default same as counter

    [receiver]                             # exactly one
    single_window <int>                    # default 16
    double_window_limit <int>              # default 32768
    rollback <n> strict|loose [<ms>]       # default: absent; n >= 2, ms > 0
    per_instruction_counters on|off        # default off
    timestamp_tolerance_ms <int>           # >= 0; default: no timestamp check
    learn_entry explicit|auto              # default explicit
    learn_exit on|off                      # exit after success, default on
    learn_readd overwrite|ignore           # default overwrite

    [attacker]                # optional, at most one
    strategy naive_replay|jam_replay_lock|future_code|rolljam|rollback
    jam_first on|off          # rollback only, default on
    signals_to_capture <int>  # rollback only, >= 1, default 2

    [events]                  # at most one; each line is parsed as it is read
    <at_ms> press <serial> lock|unlock [out_of_range] [no_capture]
                              # each flag and exploit parameter at most once
    <at_ms> attacker deploy   # the phase is deploy or exploit, nothing else
    <at_ms> attacker exploit [indices=<i,j,...>] [gap_ms=<int>] [relock]
                              # indices: capture numbers, each >= 0
                              # gap_ms: >= 0; parameters follow only exploit
                              # rollback reads all three, future_code only
                              # gap_ms, the other strategies none
    <at_ms> learn_mode        # learn_mode and advance take no parameters
    <at_ms> advance

An ``[attacker]`` key or exploit parameter that the chosen strategy
does not read, or a value it rejects, is a scenario error when the
scenario is run.

Policy files (header ``rkesim-policy v1``) hold ``name`` plus a single
``[receiver]`` section with the same keys.
"""

from __future__ import annotations

import io

from .codebook import Instruction
from .receiver import ReaddMode, ReceiverPolicy, RollbackProfile, SequenceMode, TimestampCheck
from .sim import (
    AdvanceClock,
    AttackerDef,
    AttackerDeploy,
    AttackerExploit,
    FobDef,
    LearnModeEntry,
    Scenario,
    VictimPress,
)

SCENARIO_HEADER = "rkesim-scenario v1"
POLICY_HEADER = "rkesim-policy v1"
_BUTTONS = {button.value: button for button in Instruction}
_PHASES = {phase.name: phase for phase in (AttackerDeploy, AttackerExploit)}


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column
        self.message = message


# A line is ``(number, body, words)``: its 1-based number, its text before
# any ``#``, and the words of that text as plain strings.  Errors name a
# line and the index of a word in it; the word's column is found only then.


def _lines(text: str):
    """Yields each line of ``text`` that holds a word."""
    for number, raw in enumerate(io.StringIO(text, newline=None), start=1):
        body = raw.split("#", 1)[0]
        words = body.split()
        if words:
            yield number, body, words


def _fail(line: tuple, index: int, message: str) -> ParseError:
    """The error at word ``index`` of ``line``."""
    number, body, words = line
    column = 1
    for word in words[: index + 1]:
        start = body.index(word, column - 1) + 1
        column = start + len(word)
    return ParseError(number, start, message)


def _at_start(block: list, message: str) -> ParseError:
    """The error at a block's first word, or at line 1 for an empty block."""
    return _fail(block[0], 0, message) if block else ParseError(1, 1, message)


def _until_header(lines, take):
    """Passes lines to ``take`` up to the next section header; returns it or None."""
    for line in lines:
        if line[2][0].startswith("["):
            return line
        take(line)
    return None


def _section(line: tuple) -> str:
    words = line[2]
    if not (words[0].endswith("]") and len(words) == 1):
        raise _fail(line, 0, "malformed section header")
    return words[0]


def _preamble(text: str, expected_header: str, top_keys: dict):
    """Checks the header; returns the lines left, the top-level fields and the next header."""
    lines = _lines(text)
    first = next(lines, None)
    if first is None:
        raise ParseError(1, 1, "empty file, expected header %r" % expected_header)
    header = " ".join(first[2])
    if header != expected_header:
        raise _fail(first, 0, "bad header %r, expected %r" % (header, expected_header))
    preamble: list = []
    section = _until_header(lines, preamble.append)
    return lines, _read_keys(preamble, top_keys, "top-level"), section


def _integer(line: tuple, index: int) -> int:
    word = line[2][index]
    try:
        return int(word)
    except ValueError:
        raise _fail(line, index, "expected an integer, got %r" % word)


def _single(line: tuple) -> str:
    words = line[2]
    if len(words) != 2:
        raise _fail(line, 2, "unexpected extra value after %r" % words[0])
    return words[1]


# Value readers.  Each takes a ``key value...`` line and returns the value
# of the key's field.


def _int(line: tuple) -> int:
    _single(line)
    return _integer(line, 1)


def _flag(line: tuple) -> bool:
    word = _single(line)
    if word in ("on", "true", "1"):
        return True
    if word in ("off", "false", "0"):
        return False
    raise _fail(line, 1, "expected on or off, got %r" % word)


def _name_problem(text: str) -> str | None:
    """Why ``text`` cannot be a name, or None.  The name is a trace file's
    stem and a line of the run report, so it must be non-empty, must not
    name a directory, and must hold no NUL or other unprintable character."""
    if not text:
        return "name must not be empty"
    if "/" in text or "\\" in text:
        return "name must not contain / or \\"
    if not text.isprintable():
        return "name must hold only printable characters"
    return None


def _name(line: tuple) -> str:
    word = _single(line)
    problem = _name_problem(word)
    if problem is not None:
        raise _fail(line, 1, problem)
    return word


def _hex(line: tuple) -> bytes:
    try:
        return bytes.fromhex(_single(line))
    except ValueError:
        raise _fail(line, 1, "key must be hex")


def _choice(options: dict):
    def read(line: tuple):
        word = _single(line)
        if word not in options:
            raise _fail(line, 1, "%s must be %s" % (line[2][0], " or ".join(options)))
        return options[word]

    return read


def _rollback(line: tuple) -> RollbackProfile:
    words = line[2]
    if len(words) not in (3, 4):
        raise _fail(line, 0, "rollback takes '<signals> strict|loose [<ms>]'")
    signals = _integer(line, 1)
    if words[2] not in ("strict", "loose"):
        raise _fail(line, 2, "sequence must be strict or loose")
    timeframe = _integer(line, 3) if len(words) == 4 else None
    return RollbackProfile(signals, SequenceMode(words[2]), timeframe)


# Key tables: each accepted key maps to (field name, value reader).
_RECEIVER_KEYS = {
    "single_window": ("single_window", _int),
    "double_window_limit": ("double_window_limit", _int),
    "rollback": ("rollback", _rollback),
    "per_instruction_counters": ("per_instruction_counters", _flag),
    "timestamp_tolerance_ms": ("timestamp_check", lambda line: TimestampCheck(_int(line))),
    "learn_entry": ("explicit_entry_required", _choice({"explicit": True, "auto": False})),
    "learn_exit": ("exit_after_success", _flag),
    # Option order is message order: "overwrite or ignore", not enum order.
    "learn_readd": ("readd_known_fob", _choice({"overwrite": ReaddMode.OVERWRITE,
                                                 "ignore": ReaddMode.IGNORE})),
}
_FOB_KEYS = {
    "serial": ("serial", _int),
    "counter": ("initial_counter", _int),
    "key": ("key", _hex),
    "clock_skew_ms": ("clock_skew_ms", _int),
    "timestamps": ("emit_timestamps", _flag),
    "learned": ("learned", _flag),
    "receiver_counter": ("receiver_counter", _int),
}
_ATTACKER_KEYS = {
    "strategy": ("kind", _single),
    "jam_first": ("jam_first", _flag),
    "signals_to_capture": ("signals_to_capture", _int),
}
_POLICY_TOP_KEYS = {"name": ("name", _name)}
_SCENARIO_TOP_KEYS = {**_POLICY_TOP_KEYS, "seed": ("seed", _int)}


def _read_keys(block: list, table: dict, section: str, required: str | None = None) -> dict:
    """Reads a block's ``key value`` lines into ``{field: value}``.

    Only the keys present appear, so a model constructor called with the
    result keeps its own defaults.  A line without a value is reported
    first, a key given twice at its second occurrence, and a
    ``ValueError`` from a value reader (the model rejecting it) at the key.
    """
    for line in block:
        if len(line[2]) < 2:
            raise _fail(line, 0, "expected 'key value...'")
    fields = {}
    for line in block:
        words = line[2]
        entry = table.get(words[0])
        if entry is None:
            raise _fail(line, 0, "unknown %s key %r" % (section, words[0]))
        field, read = entry
        if field in fields:
            raise _fail(line, 0, "duplicate %s key %r" % (section, words[0]))
        try:
            fields[field] = read(line)
        except ValueError as exc:
            raise _fail(line, 0, str(exc))
    if required is not None and table[required][0] not in fields:
        raise _at_start(block, "%s section needs a %s" % (section, required))
    return fields


def parse_policy_section(block: list) -> ReceiverPolicy:
    fields = _read_keys(block, _RECEIVER_KEYS, "receiver")
    try:
        return ReceiverPolicy(**fields)
    except ValueError as exc:
        raise _at_start(block, str(exc))


def loads_policy(text: str, default_name: str = "policy") -> tuple[str, ReceiverPolicy]:
    lines, top, header = _preamble(text, POLICY_HEADER, _POLICY_TOP_KEYS)
    policy = None
    while header is not None:
        if _section(header) != "[receiver]":
            raise _fail(header, 0, "policy files allow only a [receiver] section")
        if policy is not None:
            raise _fail(header, 0, "duplicate [receiver] section")
        block: list = []
        header = _until_header(lines, block.append)
        policy = parse_policy_section(block)
    if policy is None:
        raise ParseError(1, 1, "policy file needs exactly one [receiver] section")
    return top.get("name", default_name), policy


def _read_text(path) -> tuple[str, dict]:
    """The file's text and, as ``{"default_name": stem}``, its stem when
    that is a valid name; otherwise the format's own default applies."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(1, 1, "not UTF-8 text: %s" % exc.reason) from None
    stem = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return text, {} if _name_problem(stem) else {"default_name": stem}


def load_policy(path) -> tuple[str, ReceiverPolicy]:
    text, default = _read_text(path)
    return loads_policy(text, **default)


def _event(line: tuple, presses: dict) -> tuple[int, object]:
    words = line[2]
    at = _integer(line, 0)
    if len(words) < 2:
        raise _fail(line, 0, "event needs an action verb")
    verb = words[1]
    if verb == "press":
        # Equal presses share one VictimPress: a long script repeats a few,
        # and every copy would stay alive for the whole run.
        key = tuple(words[2:])
        action = presses.get(key)
        if action is None:
            if len(words) < 4:
                raise _fail(line, 1, "press takes '<serial> lock|unlock [flags]'")
            serial = _integer(line, 2)
            button = _BUTTONS.get(words[3])
            if button is None:
                raise _fail(line, 3, "button must be lock or unlock")
            flags = words[4:]
            for index, flag in enumerate(flags, 4):
                if flag not in ("out_of_range", "no_capture"):
                    raise _fail(line, index, "unknown press flag %r" % flag)
                if flag in words[4:index]:
                    raise _fail(line, index, "duplicate press flag %r" % flag)
            # Positional: a NamedTuple builds slower from keywords.
            action = presses[key] = VictimPress(
                serial, button, "out_of_range" in flags, "no_capture" not in flags)
    elif verb == "attacker":
        if len(words) < 3:
            raise _fail(line, 1, "attacker event needs a phase name")
        phase = _PHASES.get(words[2])
        if phase is None:
            raise _fail(line, 2, "attacker phase must be deploy or exploit")
        if phase is AttackerDeploy and len(words) > 3:
            raise _fail(line, 3, "attacker deploy takes no parameters")
        params: dict = {}
        for index in range(3, len(words)):
            name, equals, text = words[index].partition("=")
            if name == "relock" and not equals:
                value = True
            elif name == "indices" and equals:
                try:
                    value = [int(x) for x in text.split(",")]
                except ValueError:
                    raise _fail(line, index, "indices must be comma-separated integers")
                if min(value) < 0:
                    raise _fail(line, index, "indices must be non-negative")
            elif name == "gap_ms" and equals:
                try:
                    value = int(text)
                except ValueError:
                    raise _fail(line, index, "gap_ms must be an integer")
                if value < 0:
                    raise _fail(line, index, "gap_ms must be non-negative")
            elif name in ("relock", "indices", "gap_ms"):
                form = "takes no value" if equals else "needs '=<value>'"
                raise _fail(line, index, "%s %s" % (name, form))
            else:
                kind = "exploit parameter" if equals else "attacker argument"
                raise _fail(line, index, "unknown %s %r" % (kind, name))
            if name in params:
                raise _fail(line, index, "duplicate exploit parameter %r" % name)
            params[name] = value
        action = AttackerExploit(params) if phase is AttackerExploit else AttackerDeploy()
    elif verb in ("learn_mode", "advance"):
        if len(words) > 2:
            raise _fail(line, 2, "%s takes no parameters" % verb)
        action = LearnModeEntry() if verb == "learn_mode" else AdvanceClock()
    else:
        raise _fail(line, 1, "unknown event verb %r" % verb)
    return at, action


def loads_scenario(text: str, default_name: str = "scenario") -> Scenario:
    lines, top, header = _preamble(text, SCENARIO_HEADER, _SCENARIO_TOP_KEYS)
    fobs: list[FobDef] = []
    policy = None
    attacker = None
    events: list[tuple[int, object]] = []
    presses: dict = {}
    seen = set()
    while header is not None:
        section = _section(header)
        if section not in ("[fob]", "[receiver]", "[attacker]", "[events]"):
            raise _fail(header, 0, "unknown section %r" % section)
        if section in seen:
            raise _fail(header, 0, "duplicate %s section" % section)
        if section != "[fob]":
            seen.add(section)
        if section == "[events]":
            # Each event line is parsed as it is read; no block is kept.
            header = _until_header(lines, lambda line: events.append(_event(line, presses)))
            continue
        block: list = []
        header = _until_header(lines, block.append)
        if section == "[fob]":
            fobs.append(FobDef(**_read_keys(block, _FOB_KEYS, "fob", "serial")))
        elif section == "[receiver]":
            policy = parse_policy_section(block)
        else:
            options = _read_keys(block, _ATTACKER_KEYS, "attacker", "strategy")
            attacker = AttackerDef(options.pop("kind"), options)
    if policy is None:
        raise ParseError(1, 1, "scenario needs a [receiver] section")
    if not fobs:
        raise ParseError(1, 1, "scenario needs at least one [fob] section")
    return Scenario(
        name=top.get("name", default_name),
        seed=top.get("seed", 0),
        fobs=tuple(fobs),
        policy=policy,
        attacker=attacker,
        events=tuple(events),
    )


def load_scenario(path) -> Scenario:
    text, default = _read_text(path)
    return loads_scenario(text, **default)
