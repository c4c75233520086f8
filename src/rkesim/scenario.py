"""Scenario and policy file formats.

Both formats are line oriented and diff friendly.  ``#`` starts a
comment, blank lines are ignored, and the first meaningful line is a
versioned header.  Keys and values are whitespace separated, and a
key appears at most once in its section or at the top level.

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

    [receiver]
    single_window <int>                    # default 16
    double_window_limit <int>              # default 32768
    rollback <n> strict|loose [<ms>]       # default: absent; n >= 2, ms > 0
    per_instruction_counters on|off        # default off
    timestamp_tolerance_ms <int>           # >= 0; default: no timestamp check
    learn_entry explicit|auto              # default explicit
    learn_exit on|off                      # exit after success, default on
    learn_readd overwrite|ignore           # default overwrite

    [attacker]                # optional
    strategy naive_replay|jam_replay_lock|future_code|rolljam|rollback
    jam_first on|off          # rollback only, default on
    signals_to_capture <int>  # rollback only, >= 1, default 2

    [events]
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

from typing import NamedTuple

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
    ScenarioEvent,
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


class _Token(NamedTuple):
    text: str
    line: int
    column: int

    def fail(self, message: str) -> ParseError:
        return ParseError(self.line, self.column, message)

    def as_int(self) -> int:
        try:
            return int(self.text)
        except ValueError:
            raise self.fail("expected an integer, got %r" % self.text)

    def as_flag(self) -> bool:
        if self.text in ("on", "true", "1"):
            return True
        if self.text in ("off", "false", "0"):
            return False
        raise self.fail("expected on or off, got %r" % self.text)


def _tokenize(text: str) -> list[list[_Token]]:
    lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = []
        column = 1
        for piece in body.split():
            column = body.index(piece, column - 1) + 1
            tokens.append(_Token(piece, line_no, column))
            column += len(piece)
        if tokens:
            lines.append(tokens)
    return lines


def _sections(
    text: str, expected_header: str
) -> tuple[list[list[_Token]], list[tuple[_Token, list[list[_Token]]]]]:
    """Split token lines into the preamble and the (header token, block)
    of each section."""
    lines = _tokenize(text)
    if not lines:
        raise ParseError(1, 1, "empty file, expected header %r" % expected_header)
    header = " ".join(token.text for token in lines[0])
    if header != expected_header:
        raise lines[0][0].fail("bad header %r, expected %r" % (header, expected_header))
    preamble, sections = [], []
    current = preamble
    for tokens in lines[1:]:
        first = tokens[0]
        if first.text.startswith("["):
            if not (first.text.endswith("]") and len(tokens) == 1):
                raise first.fail("malformed section header")
            current = []
            sections.append((first, current))
        else:
            current.append(tokens)
    return preamble, sections


def _key_values(block: list[list[_Token]]) -> list[tuple[_Token, list[_Token]]]:
    pairs = []
    for tokens in block:
        if len(tokens) < 2:
            raise tokens[0].fail("expected 'key value...'")
        pairs.append((tokens[0], tokens[1:]))
    return pairs


def _single(values: list[_Token], key: _Token) -> _Token:
    if len(values) != 1:
        raise values[1].fail("unexpected extra value after %r" % key.text)
    return values[0]


def _block_start(block: list[list[_Token]]) -> _Token:
    return block[0][0] if block else _Token("", 1, 1)


# Value readers.  Each takes a key token and its value tokens and returns
# the value of the key's field.


def _int(key: _Token, values: list[_Token]) -> int:
    return _single(values, key).as_int()


def _flag(key: _Token, values: list[_Token]) -> bool:
    return _single(values, key).as_flag()


def _text(key: _Token, values: list[_Token]) -> str:
    return _single(values, key).text


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


def _name(key: _Token, values: list[_Token]) -> str:
    token = _single(values, key)
    problem = _name_problem(token.text)
    if problem is not None:
        raise token.fail(problem)
    return token.text


def _hex(key: _Token, values: list[_Token]) -> bytes:
    token = _single(values, key)
    try:
        return bytes.fromhex(token.text)
    except ValueError:
        raise token.fail("key must be hex")


def _choice(options: dict):
    def read(key: _Token, values: list[_Token]):
        token = _single(values, key)
        if token.text not in options:
            raise token.fail("%s must be %s" % (key.text, " or ".join(options)))
        return options[token.text]

    return read


def _rollback(key: _Token, values: list[_Token]) -> RollbackProfile:
    if len(values) not in (2, 3):
        raise key.fail("rollback takes '<signals> strict|loose [<ms>]'")
    signals = values[0].as_int()
    if values[1].text not in ("strict", "loose"):
        raise values[1].fail("sequence must be strict or loose")
    timeframe = values[2].as_int() if len(values) == 3 else None
    return RollbackProfile(signals, SequenceMode(values[1].text), timeframe)


# Key tables: each accepted key maps to (field name, value reader).
_RECEIVER_KEYS = {
    "single_window": ("single_window", _int),
    "double_window_limit": ("double_window_limit", _int),
    "rollback": ("rollback", _rollback),
    "per_instruction_counters": ("per_instruction_counters", _flag),
    "timestamp_tolerance_ms": ("timestamp_check", lambda k, v: TimestampCheck(_int(k, v))),
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
    "strategy": ("kind", _text),
    "jam_first": ("jam_first", _flag),
    "signals_to_capture": ("signals_to_capture", _int),
}
_POLICY_TOP_KEYS = {"name": ("name", _name)}
_SCENARIO_TOP_KEYS = {**_POLICY_TOP_KEYS, "seed": ("seed", _int)}


def _read_keys(block: list[list[_Token]], table: dict, section: str,
               required: str | None = None) -> dict:
    """Reads a block's ``key value`` lines into ``{field: value}``.

    Only the keys present appear, so a model constructor called with the
    result keeps its own defaults.  A key given twice is an error at its
    second occurrence.  A ``ValueError`` from a value reader
    (the model rejecting the value) is reported at the key.
    """
    fields = {}
    for key, values in _key_values(block):
        entry = table.get(key.text)
        if entry is None:
            raise key.fail("unknown %s key %r" % (section, key.text))
        field, read = entry
        if field in fields:
            raise key.fail("duplicate %s key %r" % (section, key.text))
        try:
            fields[field] = read(key, values)
        except ValueError as exc:
            raise key.fail(str(exc))
    if required is not None and table[required][0] not in fields:
        raise _block_start(block).fail("%s section needs a %s" % (section, required))
    return fields


def parse_policy_section(block: list[list[_Token]]) -> ReceiverPolicy:
    fields = _read_keys(block, _RECEIVER_KEYS, "receiver")
    try:
        return ReceiverPolicy(**fields)
    except ValueError as exc:
        raise _block_start(block).fail(str(exc))


def loads_policy(text: str, default_name: str = "policy") -> tuple[str, ReceiverPolicy]:
    preamble, sections = _sections(text, POLICY_HEADER)
    top = _read_keys(preamble, _POLICY_TOP_KEYS, "top-level")
    receiver_blocks = [blk for tok, blk in sections if tok.text == "[receiver]"]
    for token, _ in sections:
        if token.text != "[receiver]":
            raise token.fail("policy files allow only a [receiver] section")
    if len(receiver_blocks) != 1:
        raise ParseError(1, 1, "policy file needs exactly one [receiver] section")
    return top.get("name", default_name), parse_policy_section(receiver_blocks[0])


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


def _parse_event_line(tokens: list[_Token]) -> ScenarioEvent:
    at = tokens[0].as_int()
    if len(tokens) < 2:
        raise tokens[0].fail("event needs an action verb")
    verb = tokens[1]
    rest = tokens[2:]
    if verb.text == "press":
        if len(rest) < 2:
            raise verb.fail("press takes '<serial> lock|unlock [flags]'")
        serial = rest[0].as_int()
        button = _BUTTONS.get(rest[1].text)
        if button is None:
            raise rest[1].fail("button must be lock or unlock")
        flags = set()
        for flag in rest[2:]:
            if flag.text not in ("out_of_range", "no_capture"):
                raise flag.fail("unknown press flag %r" % flag.text)
            if flag.text in flags:
                raise flag.fail("duplicate press flag %r" % flag.text)
            flags.add(flag.text)
        # Positional: a NamedTuple builds slower from keywords.
        action = VictimPress(serial, button, "out_of_range" in flags, "no_capture" not in flags)
    elif verb.text == "attacker":
        if not rest:
            raise verb.fail("attacker event needs a phase name")
        phase = _PHASES.get(rest[0].text)
        if phase is None:
            raise rest[0].fail("attacker phase must be deploy or exploit")
        if phase is AttackerDeploy and len(rest) > 1:
            raise rest[1].fail("attacker deploy takes no parameters")
        params: dict = {}
        for token in rest[1:]:
            if token.text == "relock":
                name, value = "relock", True
            elif "=" in token.text:
                name, _, text = token.text.partition("=")
                if name == "indices":
                    try:
                        value = [int(x) for x in text.split(",")]
                    except ValueError:
                        raise token.fail("indices must be comma-separated integers")
                    if min(value) < 0:
                        raise token.fail("indices must be non-negative")
                elif name == "gap_ms":
                    try:
                        value = int(text)
                    except ValueError:
                        raise token.fail("gap_ms must be an integer")
                    if value < 0:
                        raise token.fail("gap_ms must be non-negative")
                else:
                    raise token.fail("unknown exploit parameter %r" % name)
            else:
                raise token.fail("unknown attacker argument %r" % token.text)
            if name in params:
                raise token.fail("duplicate exploit parameter %r" % name)
            params[name] = value
        action = AttackerExploit(params) if phase is AttackerExploit else AttackerDeploy()
    elif verb.text in ("learn_mode", "advance"):
        if rest:
            raise rest[0].fail("%s takes no parameters" % verb.text)
        action = LearnModeEntry() if verb.text == "learn_mode" else AdvanceClock()
    else:
        raise verb.fail("unknown event verb %r" % verb.text)
    return ScenarioEvent(at, action)


def loads_scenario(text: str, default_name: str = "scenario") -> Scenario:
    preamble, sections = _sections(text, SCENARIO_HEADER)
    top = _read_keys(preamble, _SCENARIO_TOP_KEYS, "top-level")

    fobs: list[FobDef] = []
    policy = None
    attacker = None
    events: list[ScenarioEvent] = []
    for token, block in sections:
        if token.text == "[fob]":
            fobs.append(FobDef(**_read_keys(block, _FOB_KEYS, "fob", "serial")))
        elif token.text == "[receiver]":
            if policy is not None:
                raise token.fail("duplicate [receiver] section")
            policy = parse_policy_section(block)
        elif token.text == "[attacker]":
            if attacker is not None:
                raise token.fail("duplicate [attacker] section")
            options = _read_keys(block, _ATTACKER_KEYS, "attacker", "strategy")
            attacker = AttackerDef(options.pop("kind"), options)
        elif token.text == "[events]":
            for tokens in block:
                events.append(_parse_event_line(tokens))
        else:
            raise token.fail("unknown section %r" % token.text)
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
