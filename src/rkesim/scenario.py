"""Scenario and policy file formats.

Both formats are line oriented and diff friendly.  ``#`` starts a
comment, blank lines are ignored, and the first meaningful line is a
versioned header.  Keys and values are whitespace separated.

Scenario file grammar (header ``rkesim-scenario v1``)::

    name <ident>              # optional, defaults to the file stem
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
    signals_to_capture <int>  # rollback only, default 2

    [events]
    <at_ms> press <serial> lock|unlock [out_of_range] [no_capture]
    <at_ms> attacker deploy   # the phase is deploy or exploit, nothing else
    <at_ms> attacker exploit [indices=<i,j,...>] [gap_ms=<int>] [relock]
                              # indices: capture numbers, each >= 0
                              # gap_ms: >= 0; parameters follow only exploit
                              # rollback reads all three, future_code only
                              # gap_ms, the other strategies none
    <at_ms> learn_mode        # learn_mode and advance take no parameters
    <at_ms> advance

An ``[attacker]`` key or exploit parameter that the chosen strategy
does not read is a scenario error when the scenario is run.

Policy files (header ``rkesim-policy v1``) hold ``name`` plus a single
``[receiver]`` section with the same keys.
"""

from __future__ import annotations

from typing import NamedTuple

from .attacks import DEPLOY, EXPLOIT
from .codebook import Instruction
from .receiver import (
    LearnBehavior,
    ReaddMode,
    ReceiverPolicy,
    RollbackProfile,
    SequenceMode,
    TimestampCheck,
)
from .sim import (
    AdvanceClock,
    AttackerDef,
    AttackerPhase,
    FobDef,
    LearnModeEntry,
    Scenario,
    ScenarioEvent,
    VictimPress,
)

SCENARIO_HEADER = "rkesim-scenario v1"
POLICY_HEADER = "rkesim-policy v1"
_BUTTONS = {button.value: button for button in Instruction}


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


class _SectionReader:
    """Splits token lines into (header tokens, list of section blocks)."""

    def __init__(self, text: str, expected_header: str):
        lines = _tokenize(text)
        if not lines:
            raise ParseError(1, 1, "empty file, expected header %r" % expected_header)
        header = " ".join(token.text for token in lines[0])
        if header != expected_header:
            raise lines[0][0].fail(
                "bad header %r, expected %r" % (header, expected_header)
            )
        self.preamble: list[list[_Token]] = []
        self.sections: list[tuple[_Token, list[list[_Token]]]] = []
        current: list[list[_Token]] | None = None
        for tokens in lines[1:]:
            first = tokens[0]
            if first.text.startswith("["):
                if not (first.text.endswith("]") and len(tokens) == 1):
                    raise first.fail("malformed section header")
                current = []
                self.sections.append((first, current))
            elif current is None:
                self.preamble.append(tokens)
            else:
                current.append(tokens)


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
_LEARN_KEYS = {
    "learn_entry": ("explicit_entry_required", _choice({"explicit": True, "auto": False})),
    "learn_exit": ("exit_after_success", _flag),
    # Option order is message order: "overwrite or ignore", not enum order.
    "learn_readd": ("readd_known_fob", _choice({"overwrite": ReaddMode.OVERWRITE,
                                                 "ignore": ReaddMode.IGNORE})),
}
_RECEIVER_KEYS = {
    "single_window": ("single_window", _int),
    "double_window_limit": ("double_window_limit", _int),
    "rollback": ("rollback", _rollback),
    "per_instruction_counters": ("per_instruction_counters", _flag),
    "timestamp_tolerance_ms": ("timestamp_check", lambda k, v: TimestampCheck(_int(k, v))),
    **_LEARN_KEYS,
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
_POLICY_TOP_KEYS = {"name": ("name", _text)}
_SCENARIO_TOP_KEYS = {**_POLICY_TOP_KEYS, "seed": ("seed", _int)}


def _read_keys(block: list[list[_Token]], table: dict, section: str,
               required: str | None = None) -> dict:
    """Reads a block's ``key value`` lines into ``{field: value}``.

    Only the keys present appear, so a model constructor called with the
    result keeps its own defaults.  A ``ValueError`` from a value reader
    (the model rejecting the value) is reported at the key.
    """
    fields = {}
    for key, values in _key_values(block):
        entry = table.get(key.text)
        if entry is None:
            raise key.fail("unknown %s key %r" % (section, key.text))
        field, read = entry
        try:
            fields[field] = read(key, values)
        except ValueError as exc:
            raise key.fail(str(exc))
    if required is not None and table[required][0] not in fields:
        raise _block_start(block).fail("%s section needs a %s" % (section, required))
    return fields


def parse_policy_section(block: list[list[_Token]]) -> ReceiverPolicy:
    fields = _read_keys(block, _RECEIVER_KEYS, "receiver")
    learn = {name: fields.pop(name) for name, _ in _LEARN_KEYS.values() if name in fields}
    try:
        return ReceiverPolicy(learn=LearnBehavior(**learn), **fields)
    except ValueError as exc:
        raise _block_start(block).fail(str(exc))


def loads_policy(text: str, default_name: str = "policy") -> tuple[str, ReceiverPolicy]:
    reader = _SectionReader(text, POLICY_HEADER)
    top = _read_keys(reader.preamble, _POLICY_TOP_KEYS, "top-level")
    receiver_blocks = [blk for tok, blk in reader.sections if tok.text == "[receiver]"]
    for token, _ in reader.sections:
        if token.text != "[receiver]":
            raise token.fail("policy files allow only a [receiver] section")
    if len(receiver_blocks) != 1:
        raise ParseError(1, 1, "policy file needs exactly one [receiver] section")
    return top.get("name", default_name), parse_policy_section(receiver_blocks[0])


def load_policy(path) -> tuple[str, ReceiverPolicy]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stem = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return loads_policy(text, default_name=stem)


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
        out_of_range = False
        in_attacker_range = True
        for flag in rest[2:]:
            if flag.text == "out_of_range":
                out_of_range = True
            elif flag.text == "no_capture":
                in_attacker_range = False
            else:
                raise flag.fail("unknown press flag %r" % flag.text)
        action = VictimPress(
            fob_serial=serial,
            button=button,
            out_of_range=out_of_range,
            fob_in_attacker_range=in_attacker_range,
        )
    elif verb.text == "attacker":
        if not rest:
            raise verb.fail("attacker event needs a phase name")
        if rest[0].text not in (DEPLOY, EXPLOIT):
            raise rest[0].fail("attacker phase must be deploy or exploit")
        if rest[0].text == DEPLOY and len(rest) > 1:
            raise rest[1].fail("attacker deploy takes no parameters")
        params: dict = {}
        for token in rest[1:]:
            if token.text == "relock":
                params["relock"] = True
            elif "=" in token.text:
                name, _, value = token.text.partition("=")
                if name == "indices":
                    try:
                        indices = [int(x) for x in value.split(",")]
                    except ValueError:
                        raise token.fail("indices must be comma-separated integers")
                    if min(indices) < 0:
                        raise token.fail("indices must be non-negative")
                    params["indices"] = indices
                elif name == "gap_ms":
                    try:
                        params["gap_ms"] = int(value)
                    except ValueError:
                        raise token.fail("gap_ms must be an integer")
                    if params["gap_ms"] < 0:
                        raise token.fail("gap_ms must be non-negative")
                else:
                    raise token.fail("unknown exploit parameter %r" % name)
            else:
                raise token.fail("unknown attacker argument %r" % token.text)
        action = AttackerPhase(name=rest[0].text, params=params)
    elif verb.text in ("learn_mode", "advance"):
        if rest:
            raise rest[0].fail("%s takes no parameters" % verb.text)
        action = LearnModeEntry() if verb.text == "learn_mode" else AdvanceClock()
    else:
        raise verb.fail("unknown event verb %r" % verb.text)
    return ScenarioEvent(at=at, action=action)


def loads_scenario(text: str, default_name: str = "scenario") -> Scenario:
    reader = _SectionReader(text, SCENARIO_HEADER)
    top = _read_keys(reader.preamble, _SCENARIO_TOP_KEYS, "top-level")

    fobs: list[FobDef] = []
    policy = None
    attacker = None
    events: list[ScenarioEvent] = []
    for token, block in reader.sections:
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
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stem = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return loads_scenario(text, default_name=stem)
