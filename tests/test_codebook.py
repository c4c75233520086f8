import dataclasses
import glob
import inspect
import os
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from rkesim import codebook, fob
from rkesim.codebook import (
    BLOCK_BYTES,
    COUNTER_MOD,
    TIMESTAMP_MOD,
    Instruction,
    Payload,
    Transmission,
    decode,
    derive_key,
    discrimination_for,
    encode,
    master_from_seed,
    timestamp_tag,
)
from rkesim.fob import FobState, press
from rkesim.scenario import load_scenario
from rkesim.sim import run

MASTER = master_from_seed(12345)
KEY = derive_key(MASTER, 7)
OTHER_KEY = derive_key(MASTER, 8)


def make_payload(counter=5, button=Instruction.UNLOCK, serial=7, key=KEY, timestamp=None):
    signature = None
    if timestamp is not None:
        signature = timestamp_tag(key, serial, timestamp)
    return Payload(
        counter=counter,
        button=button,
        discrimination=discrimination_for(key, serial),
        timestamp=timestamp,
        signature=signature,
    )


def test_encode_is_deterministic():
    p = make_payload()
    assert encode(KEY, 7, p).ciphertext == encode(KEY, 7, p).ciphertext


def test_encode_injective_over_counter():
    a = encode(KEY, 7, make_payload(counter=5))
    b = encode(KEY, 7, make_payload(counter=6))
    assert a.ciphertext != b.ciphertext


def test_encode_injective_over_button():
    a = encode(KEY, 7, make_payload(button=Instruction.UNLOCK))
    b = encode(KEY, 7, make_payload(button=Instruction.LOCK))
    assert a.ciphertext != b.ciphertext


def test_round_trip_random_payloads():
    # Independent round-trip oracle: decode must invert encode exactly.
    rng = random.Random(2024)
    for _ in range(1000):
        counter = rng.randrange(1 << 16)
        button = rng.choice(list(Instruction))
        timestamp = rng.randrange(1 << 40) if rng.random() < 0.5 else None
        payload = make_payload(counter=counter, button=button, timestamp=timestamp)
        assert decode(KEY, encode(KEY, 7, payload)) == payload


def test_wrong_key_rejected():
    frame = encode(KEY, 7, make_payload())
    assert decode(OTHER_KEY, frame) is None


def test_fuzzed_ciphertext_rejected():
    # Fuzzing oracle: random blocks must fail authentication with
    # probability at least 1 - 2^-16; allow a handful of flukes.
    rng = random.Random(99)
    flukes = 0
    for _ in range(10_000):
        frame = Transmission(serial=7, ciphertext=rng.randbytes(16))
        if decode(KEY, frame) is not None:
            flukes += 1
    assert flukes <= 5


def test_truncated_ciphertext_rejected():
    assert decode(KEY, Transmission(serial=7, ciphertext=b"\x00" * 5)) is None


def test_counter_out_of_range():
    # Each is rejected right after its in-range neighbour was encoded, so
    # the range check runs before the permutation memo is consulted.
    encode(KEY, 7, make_payload(counter=(1 << 16) - 1))
    with pytest.raises(ValueError):
        encode(KEY, 7, make_payload(counter=1 << 16))
    encode(KEY, 7, make_payload(counter=0))
    with pytest.raises(ValueError):
        encode(KEY, 7, make_payload(counter=-1))


def test_timestamp_requires_signature():
    payload = Payload(
        counter=1,
        button=Instruction.LOCK,
        discrimination=discrimination_for(KEY, 7),
        timestamp=1000,
        signature=None,
    )
    with pytest.raises(ValueError):
        encode(KEY, 7, payload)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"discrimination": 1 << 16}, "discrimination 65536 out of range"),
        ({"timestamp": TIMESTAMP_MOD, "signature": 0}, "timestamp %d out of range" % TIMESTAMP_MOD),
        ({"timestamp": 0, "signature": 1 << 32}, "signature 4294967296 out of range"),
        ({"signature": 0}, "signature without timestamp"),
    ],
    ids=["discrimination", "timestamp", "signature", "signature-alone"],
)
def test_pack_rejects_fields_out_of_range(fields, message):
    payload = dataclasses.replace(make_payload(), **fields)
    with pytest.raises(ValueError) as excinfo:
        encode(KEY, 7, payload)
    assert str(excinfo.value) == message


def _sealed(block):
    """A frame holding ``block`` under KEY, its fields packed by hand."""
    block |= discrimination_for(KEY, 7) << 24
    ciphertext = codebook._permute(KEY, block).to_bytes(BLOCK_BYTES, "big")
    return Transmission(serial=7, ciphertext=ciphertext)


@pytest.mark.parametrize(
    "block",
    [5 | 2 << 16, 5 | 1 << 16 | 2 << 40, 5 | 1 << 16 | 9 << 48, 5 | 1 << 16 | 9 << 96,
     5 | 1 << 16 | 2 << 40 | 9 << 48 | timestamp_tag(KEY, 7, 9) << 96],
    ids=["unknown-button", "unknown-flags", "timestamp-without-flag", "tag-without-flag",
         "unknown-flags-tagged"],
)
def test_authentic_block_with_bad_fields_rejected(block):
    # The discrimination bits are right, so only the field checks reject.
    assert decode(KEY, _sealed(5 | 1 << 16)) == make_payload()
    assert decode(KEY, _sealed(block)) is None


def test_tampered_signature_rejected():
    good = make_payload(timestamp=5000)
    bad = Payload(
        counter=good.counter,
        button=good.button,
        discrimination=good.discrimination,
        timestamp=good.timestamp,
        signature=(good.signature + 1) % (1 << 32),
    )
    frame = encode(KEY, 7, bad)
    assert decode(KEY, frame) is None


def test_discrimination_constant_per_fob():
    assert discrimination_for(KEY, 7) == discrimination_for(KEY, 7)
    assert discrimination_for(KEY, 7) != discrimination_for(OTHER_KEY, 8)


def test_distinct_serials_distinct_ciphertexts():
    # Same counter and button on two fobs sharing a key still differ,
    # because discrimination bits are serial-bound.
    shared = derive_key(MASTER, 99)
    a = encode(shared, 1, make_payload(serial=1, key=shared))
    b = encode(shared, 2, make_payload(serial=2, key=shared))
    assert a.ciphertext != b.ciphertext


# --- the permutation memo, kept per pressed frame by fob._frame -----------

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


@given(
    counter=st.integers(0, COUNTER_MOD - 1),
    button=st.sampled_from(list(Instruction)),
    timestamp=st.one_of(st.none(), st.integers(0, TIMESTAMP_MOD - 1)),
)
@settings(max_examples=200, deadline=None)
def test_permute_memo_is_transparent(counter, button, timestamp):
    # Each pressed frame is checked against the rounds, from a cold memo
    # and a warm one, beside frames that differ only in key or button.
    # ``now`` is the timestamp itself: the fobs run with no skew.
    flipped = Instruction.LOCK if button is Instruction.UNLOCK else Instruction.UNLOCK
    fobs = [
        (FobState(serial, key, (counter - 1) % COUNTER_MOD, emit_timestamps=timestamp is not None),
         pressed)
        for key, serial in ((KEY, 7), (OTHER_KEY, 8))
        for pressed in (button, flipped)
    ]
    payloads = [make_payload(counter, pressed, state.serial, state.key, timestamp)
                for state, pressed in fobs]
    rounds = [
        codebook._permute(state.key, codebook._pack(payload)).to_bytes(BLOCK_BYTES, "big")
        for (state, _), payload in zip(fobs, payloads)
    ]
    now = 0 if timestamp is None else timestamp
    fob._frame.cache_clear()
    cold = [press(state, pressed, now)[1].ciphertext for state, pressed in fobs]
    assert fob._frame.cache_info().hits == 0
    warm = [press(state, pressed, now)[1] for state, pressed in fobs]
    assert fob._frame.cache_info().hits == len(fobs)
    assert cold == [frame.ciphertext for frame in warm] == rounds
    assert [decode(state.key, frame) for (state, _), frame in zip(fobs, warm)] == payloads


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SCENARIOS, "*.scn"))), ids=os.path.basename
)
def test_shipped_scenarios_never_hit_the_permute_memo(path):
    # A fob's counter never repeats a block within a run, so only the
    # analyzer's repeated probe transcripts can hit the memo.
    scenario = load_scenario(path)
    fob._frame.cache_clear()
    run(scenario)
    info = fob._frame.cache_info()
    assert info.hits == 0
    assert info.misses > 0


def test_permute_memo_bound_is_the_one_its_comment_states():
    comment = inspect.getcomments(fob._frame.__wrapped__)
    stated = re.search(r"bound of (\d+) entries", comment)
    assert stated is not None
    assert fob._frame.cache_info().maxsize == int(stated.group(1))


# --- the inverse memo and the cache hook -----------------------------------


def test_clear_caches_empties_every_memo():
    # Every module attribute with cache_clear counts, so a memo added
    # later cannot be missed by the hook.
    frame = encode(KEY, 7, make_payload())
    encode(KEY, 7, make_payload(counter=6))
    assert decode(KEY, frame) == make_payload()
    memos = [
        value for value in vars(codebook).values() if hasattr(value, "cache_clear")
    ]
    assert {memo.__name__ for memo in memos} >= {
        "_decode_cached", "discrimination_for", "_keyed"
    }
    assert all(memo.cache_info().currsize > 0 for memo in memos)
    assert codebook._PLAIN
    codebook.clear_caches()
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)
    assert codebook._PLAIN == {}


@given(
    counter=st.integers(0, COUNTER_MOD - 1),
    button=st.sampled_from(list(Instruction)),
    timestamp=st.one_of(st.none(), st.integers(0, TIMESTAMP_MOD - 1)),
    mask=st.binary(min_size=BLOCK_BYTES, max_size=BLOCK_BYTES).filter(any),
)
@settings(max_examples=200, deadline=None)
def test_inverse_memo_is_transparent(counter, button, timestamp, mask):
    for (key, serial), (other, other_serial) in (((KEY, 7), (OTHER_KEY, 8)),
                                                  ((OTHER_KEY, 8), (KEY, 7))):
        payload = make_payload(counter, button, serial, key, timestamp)
        codebook.clear_caches()
        frame = encode(key, serial, payload)
        entry = (key, serial, frame.ciphertext)
        # The other key misses the entry stored under this one and leaves
        # it in place.
        assert decode(other, Transmission(other_serial, frame.ciphertext)) is None
        assert decode(other, frame) is None
        assert codebook._PLAIN == {entry: payload}
        # A ciphertext one mask away from a stored one is still rejected.
        fuzzed = bytes(a ^ b for a, b in zip(frame.ciphertext, mask))
        assert decode(key, Transmission(serial, fuzzed)) is None
        memo = decode(key, frame)
        assert entry not in codebook._PLAIN
        codebook.clear_caches()
        rounds = decode(key, frame)
        assert memo == rounds == payload
        assert memo is payload and rounds is not payload


def _typed(payload):
    """Each field of a decoded payload with its type, or None."""
    if payload is None:
        return None
    return [(type(value), value) for value in dataclasses.astuple(payload)]


_BUTTONS = [*Instruction, *(instruction.value for instruction in Instruction)]


@given(
    counter=st.one_of(st.integers(0, COUNTER_MOD - 1), st.booleans()),
    button=st.sampled_from(_BUTTONS),
    timestamp=st.one_of(st.none(), st.integers(0, TIMESTAMP_MOD - 1), st.booleans()),
    keyed=st.sampled_from([(KEY, 7), (OTHER_KEY, 8)]),
    honest=st.booleans(),
)
@example(counter=5, button="unlock", timestamp=None, keyed=(KEY, 7), honest=True)
@settings(max_examples=300, deadline=None)
def test_primed_decode_equals_a_cold_decode(counter, button, timestamp, keyed, honest):
    # Decoding the frame just encoded hands back what the rounds would
    # build from it, field types included: a str button must come back
    # as an Instruction, or receive()'s ``is`` test leaves the door shut.
    key, serial = keyed
    payload = make_payload(counter, button, serial, key, timestamp)
    if not honest:
        payload = dataclasses.replace(payload, discrimination=payload.discrimination ^ 1)
    codebook.clear_caches()
    frame = encode(key, serial, payload)
    primed = decode(key, frame)
    codebook.clear_caches()
    cold = decode(key, frame)
    assert _typed(primed) == _typed(cold)
    assert (cold is not None) == honest
    if honest:
        assert type(cold.button) is Instruction and cold.button == button


@pytest.mark.parametrize("timestamp", [None, 5000], ids=["plain", "timestamped"])
def test_primed_frame_with_wrong_discrimination_rejected(timestamp):
    # Only the discrimination is wrong: the tag, when present, is right.
    codebook.clear_caches()
    good = make_payload(timestamp=timestamp)
    bad = dataclasses.replace(good, discrimination=good.discrimination ^ 1)
    frame = encode(KEY, 7, bad)
    assert codebook._PLAIN == {(KEY, 7, frame.ciphertext): bad}
    assert decode(KEY, frame) is None
    assert codebook._PLAIN == {}


def _comment_above(source, statement):
    lines = source[: source.index("\n" + statement)].splitlines()
    comment = []
    while lines and lines[-1].startswith("#"):
        comment.insert(0, lines.pop())
    return " ".join(comment)


def test_plain_memo_bound_is_the_one_its_comment_states():
    comment = _comment_above(inspect.getsource(codebook), "_PLAIN: ")
    stated = re.search(r"bound of (\d+) entries", comment)
    assert stated is not None
    assert codebook._PLAIN_MAX == int(stated.group(1))


def test_plain_memo_is_emptied_when_full():
    codebook.clear_caches()
    payload = make_payload()
    codebook._PLAIN.update(((b"filler", n, b""), payload) for n in range(codebook._PLAIN_MAX))
    frame = encode(KEY, 7, payload)
    assert codebook._PLAIN == {(KEY, 7, frame.ciphertext): payload}
    assert decode(KEY, frame) is payload
    assert codebook._PLAIN == {}


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SCENARIOS, "*.scn"))), ids=os.path.basename
)
def test_shipped_scenarios_never_run_the_inverse_rounds(path, monkeypatch):
    # Every frame a receiver decodes was encrypted earlier in the run, so
    # only the forward rounds build a keyed state.  Both memos start
    # empty, as in a fresh process: a warm frame is never primed.
    scenario = load_scenario(path)
    keyed, permute = codebook._keyed, codebook._permute
    entered, forward = [], []

    def counting(key):
        entered.append(key)
        return keyed(key)

    def counting_permute(key, block):
        forward.append(key)
        return permute(key, block)

    codebook.clear_caches()
    fob._frame.cache_clear()
    monkeypatch.setattr(codebook, "_keyed", counting)
    monkeypatch.setattr(codebook, "_permute", counting_permute)
    run(scenario)
    assert len(entered) == len(forward) > 0
