import glob
import inspect
import os
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from rkesim import codebook
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


# --- the permutation memo -------------------------------------------------

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


@given(
    counter=st.integers(0, COUNTER_MOD - 1),
    button=st.sampled_from(list(Instruction)),
    timestamp=st.one_of(st.none(), st.integers(0, TIMESTAMP_MOD - 1)),
)
@settings(max_examples=200, deadline=None)
def test_permute_memo_is_transparent(counter, button, timestamp):
    # Each frame is checked against the unmemoized rounds, from a cold
    # memo and a warm one, beside frames that differ only in key or button.
    flipped = Instruction.LOCK if button is Instruction.UNLOCK else Instruction.UNLOCK
    frames = [
        (key, serial, make_payload(counter, pressed, serial, key, timestamp))
        for key, serial in ((KEY, 7), (OTHER_KEY, 8))
        for pressed in (button, flipped)
    ]
    rounds = [
        codebook._permute.__wrapped__(key, codebook._pack(payload)).to_bytes(BLOCK_BYTES, "big")
        for key, _, payload in frames
    ]
    codebook._permute.cache_clear()
    cold = [encode(key, serial, payload).ciphertext for key, serial, payload in frames]
    assert codebook._permute.cache_info().hits == 0
    warm = [encode(key, serial, payload) for key, serial, payload in frames]
    assert codebook._permute.cache_info().hits == len(frames)
    assert cold == [frame.ciphertext for frame in warm] == rounds
    assert [decode(key, frame) for (key, _, _), frame in zip(frames, warm)] == [
        payload for _, _, payload in frames
    ]


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SCENARIOS, "*.scn"))), ids=os.path.basename
)
def test_shipped_scenarios_never_hit_the_permute_memo(path):
    # A fob's counter never repeats a block within a run, so only the
    # analyzer's repeated probe transcripts can hit the memo.
    scenario = load_scenario(path)
    codebook._permute.cache_clear()
    run(scenario)
    info = codebook._permute.cache_info()
    assert info.hits == 0
    assert info.misses > 0


def test_permute_memo_bound_is_the_one_its_comment_states():
    comment = inspect.getcomments(codebook._permute.__wrapped__)
    stated = re.search(r"bound of (\d+) entries", comment)
    assert stated is not None
    assert codebook._permute.cache_info().maxsize == int(stated.group(1))
