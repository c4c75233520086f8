import random

import pytest

from rkesim.codebook import (
    AuthenticationError,
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
    with pytest.raises(AuthenticationError):
        decode(OTHER_KEY, frame)


def test_fuzzed_ciphertext_rejected():
    # Fuzzing oracle: random blocks must fail authentication with
    # probability at least 1 - 2^-16; allow a handful of flukes.
    rng = random.Random(99)
    flukes = 0
    for _ in range(10_000):
        frame = Transmission(serial=7, ciphertext=rng.randbytes(16))
        try:
            decode(KEY, frame)
            flukes += 1
        except AuthenticationError:
            pass
    assert flukes <= 5


def test_truncated_ciphertext_rejected():
    with pytest.raises(AuthenticationError):
        decode(KEY, Transmission(serial=7, ciphertext=b"\x00" * 5))


def test_counter_out_of_range():
    with pytest.raises(ValueError):
        encode(KEY, 7, make_payload(counter=1 << 16))
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
    with pytest.raises(AuthenticationError):
        decode(KEY, frame)


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
