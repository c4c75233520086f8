"""Rolling-code frame encoding and authentication.

An over-the-air frame is a plaintext serial number plus an opaque
128-bit block that carries the rolling counter, the button instruction,
per-fob discrimination bits and, optionally, a millisecond timestamp
with a keyed tag.  The block cipher is a 4-round Feistel network whose
round function is keyed BLAKE2b.  That gives a deterministic keyed
permutation: equal payloads always produce equal ciphertexts, distinct
payloads never collide under one key, and without the key a ciphertext
can only be replayed byte for byte, never forged or usefully mutated.

Discrimination bits are derived from (key, serial), so a decoder can
verify correct key use without any stored per-fob state: decoding with
the wrong key scrambles the block and the check fails with probability
1 - 2^-16 per attempt.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

COUNTER_MOD = 1 << 16          # 16-bit rolling counter
TIMESTAMP_MOD = 1 << 48        # 48-bit millisecond timestamp
SERIAL_MOD = 1 << 64           # serials travel as 8 big-endian bytes
KEY_BYTES = 16
MAX_KEY_BYTES = hashlib.blake2b.MAX_KEY_SIZE  # longest key a fob may carry
BLOCK_BYTES = 16

_ROUNDS = 4
_MASK64 = (1 << 64) - 1
_SIGNATURE_MOD = 1 << 32
_DISCRIMINATION_MOD = 1 << 16


class Instruction(str, Enum):
    """Button instruction carried by a key-fob frame."""

    LOCK = "lock"
    UNLOCK = "unlock"


_BUTTON_CODES = {Instruction.LOCK: 0, Instruction.UNLOCK: 1}
_BUTTONS_BY_CODE = {code: instr for instr, code in _BUTTON_CODES.items()}


class AuthenticationError(Exception):
    """Ciphertext failed the discrimination or tag check for the given key."""


@dataclass(frozen=True)
class Payload:
    """Decrypted contents of a frame.

    ``timestamp`` and ``signature`` are present together or not at all;
    they exist only on systems that ship the timestamp countermeasure.
    """

    counter: int
    button: Instruction
    discrimination: int
    timestamp: int | None = None
    signature: int | None = None


@dataclass(frozen=True)
class Transmission:
    """One over-the-air frame: plaintext serial + encrypted block."""

    serial: int
    ciphertext: bytes


def master_from_seed(seed: int) -> bytes:
    """Deterministic per-run master secret used to derive fob keys."""
    return hashlib.blake2b(b"rkesim-master:%d" % seed, digest_size=KEY_BYTES).digest()


def derive_key(master: bytes, serial: int) -> bytes:
    """Per-fob key derived from the master secret and the fob serial."""
    return hashlib.blake2b(
        serial.to_bytes(8, "big"), key=master, digest_size=KEY_BYTES
    ).digest()


@lru_cache(maxsize=4096)
def discrimination_for(key: bytes, serial: int) -> int:
    """Fixed discrimination bits for a fob; constant for its lifetime."""
    digest = hashlib.blake2b(
        b"disc:" + serial.to_bytes(8, "big"), key=key, digest_size=2
    ).digest()
    return int.from_bytes(digest, "big")


def timestamp_tag(key: bytes, serial: int, timestamp: int) -> int:
    """Keyed 32-bit tag binding a timestamp to a fob."""
    digest = hashlib.blake2b(
        b"tag:" + serial.to_bytes(8, "big") + timestamp.to_bytes(8, "big"),
        key=key,
        digest_size=4,
    ).digest()
    return int.from_bytes(digest, "big")


_ROUND_TAGS = tuple(bytes([rnd]) for rnd in range(_ROUNDS))


def _permute(key: bytes, block: int) -> int:
    # Each round copies one keyed BLAKE2b state instead of building a new
    # one, which would compress the key block again.
    keyed = hashlib.blake2b(key=key, digest_size=8)
    left, right = block >> 64, block & _MASK64
    for tag in _ROUND_TAGS:
        h = keyed.copy()
        h.update(right.to_bytes(8, "big") + tag)
        left, right = right, left ^ int.from_bytes(h.digest(), "big")
    return left << 64 | right


def _unpermute(key: bytes, block: int) -> int:
    keyed = hashlib.blake2b(key=key, digest_size=8)
    left, right = block >> 64, block & _MASK64
    for tag in reversed(_ROUND_TAGS):
        h = keyed.copy()
        h.update(left.to_bytes(8, "big") + tag)
        left, right = right ^ int.from_bytes(h.digest(), "big"), left
    return left << 64 | right


def _pack(payload: Payload) -> int:
    if not 0 <= payload.counter < COUNTER_MOD:
        raise ValueError("counter %r out of 16-bit range" % (payload.counter,))
    if not 0 <= payload.discrimination < _DISCRIMINATION_MOD:
        raise ValueError("discrimination %r out of range" % (payload.discrimination,))
    flags = 0
    ts_value = sig_value = 0
    if payload.timestamp is not None:
        if payload.signature is None:
            raise ValueError("timestamped payloads require a signature tag")
        if not 0 <= payload.timestamp < TIMESTAMP_MOD:
            raise ValueError("timestamp %r out of range" % (payload.timestamp,))
        if not 0 <= payload.signature < _SIGNATURE_MOD:
            raise ValueError("signature %r out of range" % (payload.signature,))
        flags = 1
        ts_value = payload.timestamp
        sig_value = payload.signature
    elif payload.signature is not None:
        raise ValueError("signature without timestamp")
    return (
        payload.counter
        | _BUTTON_CODES[payload.button] << 16
        | payload.discrimination << 24
        | flags << 40
        | ts_value << 48
        | sig_value << 96
    )


def encode(key: bytes, serial: int, payload: Payload) -> Transmission:
    """Encrypt a payload into a frame.

    Deterministic: the same (key, serial, payload) always yields the
    same ciphertext, and distinct payloads never share one.
    """
    block = _permute(key, _pack(payload))
    return Transmission(serial=serial, ciphertext=block.to_bytes(BLOCK_BYTES, "big"))


def decode(key: bytes, transmission: Transmission) -> Payload:
    """Decrypt and authenticate a frame.

    Raises AuthenticationError when the frame was not produced under
    ``key`` for this serial (wrong key, corrupt or fuzzed bytes).
    """
    payload = _decode_cached(key, transmission.serial, transmission.ciphertext)
    if payload is None:
        raise AuthenticationError(
            "frame from serial %d failed authentication" % transmission.serial
        )
    return payload


@lru_cache(maxsize=1 << 16)
def _decode_cached(key: bytes, serial: int, ciphertext: bytes) -> Payload | None:
    # Decoding is deterministic, so repeated replays of one frame hit the
    # cache instead of re-running the permutation.
    if len(ciphertext) != BLOCK_BYTES:
        return None
    block = _unpermute(key, int.from_bytes(ciphertext, "big"))
    counter = block & 0xFFFF
    button_code = block >> 16 & 0xFF
    discrimination = block >> 24 & 0xFFFF
    flags = block >> 40 & 0xFF
    ts_value = block >> 48 & (TIMESTAMP_MOD - 1)
    sig_value = block >> 96 & (_SIGNATURE_MOD - 1)

    if discrimination != discrimination_for(key, serial):
        return None
    if button_code not in _BUTTONS_BY_CODE or flags not in (0, 1):
        return None
    if flags == 0:
        if ts_value or sig_value:
            return None
        timestamp = signature = None
    else:
        if sig_value != timestamp_tag(key, serial, ts_value):
            return None
        timestamp, signature = ts_value, sig_value
    return Payload(
        counter=counter,
        button=_BUTTONS_BY_CODE[button_code],
        discrimination=discrimination,
        timestamp=timestamp,
        signature=signature,
    )
