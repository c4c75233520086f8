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

Encryption runs the rounds on every call: ``fob`` keeps the last 64
frames pressed, so a repeated one never reaches it.  Each payload
encoded is remembered under its frame until first decoded, so decoding
a frame this process produced hands back the encoder's own ``Payload``:
no inverse rounds, no unpacking and no second object.  The
key-dependent checks, discrimination and timestamp tag, still run on
it.  In a simulation every delivered frame was encoded moments before,
or met in a memo by an earlier run, so the engine never runs the
inverse rounds.  Both directions copy one keyed BLAKE2b state per key.
``clear_caches`` empties every codebook memo, not ``fob._frame``.
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
# The field types of a decoded payload, without and with a timestamp.
_DECODED_TYPES = {(int, Instruction, int, type(None), type(None)),
                  (int, Instruction, int, int, int)}


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@lru_cache(maxsize=256)
def _keyed(key: bytes):
    # Each round copies this state instead of building a new one, which
    # would compress the key block again.  One key per fob; 256 keys
    # outnumber the fobs of any shipped scenario or probe.
    return hashlib.blake2b(key=key, digest_size=8)


# Encoded payloads by (key, serial, ciphertext), filled by encode and
# emptied as _decode_cached decodes.  Frames encoded but never decoded
# (out of range, jammed) stay, so a bound of 65536 entries caps memory:
# the dict is emptied when full, and a lost entry only costs the rounds.
# A frame encoded again keeps its stored entry (setdefault), so a rerun
# leaves no new long-lived object among its garbage; plain assignment
# raised the press-stream benchmark's peak RSS by 0.1-0.3 MB (2 vCPU,
# Python 3.11).
_PLAIN: dict[tuple[bytes, int, bytes], Payload] = {}
_PLAIN_MAX = 1 << 16


# The forward rounds, unmemoised: a frame pressed again is served whole
# by ``fob._frame``, before its payload is even built.
def _permute(key: bytes, block: int) -> int:
    keyed = _keyed(key)
    left, right = block >> 64, block & _MASK64
    for tag in _ROUND_TAGS:
        h = keyed.copy()
        h.update(right.to_bytes(8, "big") + tag)
        left, right = right, left ^ int.from_bytes(h.digest(), "big")
    return left << 64 | right


def _unpermute(key: bytes, block: int) -> int:
    # The inverse of _permute: the same rounds, undone in reverse order.
    keyed = _keyed(key)
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
    ciphertext = _permute(key, _pack(payload)).to_bytes(BLOCK_BYTES, "big")
    # Only a payload of the types decoding builds is kept: a str button or
    # a bool counter packs like its canonical value, and decoding must
    # hand back that value, as the rounds do.
    if (type(payload.counter), type(payload.button), type(payload.discrimination),
            type(payload.timestamp), type(payload.signature)) in _DECODED_TYPES:
        if len(_PLAIN) >= _PLAIN_MAX:
            _PLAIN.clear()
        _PLAIN.setdefault((key, serial, ciphertext), payload)
    return Transmission(serial=serial, ciphertext=ciphertext)


def decode(key: bytes, transmission: Transmission) -> Payload | None:
    """Decrypt and authenticate a frame.

    Answers None when the frame was not produced under ``key`` for this
    serial (wrong key, corrupt or fuzzed bytes).
    """
    return _decode_cached(key, transmission.serial, transmission.ciphertext)


def _authentic(key: bytes, serial: int, payload: Payload) -> Payload | None:
    # The checks that need the key, run on every decoded payload.
    if payload.discrimination != discrimination_for(key, serial):
        return None
    if payload.timestamp is not None and payload.signature != timestamp_tag(
        key, serial, payload.timestamp
    ):
        return None
    return payload


@lru_cache(maxsize=1 << 16)
def _decode_cached(key: bytes, serial: int, ciphertext: bytes) -> Payload | None:
    # Decoding is deterministic, so repeated replays of one frame hit the
    # cache.  A frame encoded in this process hands back its payload.
    encoded = _PLAIN.pop((key, serial, ciphertext), None)
    if encoded is not None:
        return _authentic(key, serial, encoded)
    if len(ciphertext) != BLOCK_BYTES:
        return None
    block = _unpermute(key, int.from_bytes(ciphertext, "big"))
    button_code = block >> 16 & 0xFF
    flags = block >> 40 & 0xFF
    ts_value = block >> 48 & (TIMESTAMP_MOD - 1)
    sig_value = block >> 96 & (_SIGNATURE_MOD - 1)
    if button_code not in _BUTTONS_BY_CODE or flags not in (0, 1):
        return None
    if flags == 0:
        if ts_value or sig_value:
            return None
        ts_value = sig_value = None
    return _authentic(key, serial, Payload(
        counter=block & 0xFFFF,
        button=_BUTTONS_BY_CODE[button_code],
        discrimination=block >> 24 & 0xFFFF,
        timestamp=ts_value,
        signature=sig_value,
    ))


def clear_caches() -> None:
    """Empty every codebook memo.  On its own this is not a fresh
    process's state: ``fob._frame`` stays warm, and a frame it hands out
    again skips ``encode``, so its first decode runs the inverse rounds."""
    _decode_cached.cache_clear()
    discrimination_for.cache_clear()
    _keyed.cache_clear()
    _PLAIN.clear()
