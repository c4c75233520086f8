"""Byte-level pins on the cipher and the rendered traces.

Round-trip tests pass for any keyed permutation and any trace format,
so they cannot catch a cipher or renderer change that alters output
bytes.  These tests pin the exact bytes instead: the cipher's frames,
every shipped scenario's trace, a record with no fields and the
classifier's ``matrix --json``.
"""

import hashlib
import os

import pytest

from rkesim import cli, sim
from rkesim.codebook import (
    Instruction,
    Payload,
    decode,
    discrimination_for,
    encode,
    timestamp_tag,
)
from rkesim.scenario import load_scenario, loads_scenario

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(REPO, "scenarios")

# sha256 of (Trace.render(), cli._pretty_trace(trace)) per shipped scenario.
TRACE_DIGESTS = {
    "future_code": (
        "f20b39d70b65bf6eb3943b01cfddae40acf92a12a8ce8ef0b141c7ab31b16b81",
        "d7bdae6919fca804a1c63d1c1f7f87a1c7a45f05891b326ed8d54c9c4e49cd5b",
    ),
    "jam_replay_lock": (
        "4f9edf940abea11c2304d778761db01c2e5e89105552c3adad87974d84dcf9fc",
        "e0ffb5d03b4a0a08132ef5eb4004763bea74fcecc72f5d84c6024a4c16b44863",
    ),
    "learn_mode": (
        "5abcb8e7fa7557405c2307a12a6f85c5bf2d91872d4e1bc80e502eac24c64c85",
        "5be0a05927afd7d846ca0ac786ab1ba7ccbeeaab49849ae2b3e78e9b92ab5a9e",
    ),
    "naive_replay": (
        "dde306c5e3407062c870af78707e1f914dae9205b04140c9f33f170fd85021c6",
        "9b7ca8a7728fbfefbc45422ee1eb98a077f7a6fd4b731ac8d7bdbc44c7727b0a",
    ),
    "relock": (
        "92b2f6c5a8473080d5ce6f681493e8b2400df87ce22a583e41fdcc57e6f22b44",
        "3c550d63b0b96287b951863cc2c87489995dc46c624cc32f684884598063228c",
    ),
    "rollback_loose2": (
        "cc71ea3f6d048f7581d9692a590cd11b5959584b1352e994b9e8e1b3ed52ec5a",
        "673c85dd6353172691783a1397a962d8b19a464a22c2294be2a25a22555fa5d2",
    ),
    "rollback_strict2_timeframe": (
        "a5761eeb0a16a2fa302375c8cea5ddd136763f20e36ca2f93a901d2dd0ea9b18",
        "9f23483d5d6e1652eecefb0e7bedd9bb455fed1fe8fc211531627047d0b879e4",
    ),
    "rolljam": (
        "200575cf70cf222c9e59f875d2face13994f97174d51c2644dfe05e276074d29",
        "9a058c77b8aee585dbd7a61ae700939f77a7d690f218b490ad07255d90a14925",
    ),
    "timestamp_mitigation": (
        "10b529b4544ad4702bc4819bb4a42b34ba4c636650b24f53f5e1729d53db43d6",
        "89a7c884fa2786d36cc33f116c61080deba40ff7d793969c7cd458dd225bf1c9",
    ),
}


def test_every_shipped_scenario_is_pinned():
    shipped = sorted(name[:-4] for name in os.listdir(SCENARIOS) if name.endswith(".scn"))
    assert shipped == sorted(TRACE_DIGESTS)


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_scenario_trace_bytes(name):
    trace = sim.run(load_scenario(os.path.join(SCENARIOS, name + ".scn")))
    digest = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert (digest(trace.render()), digest(cli._pretty_trace(trace))) == TRACE_DIGESTS[name]


# ``advance`` writes a ``tick``, the one record kind with no fields; no
# shipped scenario has one, so its exact bytes are pinned here.
TICK_SCENARIO = (
    "rkesim-scenario v1\nname tick\nseed 1\n[fob]\nserial 7\n[receiver]\n"
    "single_window 16\n[events]\n1000 press 7 unlock\n2500 advance\n"
)


def test_record_without_fields_bytes():
    trace = sim.run(loads_scenario(TICK_SCENARIO))
    tx = (
        "src=victim serial=7 ctr=1 btn=unlock out_of_range=0 jammed=0 delivered=1 "
        "captured=0 frame=9141bc7da1d970fccafa304ea8e902ee"
    )
    rx = "src=victim serial=7 action=executed btn=unlock door=unlocked"
    assert trace.render() == (
        "t=0 ev=scenario name=tick seed=1\n"
        "t=0 ev=fob serial=7 ctr=0\n"
        "t=0 ev=door state=locked\n"
        "t=1000 ev=tx " + tx + "\n"
        "t=1000 ev=rx " + rx + "\n"
        "t=1000 ev=door state=unlocked\n"
        "t=2500 ev=tick\n"
        "t=2500 ev=final_fob serial=7 ctr=1 stored=1\n"
        "t=2500 ev=final door=unlocked captures=0\n"
    )
    assert cli._pretty_trace(trace) == (
        "[       0.000s] scenario   name=tick seed=1\n"
        "[       0.000s] fob        serial=7 ctr=0\n"
        "[       0.000s] door       state=locked\n"
        "[       1.000s] tx         " + tx + "\n"
        "[       1.000s] rx         " + rx + "\n"
        "[       1.000s] door       state=unlocked\n"
        "[       2.500s] tick       \n"
        "[       2.500s] final_fob  serial=7 ctr=1 stored=1\n"
        "[       2.500s] final      door=unlocked captures=0\n"
    )


# sha256 of the stdout of ``rkesim matrix <dir> --json`` per shipped policy dir.
MATRIX_DIGESTS = {
    "policies": "5c2fd71924febf7c64b86eefd83aff670a2b4475eca71200f83397e2d74b70f2",
    "policies/extra": "2fca71b61175af4ec3ff89231770349a975b2ff05752928d3abb1e43132c3bec",
}


@pytest.mark.parametrize("directory", sorted(MATRIX_DIGESTS))
def test_matrix_json_bytes(capsys, directory):
    assert cli.main(["matrix", os.path.join(REPO, directory), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MATRIX_DIGESTS[directory]


KAT_KEY = bytes(range(16))
KAT_SERIAL = 0x2A17
KAT_TIMESTAMP = 1_700_000_000_000


@pytest.mark.parametrize(
    "counter, button, timestamp, ciphertext",
    [
        (1, Instruction.UNLOCK, None, "17114b7dde2f3935a8986156e31b59b6"),
        (2, Instruction.LOCK, KAT_TIMESTAMP, "2c7a9778b74b31a7d2b446b09f99eb3f"),
        (65535, Instruction.UNLOCK, None, "120164aad7819449a5781e60bc7616e9"),
    ],
)
def test_encode_known_answers(counter, button, timestamp, ciphertext):
    signature = None
    if timestamp is not None:
        signature = timestamp_tag(KAT_KEY, KAT_SERIAL, timestamp)
    payload = Payload(
        counter=counter,
        button=button,
        discrimination=discrimination_for(KAT_KEY, KAT_SERIAL),
        timestamp=timestamp,
        signature=signature,
    )
    transmission = encode(KAT_KEY, KAT_SERIAL, payload)
    assert transmission.ciphertext.hex() == ciphertext
    assert decode(KAT_KEY, transmission) == payload
