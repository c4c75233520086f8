"""Byte-level pins on the cipher and the rendered traces.

Round-trip tests pass for any keyed permutation and any trace format,
so they cannot catch a cipher or renderer change that alters output
bytes.  These tests pin the exact bytes instead: the cipher's frames,
every shipped scenario's trace, a record with no fields, the
classifier's ``matrix --json`` and every file of the golden set.  The
trace and ``matrix --json`` tests read their digests from the golden
set's table, so each output has one pin.
"""

import hashlib
import os

import pytest

import golden_set
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

# sha256 of every file ``tests/golden_set.py`` writes, in ``sha256sum``
# form: ``cd OUT_DIR && sha256sum -c`` checks a written set against it.
GOLDEN_SET_SHA256 = """\
10af99af620aa42f6d2990ad3d70718979779fc58a4303aab1a80637a8b6bc7b  classify.extra.forever_learn
0f008118a4955506df50a0f1c0745a8a1b9f97ea137f7df34c8f91fd3e29380c  classify.extra.per_instruction
10af99af620aa42f6d2990ad3d70718979779fc58a4303aab1a80637a8b6bc7b  classify.extra.secure
10af99af620aa42f6d2990ad3d70718979779fc58a4303aab1a80637a8b6bc7b  classify.extra.timestamp
10af99af620aa42f6d2990ad3d70718979779fc58a4303aab1a80637a8b6bc7b  classify.grid.default
0f008118a4955506df50a0f1c0745a8a1b9f97ea137f7df34c8f91fd3e29380c  classify.grid.loose2
032d4bd243fe006c458db00c43225179c369b422f960053713e201725c60e3df  classify.grid.loose2_3000
8a23b7ffb24f98755ad6fb73ad9bfbc307a5bfd8b7e7787eccc47cf2e9d77965  classify.grid.loose3
290bd5ae1e19c712782d8f93316c06cf1bbe7ceb8b27fed9fea967c5e3b9769d  classify.grid.strict2
23806a5ac7296e13f7330dac5ffb94d3cbb6b7560d7f0737c0a201447e9b7258  classify.grid.strict2_5000
531f02eb0f42dbf8993b95752a377ccaa8e88e7ceca61bba17b16c1f99d06907  classify.grid.strict2_8000
d5fb98d36c16bbe75e70432c9c854fa8a29a28009d068b7b347a12089bf42f77  classify.grid.strict3
03d721a74a8369a045f3c60e8de6e3e395b7bef829162b5c98642faabb8c406d  classify.grid.strict3_5000
9f60f173fae82cd7e86043dc57ba7e0aa5b5aaa1b20647c603fe7542bb1b0a6d  classify.grid.strict4
06a9f99d4a72df3896c6573f025a8c2783b7d7792feafe5a6f8c41ee9cd94cd4  classify.grid.strict5
10af99af620aa42f6d2990ad3d70718979779fc58a4303aab1a80637a8b6bc7b  classify.grid.sw8
0f008118a4955506df50a0f1c0745a8a1b9f97ea137f7df34c8f91fd3e29380c  classify.policies.loose2
23806a5ac7296e13f7330dac5ffb94d3cbb6b7560d7f0737c0a201447e9b7258  classify.policies.strict2_5s
d5fb98d36c16bbe75e70432c9c854fa8a29a28009d068b7b347a12089bf42f77  classify.policies.strict3
06a9f99d4a72df3896c6573f025a8c2783b7d7792feafe5a6f8c41ee9cd94cd4  classify.policies.strict5
2fca71b61175af4ec3ff89231770349a975b2ff05752928d3abb1e43132c3bec  matrix.extra.json
5c2fd71924febf7c64b86eefd83aff670a2b4475eca71200f83397e2d74b70f2  matrix.policies.json
37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570  oracle.extra.forever_learn
b649f414e8a705c83f98268edf8f41f50114e03e858f889bd390b060afc49459  oracle.extra.per_instruction
37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570  oracle.extra.secure
37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570  oracle.extra.timestamp
37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570  oracle.grid.default
b649f414e8a705c83f98268edf8f41f50114e03e858f889bd390b060afc49459  oracle.grid.loose2
40f66324f8face9d75983b2ee71a8141ff83c217e72b19abcc283a825819bce4  oracle.grid.loose2_3000
18122297527185896ec137855b1a7df9f0e7e7b7a23d5cec99571b3b713ef1ac  oracle.grid.loose3
70600104ef3509d5eece8c0a5eb1ac262c65dd4b0a0c6411864ad4962deafb3f  oracle.grid.strict2
1d7c738ea5a598265f001baec65b2df9a77cb11c7900b8e5170c613abf470e45  oracle.grid.strict2_5000
2d6c65e157044dd932919b97810b4f60ceedc5b1776c0a5b2120024751c4d564  oracle.grid.strict2_8000
f9b09bac10976b51542d332e6f6923e7592df12cdde2c7b7a376ef37932268bc  oracle.grid.strict3
1ebaea1d7f5d530355a77b6e58c1880e0921ca59fa99d4f8a66d45f0be5f6d91  oracle.grid.strict3_5000
ccace951cf8fda3b85baf3320e2ff299d21b8f20a9de93660fd23d889cffc711  oracle.grid.strict4
33e4c92f4c54cacbc0ac76035152778f99a5d1f74834c89daa0720b8cddec38b  oracle.grid.strict5
37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570  oracle.grid.sw8
b649f414e8a705c83f98268edf8f41f50114e03e858f889bd390b060afc49459  oracle.policies.loose2
1d7c738ea5a598265f001baec65b2df9a77cb11c7900b8e5170c613abf470e45  oracle.policies.strict2_5s
f9b09bac10976b51542d332e6f6923e7592df12cdde2c7b7a376ef37932268bc  oracle.policies.strict3
33e4c92f4c54cacbc0ac76035152778f99a5d1f74834c89daa0720b8cddec38b  oracle.policies.strict5
1b79277228e42fc04b6ea14eb74bd64f9c06cba5f6e4bbb33310adf0b6697f6b  scenario.future_code.pretty
893cea96c77e916fd1708b566573cd1cb426a3a342b12d89a93bf109c74ed256  scenario.future_code.stdout
f20b39d70b65bf6eb3943b01cfddae40acf92a12a8ce8ef0b141c7ab31b16b81  scenario.future_code.trace
1450708ff3b18d9d7e3c35f68db7e13686e51c0279f4355ef8822374068dcd3f  scenario.jam_replay_lock.pretty
c19835be1707cb8c99db99dd8b05c9e482e6fc1718258fc03a6ad425abfb65c9  scenario.jam_replay_lock.stdout
4f9edf940abea11c2304d778761db01c2e5e89105552c3adad87974d84dcf9fc  scenario.jam_replay_lock.trace
9d2bcf3ab85082cbe0d51deb7ec01db4eb93da46ca6436c7dcedb628b0dce0d0  scenario.learn_mode.pretty
ffcff600a22afb8df72164a4a6628d195e03d6690284b8d16afbf3de4efb7e34  scenario.learn_mode.stdout
5abcb8e7fa7557405c2307a12a6f85c5bf2d91872d4e1bc80e502eac24c64c85  scenario.learn_mode.trace
b101a60261b92d143314c9bd3f7300b6d2cbf5d1e54d8aa1f21d2acee6a9296d  scenario.naive_replay.pretty
45a408c5245b0ec4f7ad54135d41e25c38c1dbc29b4e963d43a48989c3f7f1d2  scenario.naive_replay.stdout
dde306c5e3407062c870af78707e1f914dae9205b04140c9f33f170fd85021c6  scenario.naive_replay.trace
d8d63b9efe9569d46cc30a440bfc09caa9627324d0c2f1f8a1f820fd577a7701  scenario.relock.pretty
b7c517f4dbd8c174f06868a1b4b611c3ee3d6659f623ac1319751f90dbb3deb9  scenario.relock.stdout
92b2f6c5a8473080d5ce6f681493e8b2400df87ce22a583e41fdcc57e6f22b44  scenario.relock.trace
e10f0e50ffb1f20888d001157cb3c59a9384f1695f4c5a3ddcef563936b31c5e  scenario.rollback_loose2.pretty
e0dd00cbd093c1f9fcb57f1b26ee5fd3d772901a54b8de607ebda7d9f41faf41  scenario.rollback_loose2.stdout
cc71ea3f6d048f7581d9692a590cd11b5959584b1352e994b9e8e1b3ed52ec5a  scenario.rollback_loose2.trace
bcc694513d8491b7fd2a1a76892ee8f6ffcbb6fa548b2118273d519ca6d92863  scenario.rollback_strict2_timeframe.pretty
faf95267fb65bf3062cba2cdb5395421261df5ec87a7e369f9ae6e086ae365c4  scenario.rollback_strict2_timeframe.stdout
a5761eeb0a16a2fa302375c8cea5ddd136763f20e36ca2f93a901d2dd0ea9b18  scenario.rollback_strict2_timeframe.trace
5b584696cb3ab9d74d1caccf8aefeda7b2e03d824ffd7294edd6503d74b9d719  scenario.rolljam.pretty
a18dc9e06f17b7536468a1259aae4c3e4d8b6de34370267689b3429a0c8195e5  scenario.rolljam.stdout
200575cf70cf222c9e59f875d2face13994f97174d51c2644dfe05e276074d29  scenario.rolljam.trace
64d7ec1c5ec761a5fd8eb479490c83f06dfa88796ebf4ae11dea88bbef20a591  scenario.timestamp_mitigation.pretty
ca167d601bb6883ac7c7052805d35dfe2fc7c796cb97dcadb4c40361395b125f  scenario.timestamp_mitigation.stdout
10b529b4544ad4702bc4819bb4a42b34ba4c636650b24f53f5e1729d53db43d6  scenario.timestamp_mitigation.trace
"""
PINNED = dict(reversed(line.split("  ")) for line in GOLDEN_SET_SHA256.splitlines())
PINNED_SCENARIOS = sorted(
    name[len("scenario."):-len(".trace")]
    for name in PINNED if name.startswith("scenario.") and name.endswith(".trace")
)


def test_every_shipped_scenario_is_pinned():
    shipped = sorted(name[:-4] for name in os.listdir(SCENARIOS) if name.endswith(".scn"))
    assert shipped == PINNED_SCENARIOS


# The trace bytes alone; ``scenario.<name>.pretty`` pins the pretty
# render together with the report.
@pytest.mark.parametrize("name", PINNED_SCENARIOS)
def test_scenario_trace_bytes(name):
    trace = sim.run(load_scenario(os.path.join(SCENARIOS, name + ".scn")))
    digest = hashlib.sha256(trace.render().encode("utf-8")).hexdigest()
    assert digest == PINNED["scenario.%s.trace" % name]


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
        "[       2.500s] tick\n"
        "[       2.500s] final_fob  serial=7 ctr=1 stored=1\n"
        "[       2.500s] final      door=unlocked captures=0\n"
    )


# The golden-set file that holds ``rkesim matrix DIR --json``, per shipped policy dir.
MATRIX_FILES = {
    directory: "matrix.%s.json" % group for group, directory in golden_set.POLICY_DIRS.items()
}


@pytest.mark.parametrize("directory", sorted(MATRIX_FILES))
def test_matrix_json_bytes(capsys, directory):
    assert cli.main(["matrix", os.path.join(REPO, directory), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED[MATRIX_FILES[directory]]


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


def test_golden_set_digests(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.TRACE_DIR_ENV, raising=False)
    golden_set.write_golden_set(str(tmp_path))
    assert golden_set.digests(str(tmp_path)) == PINNED
