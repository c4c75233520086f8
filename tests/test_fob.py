from rkesim.codebook import Instruction, decode, derive_key, master_from_seed
from rkesim.fob import FobState, press
from rkesim.receiver import (
    ActionKind,
    ReceiverPolicy,
    new_receiver_state,
    receive,
    register_fob,
)

MASTER = master_from_seed(7)
KEY = derive_key(MASTER, 3)


def make_fob(counter=0, **kwargs):
    return FobState(serial=3, key=KEY, counter=counter, **kwargs)


def test_press_increments_and_emits_new_counter():
    fob, frame = press(make_fob(counter=10), Instruction.UNLOCK, now=0)
    assert fob.counter == 11
    payload = decode(KEY, frame)
    assert payload.counter == 11
    assert payload.button is Instruction.UNLOCK


def test_counter_wraparound():
    fob, frame = press(make_fob(counter=(1 << 16) - 1), Instruction.LOCK, now=0)
    assert fob.counter == 0
    assert decode(KEY, frame).counter == 0


def test_three_presses_strictly_consecutive():
    # Decode-and-compare oracle over a press run.
    fob = make_fob(counter=100)
    counters = []
    for i in range(3):
        fob, frame = press(fob, Instruction.UNLOCK, now=i * 1000)
        counters.append(decode(KEY, frame).counter)
    assert counters == [101, 102, 103]


def test_press_is_pure_value_semantics():
    fob = make_fob(counter=5)
    press(fob, Instruction.UNLOCK, now=0)
    assert fob.counter == 5  # original untouched


def test_battery_loss_desyncs_from_receiver():
    # After a counter reset the next press is stale for a synced receiver.
    policy = ReceiverPolicy()
    state = new_receiver_state(policy, MASTER)
    register_fob(state, 3, KEY, 500)
    fob = FobState(serial=3, key=KEY, counter=0)
    fob, frame = press(fob, Instruction.UNLOCK, now=0)
    assert decode(KEY, frame).counter == 1
    action = receive(state, policy, frame, 0)
    assert action.kind is ActionKind.DISCARDED
    assert action.reason == "replay"


def test_timestamp_embedding_with_skew():
    fob = make_fob(counter=0, emit_timestamps=True, clock_skew_ms=250)
    _, frame = press(fob, Instruction.UNLOCK, now=10_000)
    payload = decode(KEY, frame)
    assert payload.timestamp == 10_250
    assert payload.signature is not None
