import pytest
from hypothesis import example, given, settings, strategies as st

from rkesim import fob as fob_module
from rkesim.codebook import (
    COUNTER_MOD,
    Instruction,
    Payload,
    decode,
    derive_key,
    discrimination_for,
    encode,
    master_from_seed,
    timestamp_tag,
)
from rkesim.fob import FobState, press
from rkesim.receiver import (
    ActionKind,
    FobRecord,
    ReceiverPolicy,
    new_receiver_state,
    receive,
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


def test_press_leaves_its_input_state_unchanged():
    fob = make_fob(counter=5, clock_skew_ms=-30, emit_timestamps=True)
    press(fob, Instruction.LOCK, now=1000)
    assert fob == make_fob(counter=5, clock_skew_ms=-30, emit_timestamps=True)
    assert (fob.serial, fob.key, fob.counter, fob.clock_skew_ms, fob.emit_timestamps) == (
        3, KEY, 5, -30, True)


def test_battery_loss_desyncs_from_receiver():
    # After a counter reset the next press is stale for a synced receiver.
    policy = ReceiverPolicy()
    state = new_receiver_state(policy, MASTER)
    state.fobs[3] = FobRecord(KEY, 500)
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


@given(
    counter=st.integers(0, COUNTER_MOD - 1),
    button=st.sampled_from([*Instruction, *(instruction.value for instruction in Instruction)]),
    stamped=st.booleans(),
    skew=st.integers(-1000, 1000),
    now=st.integers(1000, 1 << 40),
)
@example(counter=5, button="unlock", stamped=True, skew=0, now=1000)
@settings(max_examples=200, deadline=None)
def test_warm_press_equals_a_cold_one_and_the_frame_built_by_hand(
        counter, button, stamped, skew, now, fresh_process):
    fob = make_fob(counter, clock_skew_ms=skew, emit_timestamps=stamped)
    fresh_process()
    cold = press(fob, button, now)
    warm = press(fob, button, now)
    assert fob_module._frame.cache_info()[:2] == (1, 1)  # (hits, misses)
    counter = (counter + 1) % COUNTER_MOD
    timestamp = now + skew if stamped else None
    signature = None if timestamp is None else timestamp_tag(KEY, 3, timestamp)
    by_hand = encode(KEY, 3, Payload(counter, button, discrimination_for(KEY, 3),
                                     timestamp, signature))
    assert warm == cold == (fob._replace(counter=counter), by_hand)
    # A float ``now`` and a str button each take their own entry, and the
    # path a cold press takes: a float cannot be signed, and a str button
    # still decodes as an Instruction.
    if stamped:
        with pytest.raises(AttributeError):
            press(fob, button, float(now))
    else:
        assert press(fob, button, float(now)) == cold
    other = button.value if isinstance(button, Instruction) else Instruction(button)
    misses = fob_module._frame.cache_info().misses
    assert press(fob, other, now)[1] == cold[1]
    assert fob_module._frame.cache_info().misses == misses + 1
    assert decode(KEY, cold[1]).button is Instruction(button)
