from rkesim.channel import (
    ATTACKER,
    VICTIM,
    ChannelState,
    transmit,
)
from rkesim.codebook import Instruction, derive_key, master_from_seed
from rkesim.fob import FobState, press

KEY = derive_key(master_from_seed(5), 7)


def make_frame(counter=1, now=0):
    fob = FobState(serial=7, key=KEY, counter=counter - 1)
    _, frame = press(fob, Instruction.UNLOCK, now)
    return frame


def test_jamming_blocks_delivery_but_not_capture():
    channel = ChannelState()
    log = channel.captures = []
    channel.jamming_active = True
    record = transmit(channel, make_frame())
    assert not record.delivered and record.jammed and record.captured
    assert len(log) == 1


def test_passive_capture_with_jamming_off():
    channel = ChannelState()
    log = channel.captures = []
    record = transmit(channel, make_frame())
    assert record.delivered and not record.jammed and record.captured
    assert len(log) == 1


def test_toggle_consistency():
    channel = ChannelState()
    channel.captures = []
    for was_jammed in (False, True, False, True, True, False):
        channel.jamming_active = was_jammed
        record = transmit(channel, make_frame())
        assert record.jammed == was_jammed
        assert record.delivered == (not was_jammed)
        assert not (record.delivered and record.jammed)


def test_capture_completeness_in_range():
    channel = ChannelState()
    log = channel.captures = []
    frames = [make_frame(counter=i + 1) for i in range(5)]
    records = []
    channel.jamming_active = True
    for frame in frames[:2]:
        records.append(transmit(channel, frame))
    channel.jamming_active = False
    for frame in frames[2:]:
        records.append(transmit(channel, frame))
    assert log == frames
    assert [record.jammed for record in records] == [True, True, False, False, False]


def test_out_of_range_suppresses_delivery():
    channel = ChannelState()
    log = channel.captures = []
    record = transmit(channel, make_frame(), out_of_range=True)
    assert not record.delivered and record.captured
    record = transmit(
        channel, make_frame(counter=2), out_of_range=True, fob_in_attacker_range=False
    )
    assert not record.delivered and not record.captured
    assert len(log) == 1


def test_attacker_replay_not_recaptured():
    channel = ChannelState()
    log = channel.captures = []
    frame = make_frame()
    transmit(channel, frame)
    record = transmit(channel, frame, sender=ATTACKER)
    assert record.delivered and not record.captured
    assert len(log) == 1


def test_byte_transparency():
    # A replayed frame is the captured object itself, bit for bit.
    channel = ChannelState()
    log = channel.captures = []
    frame = make_frame()
    transmit(channel, frame, sender=VICTIM)
    captured = log[0]
    assert captured.ciphertext == frame.ciphertext
    assert captured is frame
