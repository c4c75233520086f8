import itertools

import pytest

from rkesim.channel import ATTACKER, VICTIM, transmit
from rkesim.codebook import Instruction, derive_key, master_from_seed
from rkesim.fob import FobState, press

KEY = derive_key(master_from_seed(5), 7)


def make_frame(counter=1, now=0):
    fob = FobState(serial=7, key=KEY, counter=counter - 1)
    _, frame = press(fob, Instruction.UNLOCK, now)
    return frame


# Every case of the rule: jamming x listening x sender x out_of_range x
# fob_in_attacker_range.
CASES = list(itertools.product(
    (False, True), (False, True), (VICTIM, ATTACKER), (False, True), (False, True)
))


@pytest.mark.parametrize("jamming,listening,sender,out_of_range,in_attacker_range", CASES)
def test_transmit_rule(jamming, listening, sender, out_of_range, in_attacker_range):
    # Delivery needs the band clear and the fob in range.  A listening
    # attacker captures every victim frame it hears, jammed or not, and
    # never its own replays.  A capture is appended after the earlier
    # ones and is the frame object itself, so a replay is bit-identical.
    earlier = make_frame()
    frame = make_frame(counter=2)
    captures = [earlier] if listening else None
    delivered, captured = transmit(
        jamming, captures, frame, sender, out_of_range, in_attacker_range
    )
    assert delivered == (not jamming and not out_of_range)
    assert captured == (listening and sender == VICTIM and in_attacker_range)
    if listening:
        assert captures == ([earlier, frame] if captured else [earlier])
        assert captures[-1] is (frame if captured else earlier)


def test_capture_completeness_in_range():
    log = []
    frames = [make_frame(counter=i + 1) for i in range(5)]
    for jamming, frame in zip((True, True, False, False, False), frames):
        transmit(jamming, log, frame)
    assert log == frames


def test_out_of_range_suppresses_delivery():
    log = []
    assert transmit(False, log, make_frame(), out_of_range=True) == (False, True)
    outcome = transmit(
        False, log, make_frame(counter=2), out_of_range=True, fob_in_attacker_range=False
    )
    assert outcome == (False, False)
    assert len(log) == 1


def test_byte_transparency():
    # A replayed frame is the captured object itself, bit for bit.
    log = []
    frame = make_frame()
    transmit(False, log, frame, sender=VICTIM)
    captured = log[0]
    assert captured.ciphertext == frame.ciphertext
    assert captured is frame
