"""Deterministic simulator and analysis toolkit for rolling-code RKE systems."""

from .codebook import (
    Instruction,
    Payload,
    Transmission,
    decode,
    derive_key,
    encode,
    master_from_seed,
)
from .fob import FobState, press
from .receiver import (
    ActionKind,
    Door,
    LearnBehavior,
    ReaddMode,
    ReceiverAction,
    ReceiverPolicy,
    ReceiverState,
    RollbackProfile,
    SequenceMode,
    TimestampCheck,
    WindowClass,
    classify_window,
    enter_learn_mode,
    new_receiver_state,
    receive,
    register_fob,
)
from .channel import ChannelState, set_jamming, subscribe, transmit
from .attacks import ExploitSpec, execute_exploit
from .analyzer import (
    ProbeBudget,
    VariantSignature,
    classify,
    exhaustive_search,
    signature_from_findings,
)
from .sim import Goal, Scenario, Trace, evaluate, run

__version__ = "0.1.0"
