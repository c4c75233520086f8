"""Black-box policy classification.

``classify`` treats a receiver policy as a sealed unit: it synthesizes
a fob, feeds the receiver a transcript of legitimate presses, then
probes replay sequences of growing length, two shapes (a consecutive
run and an ascending run with gaps) and a grid of inter-replay gaps.
The verdict is either NotVulnerable or the minimal working variant
(#signals, sequence mode, timeframe).  The length-k run of a shape is
its length-(k-1) run plus one capture, so each (shape, gap) probe keeps
one receiver and replays one more capture per length step, straight
through ``receive()``.  Both shapes open with the same single replay, so
it is replayed once, through ``execute_exploit``, and the probes are
cloned after it.

``exhaustive_search`` is the independent oracle: over small bounds it
tries every ascending subsequence of the transcript at every probe gap
and every starting counter, driving the receiver directly, and returns
the subset-minimal successful sequences.  The two must agree.  The
subsequences form a tree in which each node extends its parent's
prefix by one later capture.  The oracle walks that tree one depth at
a time, replaying one frame per node on a copy of the state its parent
left, and merges the nodes of a depth that reach an equal receiver
state with the same last capture: their subtrees are identical, so
each is replayed once on behalf of every prefix that reaches it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .attacks import ExploitSpec, execute_exploit
from .codebook import Instruction, Transmission, derive_key, master_from_seed
from .fob import FobState, press
from .receiver import (
    Door,
    ReceiverPolicy,
    ReceiverState,
    SequenceMode,
    new_receiver_state,
    receive,
    register_fob,
)

UNBOUNDED_GAP_MS = 10**9
DEFAULT_GAP_PROBES_MS = tuple(range(1000, 10001, 1000)) + (UNBOUNDED_GAP_MS,)

_PROBE_SEED = 0x5EED
_PROBE_SERIAL = 101
_PRESS_SPACING_MS = 10_000
_EXPLOIT_DELAY_MS = 100 * 24 * 3600 * 1000  # replays start 100 days later
_UNLOCKED = Door.UNLOCKED  # an enum member read is slow on 3.11; see receiver


class SearchBoundsError(Exception):
    """Requested exhaustive search exceeds the supported bounds."""


@dataclass(frozen=True)
class ProbeBudget:
    max_signals: int = 6
    gap_probes_ms: tuple[int, ...] = DEFAULT_GAP_PROBES_MS

    def __post_init__(self) -> None:
        if self.max_signals < 2:
            raise ValueError("max_signals must be at least 2")
        _check_gap_probes(self.gap_probes_ms)


def _check_gap_probes(gap_probes_ms: tuple[int, ...]) -> None:
    # The last probe is read as the unbounded sentinel, so order matters.
    if not gap_probes_ms:
        raise ValueError("at least one gap probe is required")
    if list(gap_probes_ms) != sorted(gap_probes_ms):
        raise ValueError("gap probes must be sorted ascending")
    if gap_probes_ms[0] <= 0:
        raise ValueError("gap probes must be positive")


@dataclass(frozen=True)
class VariantSignature:
    """Classifier verdict; ``notation`` renders the conventional name."""

    vulnerable: bool
    signals: int | None = None
    sequence: SequenceMode | None = None
    timeframe_ms: int | None = None
    incomplete: bool = False
    witness_indices: tuple[int, ...] | None = None
    witness_gap_ms: int | None = None

    def notation(self) -> str:
        if not self.vulnerable:
            return "NOT VULNERABLE"
        frame = "⊗" if self.timeframe_ms is None else _render_seconds(self.timeframe_ms)
        return "RollBack^%s_%s(%d)" % (
            self.sequence.value.capitalize(),
            frame,
            self.signals,
        )


def _render_seconds(ms: int) -> str:
    seconds = ms / 1000
    return "%g" % seconds


@dataclass(frozen=True)
class OracleFinding:
    """One subset-minimal successful replay sequence from the oracle."""

    indices: tuple[int, ...]
    counter_steps: tuple[int, ...]   # counter deltas between replayed frames
    passing_gaps: tuple[int, ...]


class _Probe:
    """Synthetic fob + receiver pair with a captured press transcript."""

    def __init__(self, policy: ReceiverPolicy, transcript_len: int, start_counter: int = 0):
        master = master_from_seed(_PROBE_SEED)
        key = derive_key(master, _PROBE_SERIAL)
        fob = FobState(
            serial=_PROBE_SERIAL,
            key=key,
            counter=start_counter,
            emit_timestamps=policy.timestamp_check is not None,
        )
        state = new_receiver_state(policy, master)
        register_fob(state, _PROBE_SERIAL, key, start_counter)
        self.policy = policy
        self.captures: list[Transmission] = []
        now = 0
        for _ in range(transcript_len):
            now += _PRESS_SPACING_MS
            fob, transmission = press(fob, Instruction.UNLOCK, now)
            receive(state, policy, transmission, now)
            self.captures.append(transmission)
        self.base_state = state
        self.transcript_end = now

    def fresh_state(self) -> ReceiverState:
        state = self.base_state.clone()
        state.door = Door.LOCKED  # vehicle parked and locked before the replay
        return state


def classify(policy: ReceiverPolicy, budget: ProbeBudget = ProbeBudget()) -> VariantSignature:
    """Search replay space for the minimal working attack on a policy.

    Probes sequence lengths from 2 up to the budget, refines the first
    success by shape (consecutive vs gapped) and by the largest passing
    replay gap.  A policy surviving the whole budget is NotVulnerable.

    Each (shape, gap) probe owns one receiver: step k replays the k-th
    capture of its run onto the state step k-1 left, the same frames at
    the same times a fresh length-k replay would deliver.  The search
    stops at the first passing length, so no probe carries a success
    forward.  Step 1, the single replay of capture 0 that opens both
    shapes, goes once through ``execute_exploit``, unjudged, before the
    probes are cloned; the later steps call ``receive()`` directly.
    """
    gaps = budget.gap_probes_ms
    probe = _Probe(policy, transcript_len=2 * budget.max_signals)
    first = probe.fresh_state()
    execute_exploit(
        ExploitSpec(signal_indices=(0,)),
        probe.captures,
        first,
        policy,
        probe.transcript_end + _EXPLOIT_DELAY_MS,
    )
    consecutive_states = [first.clone() for _ in gaps]
    gapped_states = [first.clone() for _ in gaps]

    for k in range(2, budget.max_signals + 1):
        consecutive = tuple(range(k))
        gapped = tuple(range(0, 2 * k, 2))
        consecutive_pass = _replay_next(probe, consecutive_states, gaps, consecutive)
        gapped_pass = _replay_next(probe, gapped_states, gaps, gapped)
        if not consecutive_pass and not gapped_pass:
            continue
        sequence = SequenceMode.LOOSE if gapped_pass else SequenceMode.STRICT
        passing = sorted(set(consecutive_pass) | set(gapped_pass))
        timeframe_ms, incomplete = _timeframe_from_gaps(passing, gaps)
        witness = gapped if gapped_pass else consecutive
        witness_gap = max(gapped_pass) if gapped_pass else max(consecutive_pass)
        return VariantSignature(
            vulnerable=True,
            signals=k,
            sequence=sequence,
            timeframe_ms=timeframe_ms,
            incomplete=incomplete,
            witness_indices=witness,
            witness_gap_ms=witness_gap,
        )
    return VariantSignature(vulnerable=False)


def _replay_next(
    probe: _Probe,
    states: list[ReceiverState],
    gaps: tuple[int, ...],
    run: tuple[int, ...],
) -> list[int]:
    """Replay the last capture of ``run`` on each gap's receiver, in turn.

    Every receiver already holds the rest of the run, replayed at its gap,
    so the last capture goes straight to ``receive()`` at the time a
    whole-run replay at that gap delivers it.  Returns the gaps whose door
    is unlocked after the whole run.
    """
    frame = probe.captures[run[-1]]
    start = probe.transcript_end + _EXPLOIT_DELAY_MS
    passing = []
    for gap, state in zip(gaps, states):
        receive(state, probe.policy, frame, start + (len(run) - 1) * gap)
        if state.door is _UNLOCKED:
            passing.append(gap)
    return passing


def _timeframe_from_gaps(
    passing: list[int], gaps: tuple[int, ...]
) -> tuple[int | None, bool]:
    """Reported timeframe: largest passing probe gap, or unbounded.

    When every finite probe passes but the unbounded sentinel fails, the
    true bound lies beyond the grid; the signature is flagged incomplete.
    """
    if passing and passing[-1] == gaps[-1]:
        return None, False
    finite = [g for g in gaps if g != gaps[-1]]
    best = max(passing)
    boundary_seen = any(g > best for g in finite)
    return best, not boundary_seen


def exhaustive_search(
    policy: ReceiverPolicy,
    counter_bits: int,
    transcript_len: int,
    gap_probes_ms: tuple[int, ...] = DEFAULT_GAP_PROBES_MS,
) -> list[OracleFinding]:
    """Try every replay subsequence over every starting counter.

    For each of the ``2^counter_bits`` starting counters and each probe
    gap, walks the tree of ascending index sequences one depth at a
    time: a node replays one more capture on a copy of the receiver its
    parent prefix left, and nodes with an equal receiver state and last
    index are merged, so a walk costs one receive() call per distinct
    node, at most ``2^transcript_len - 1``.  A single replay has no gap
    and is recorded at the first probe only.

    Returns the subset-minimal successful sequences (by capture index),
    each with the full set of passing probe gaps.  The successes of all
    starting counters are merged by union: a sequence counts if it
    unlocks at any start, at the union of the gaps where it does.
    """
    if counter_bits < 0:
        raise ValueError("counter_bits must not be negative")
    if transcript_len < 1:
        raise ValueError("transcript_len must be at least 1")
    _check_gap_probes(gap_probes_ms)
    if counter_bits > 8 or transcript_len > 8:
        n = transcript_len
        raise SearchBoundsError(
            "bounds exceeded: %d candidate replays"
            % ((1 << counter_bits) * (n + ((1 << n) - 1 - n) * len(gap_probes_ms)))
        )
    success_gaps: dict[tuple[int, ...], set[int]] = {}
    for start_counter in range(1 << counter_bits):
        probe = _Probe(policy, transcript_len, start_counter=start_counter)
        for indices, gaps in _probe_successes(probe, gap_probes_ms).items():
            success_gaps.setdefault(indices, set()).update(gaps)
    findings = []
    minimal = _subset_minimal(list(success_gaps))
    for indices in sorted(minimal, key=lambda seq: (len(seq), seq)):
        steps = tuple(b - a for a, b in itertools.pairwise(indices))
        gaps = tuple(sorted(success_gaps[indices]))
        if len(indices) == 1:
            gaps = tuple(gap_probes_ms)  # gap is meaningless for one replay
        findings.append(
            OracleFinding(indices=indices, counter_steps=steps, passing_gaps=gaps)
        )
    return findings


def _probe_successes(
    probe: _Probe, gap_probes_ms: tuple[int, ...]
) -> dict[tuple[int, ...], set[int]]:
    """Unlocking index sequences of one probe, each with its passing gaps."""
    # Drives the receiver straight through receive(); deliberately does
    # not share the execute_exploit code path it is meant to check.
    captures = probe.captures
    last = len(captures) - 1
    start = probe.transcript_end + _EXPLOIT_DELAY_MS
    success_gaps: dict[tuple[int, ...], set[int]] = {}
    for gap in gap_probes_ms:
        # One depth at a time: every node at depth d replays at
        # start + d*gap, and receive() is deterministic, so nodes with an
        # equal receiver state and last index have equal subtrees.  Each
        # such node is replayed once, with every prefix that reaches it.
        # Frontier nodes: (receiver state, last index, prefixes).
        frontier = [(probe.fresh_state(), -1, [()])]
        now = start
        while frontier:
            # A single replay has no gap: it is recorded at the first only.
            judged = now != start or gap == gap_probes_ms[0]
            merged: dict[tuple, tuple[ReceiverState, int, list]] = {}
            for state, prev, prefixes in frontier:
                for idx in range(prev + 1, last + 1):
                    # The last child is a leaf and the parent needs its state
                    # no longer, so it replays on that state instead of a copy.
                    child = state if idx == last else state.clone()
                    receive(child, probe.policy, captures[idx], now)
                    if judged and child.door is _UNLOCKED:
                        for prefix in prefixes:
                            success_gaps.setdefault(prefix + (idx,), set()).add(gap)
                    if idx != last:
                        extended = [prefix + (idx,) for prefix in prefixes]
                        node = merged.setdefault((child.key(), idx), (child, idx, extended))
                        if node[0] is not child:
                            node[2].extend(extended)
            frontier = list(merged.values())
            now += gap
    return success_gaps


def _subset_minimal(sequences: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    ordered = sorted(sequences, key=len)
    minimal: list[tuple[int, ...]] = []
    for candidate in ordered:
        candidate_set = set(candidate)
        if not any(set(kept) <= candidate_set for kept in minimal):
            minimal.append(candidate)
    return minimal


def signature_from_findings(
    findings: list[OracleFinding],
    gap_probes_ms: tuple[int, ...] = DEFAULT_GAP_PROBES_MS,
) -> VariantSignature:
    """Collapse oracle findings into the signature they imply."""
    _check_gap_probes(gap_probes_ms)
    if not findings:
        return VariantSignature(vulnerable=False)
    signals = min(len(f.indices) for f in findings)
    shortest = [f for f in findings if len(f.indices) == signals]
    loose = any(any(step != 1 for step in f.counter_steps) for f in shortest)
    passing = sorted({gap for f in shortest for gap in f.passing_gaps})
    timeframe_ms, incomplete = _timeframe_from_gaps(passing, gap_probes_ms)
    return VariantSignature(
        vulnerable=True,
        signals=signals,
        sequence=SequenceMode.LOOSE if loose else SequenceMode.STRICT,
        timeframe_ms=timeframe_ms,
        incomplete=incomplete,
    )
