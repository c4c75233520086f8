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
a time, keyed by receiver state alone: the prefixes of a depth that
leave an equal state share it, grouped by their last capture, and the
state replays each capture above their smallest last index once, on a
copy, on behalf of every prefix that ends below that capture.  A
single replay has no gap, so the singles are replayed once per start
and every gap walk goes on from copies of the states they leave.
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

    For each of the ``2^counter_bits`` starting counters, replays the
    ``transcript_len`` single captures once, recorded at the first probe
    only (a single replay has no gap).  Then, for each probe gap, walks
    the tree of ascending index sequences one depth at a time from
    copies of the states the singles left.  Each distinct receiver state
    of a depth replays each capture above the smallest last index of
    the prefixes that reach it once, for all of them, so a gap walk
    makes at most ``2^transcript_len - 1 - transcript_len`` receive()
    calls, and one per capture and depth where every replay leaves one
    state.

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
    start = probe.transcript_end + _EXPLOIT_DELAY_MS
    success_gaps: dict[tuple[int, ...], set[int]] = {}
    # A single replay has no gap: the singles are replayed once, at start,
    # and recorded at the first gap only.  Every gap walk goes on from
    # copies of the depth-1 frontier they leave.
    root = [(probe.fresh_state(), {-1: [()]})]
    singles = _expand(probe, root, start, gap_probes_ms[0], success_gaps)
    for gap in gap_probes_ms:
        frontier = [(state.clone(), groups) for state, groups in singles]
        now = start
        while frontier:
            now += gap
            frontier = _expand(probe, frontier, now, gap, success_gaps)
    return success_gaps


def _expand(probe: _Probe, frontier: list, now: int, gap: int, success_gaps: dict) -> list:
    """Replay one more capture on every frontier node, all at ``now``.

    A node is one distinct receiver state with the prefixes that reach
    it, grouped by last index.  Nodes of a depth replay at the same time
    and states with equal keys answer every later frame alike, so each
    state replays each capture above its smallest last index once, for
    every prefix whose last index is below that capture.
    """
    captures, policy = probe.captures, probe.policy
    last = len(captures) - 1
    merged: dict[tuple, tuple[ReceiverState, dict[int, list]]] = {}
    for state, groups in frontier:
        usable = []  # references to the prefix groups this capture extends
        for idx in range(min(groups) + 1, last + 1):
            if idx - 1 in groups:
                usable.append(groups[idx - 1])
            # The last child is a leaf and the parent needs its state no
            # longer, so it replays on that state instead of a copy.
            child = state if idx == last else state.clone()
            receive(child, policy, captures[idx], now)
            unlocked = child.door is _UNLOCKED
            if unlocked or idx != last:
                extended = [prefix + (idx,) for group in usable for prefix in group]
            if unlocked:
                for indices in extended:
                    success_gaps.setdefault(indices, set()).add(gap)
            if idx != last:
                child_groups = merged.setdefault(child.key(), (child, {}))[1]
                group = child_groups.setdefault(idx, extended)
                if group is not extended:
                    group += extended
    return list(merged.values())


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
