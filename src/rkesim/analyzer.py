"""Black-box policy classification.

Both judges below replay one captured history, a ``Transcript``: the
legitimate presses of a synthetic fob, heard by a fresh receiver of the
policy and captured on the air.  ``Transcript.heard_by`` returns the
captures and that receiver, door locked, ready for the replays.

``classify`` treats a receiver policy as a sealed unit: over a
transcript of 2 * max_signals presses it probes replay sequences of
growing length, two shapes (a consecutive run and an ascending run with
gaps) and a grid of inter-replay gaps.  The verdict is either
NotVulnerable or the minimal working variant (#signals, sequence mode,
timeframe).  Each shape keeps one receiver at the smallest grid gap and
replays one more capture on it per length step, through ``receive()``:
passing gaps form a down-set, so that gap decides each length, and at
the first passing length only the witness's shape bisects the grid.
Both shapes open with the same single replay, so it is replayed once,
through ``execute_exploit``, and the receivers are cloned after it.

``exhaustive_search`` is the independent oracle: over small bounds it
tries every ascending subsequence of one transcript at every probe
gap, driving the receiver directly, and returns the subset-minimal
successful sequences.  The two must agree.  The subsequences form a
tree in which each node extends its parent's prefix by one later
capture.  The oracle walks that tree one depth at a time, keyed by
receiver state alone: the prefixes of a depth that leave an equal
state share it, grouped by their last capture, and the state replays
each capture above their smallest last index once, on a copy, on
behalf of every prefix that ends below that capture.  A single replay
has no gap, so the singles are replayed once, recorded at every gap,
and every gap walk goes on from copies of the states they leave.  The
receiver compares counters only as differences mod 2^16, so the
transcript from counter 0 stands for the transcript from every start.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .attacks import ExploitSpec, execute_exploit
from .codebook import COUNTER_MOD, Instruction, Transmission, derive_key, master_from_seed
from .fob import FobState, press
from .receiver import (
    Door,
    FobRecord,
    ReceiverPolicy,
    ReceiverState,
    SequenceMode,
    new_receiver_state,
    receive,
)

UNBOUNDED_GAP_MS = 10**9
DEFAULT_GAP_PROBES_MS = tuple(range(1000, 10001, 1000)) + (UNBOUNDED_GAP_MS,)

_PROBE_SEED = 0x5EED
_PROBE_SERIAL = 101
_PROBE_MASTER = master_from_seed(_PROBE_SEED)
_PROBE_KEY = derive_key(_PROBE_MASTER, _PROBE_SERIAL)
_PRESS_SPACING_MS = 10_000
_EXPLOIT_DELAY_MS = 100 * 24 * 3600 * 1000  # replays start 100 days later
_UNLOCKED = Door.UNLOCKED  # an enum member read is slow on 3.11; see receiver


class SearchBoundsError(Exception):
    """Requested exhaustive search exceeds the supported bounds."""


# The probe transcript holds 2 * max_signals presses.  Past half the
# counter ring the earliest captures are no longer behind the receiver
# but ahead of it, so their "replays" would land as future codes.
MAX_PROBE_SIGNALS = COUNTER_MOD // 4


@dataclass(frozen=True)
class ProbeBudget:
    max_signals: int = 6
    gap_probes_ms: tuple[int, ...] = DEFAULT_GAP_PROBES_MS

    def __post_init__(self) -> None:
        if not 2 <= self.max_signals <= MAX_PROBE_SIGNALS:
            raise ValueError("max_signals must be between 2 and %d" % MAX_PROBE_SIGNALS)
        _check_gap_probes(self.gap_probes_ms)


def _check_gap_probes(gap_probes_ms: tuple[int, ...]) -> None:
    if not gap_probes_ms:
        raise ValueError("at least one gap probe is required")
    if list(gap_probes_ms) != sorted(gap_probes_ms):
        raise ValueError("gap probes must be sorted ascending")
    if len(set(gap_probes_ms)) != len(gap_probes_ms):
        raise ValueError("gap probes must not repeat")
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
        frame = "⊗" if self.timeframe_ms is None else "%g" % (self.timeframe_ms / 1000)
        return "RollBack^%s_%s(%d)" % (
            self.sequence.value.capitalize(),
            frame,
            self.signals,
        )


@dataclass(frozen=True)
class OracleFinding:
    """One subset-minimal successful replay sequence from the oracle."""

    indices: tuple[int, ...]
    counter_steps: tuple[int, ...]   # counter deltas between replayed frames
    passing_gaps: tuple[int, ...]


@dataclass(frozen=True)
class Transcript:
    """The history both judges replay: ``length`` UNLOCK presses of the
    probe fob, ``_PRESS_SPACING_MS`` apart, from counter 0 on.  The frames
    carry a timestamp when the policy that hears them checks one."""

    length: int

    @property
    def replay_start(self) -> int:
        return self.length * _PRESS_SPACING_MS + _EXPLOIT_DELAY_MS

    def heard_by(self, policy: ReceiverPolicy) -> tuple[list[Transmission], ReceiverState]:
        """The captures, and the receiver after them with its door locked."""
        stamped = policy.timestamp_check is not None
        fob = FobState(_PROBE_SERIAL, _PROBE_KEY, 0, emit_timestamps=stamped)
        state = new_receiver_state(policy, _PROBE_MASTER)
        state.fobs[_PROBE_SERIAL] = FobRecord(_PROBE_KEY, 0)
        captures = []
        for i in range(1, self.length + 1):
            now = i * _PRESS_SPACING_MS
            fob, transmission = press(fob, Instruction.UNLOCK, now)
            receive(state, policy, transmission, now)
            captures.append(transmission)
        state.door = Door.LOCKED  # vehicle parked and locked before the replay
        return captures, state


def classify(policy: ReceiverPolicy, budget: ProbeBudget = ProbeBudget()) -> VariantSignature:
    """Search replay space for the minimal working attack on a policy.

    Probes sequence lengths from 2 up to the budget, refines the first
    success by shape (consecutive vs gapped) and by the largest passing
    replay gap.  A policy surviving the whole budget is NotVulnerable.

    Each shape carries one receiver at the smallest grid gap: step k
    replays the k-th capture of its run onto the state step k-1 left,
    as a fresh length-k replay at that gap would.  Time enters a replay
    only through the stale-timestamp discard and the rollback pace
    break, each firing at every gap above one it fires at, so passing
    gaps form a down-set and the smallest gap decides each length.  At
    the first passing length, the witness's shape bisects the grid for
    its largest passing gap; a probe replays the run after capture 0 on
    a fresh clone of the receiver step 1 left.  Step 1, the single
    replay of capture 0 that opens both shapes, goes once through
    ``execute_exploit``, unjudged; the later steps call ``receive()``.
    """
    gaps = budget.gap_probes_ms
    transcript = Transcript(2 * budget.max_signals)
    start = transcript.replay_start
    captures, first = transcript.heard_by(policy)
    execute_exploit(ExploitSpec(signal_indices=(0,)), captures, first, policy, start)
    shapes = [(1, first.clone()), (2, first.clone())]  # (index stride, carried receiver)

    for k in range(2, budget.max_signals + 1):
        for stride, carried in shapes:
            receive(carried, policy, captures[stride * (k - 1)], start + (k - 1) * gaps[0])
        passed = [stride for stride, carried in shapes if carried.door is _UNLOCKED]
        if not passed:
            continue
        # The gapped shape is the witness when it passes, and only its gaps
        # are bisected.  A gapped run passes only under loose rollback, and
        # there it passes at every gap the consecutive run passes: both
        # replay at the same times in ascending counter order, and each
        # gapped capture's timestamp is the fresher.
        stride = max(passed)
        lo, hi = 0, len(gaps)  # the run passes at gaps[lo] and fails at gaps[hi], if any
        while hi - lo > 1:
            mid = (lo + hi) // 2
            probe = first.clone()
            for step in range(1, k):
                receive(probe, policy, captures[stride * step], start + step * gaps[mid])
            if probe.door is _UNLOCKED:
                lo = mid
            else:
                hi = mid
        timeframe_ms, incomplete = _timeframe_from_gaps(list(gaps[:lo + 1]), gaps)
        return VariantSignature(
            vulnerable=True,
            signals=k,
            sequence=SequenceMode.LOOSE if stride == 2 else SequenceMode.STRICT,
            timeframe_ms=timeframe_ms,
            incomplete=incomplete,
            witness_indices=tuple(range(0, stride * k, stride)),
            witness_gap_ms=gaps[lo],
        )
    return VariantSignature(vulnerable=False)


def _timeframe_from_gaps(
    passing: list[int], gaps: tuple[int, ...]
) -> tuple[int | None, bool]:
    """Reported timeframe: largest passing probe gap, or unbounded.

    Only a pass at the ``UNBOUNDED_GAP_MS`` probe and every one above it
    reads as unbounded.  When no failing probe but that one lies above the
    largest passing one, the bound lies beyond the grid: incomplete.
    """
    if UNBOUNDED_GAP_MS in passing and all(g in passing for g in gaps if g > UNBOUNDED_GAP_MS):
        return None, False
    best = max(passing)
    return best, not any(g > best and g != UNBOUNDED_GAP_MS for g in gaps)


def exhaustive_search(
    policy: ReceiverPolicy,
    counter_bits: int,
    transcript_len: int,
    gap_probes_ms: tuple[int, ...] = DEFAULT_GAP_PROBES_MS,
) -> list[OracleFinding]:
    """Try every replay subsequence of the transcript from counter 0.

    Replays the ``transcript_len`` single captures once and records each
    that unlocks at every probe gap (a single replay has no gap).  Then,
    for each probe gap, walks the tree of ascending index sequences one
    depth at a time from copies of the states the singles left.  Each
    distinct receiver state of a depth replays each capture above the
    smallest last index of the prefixes that reach it once, for all of
    them, so a gap walk makes at most ``2^transcript_len - 1 -
    transcript_len`` receive() calls, and one per capture and depth
    where every replay leaves one state.

    Returns the subset-minimal successful sequences (by capture index),
    shortest first, each with the full set of passing probe gaps.

    ``counter_bits`` bounds the starting counters the search stands for,
    ``2^counter_bits`` of them, but the result does not depend on it:
    the transcript from any start is start 0's with every counter moved
    by that start, mod 2^16, and ``receive()`` answers translated frames
    on translated states alike.  Start 0 stands for every start, as
    three tests check, each hearing the other starts itself: receive()
    is equivariant under translating every counter, the success sets
    are invariant across the counter wrap, and a brute-force reference
    that hears every start agrees.
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
    transcript = Transcript(transcript_len)
    captures, heard = transcript.heard_by(policy)
    success_gaps = _probe_successes(policy, captures, heard, transcript.replay_start, gap_probes_ms)
    findings: list[OracleFinding] = []
    for indices in sorted(success_gaps, key=lambda seq: (len(seq), seq)):
        members = set(indices)
        if not any(set(found.indices) <= members for found in findings):
            steps = tuple(b - a for a, b in itertools.pairwise(indices))
            findings.append(OracleFinding(indices, steps, tuple(sorted(success_gaps[indices]))))
    return findings


def _probe_successes(
    policy: ReceiverPolicy, captures: list[Transmission], heard: ReceiverState, start: int,
    gap_probes_ms: tuple[int, ...],
) -> dict[tuple[int, ...], set[int]]:
    """Unlocking index sequences of ``captures``, each with its passing
    gaps, replayed from ``start`` on ``heard``, the receiver that heard
    them; the walk replays on ``heard`` itself, not on a copy."""
    # Drives the receiver straight through receive(); deliberately does
    # not share the execute_exploit code path it is meant to check.
    success_gaps: dict[tuple[int, ...], set[int]] = {}
    # A single replay has no gap: the singles are replayed once, at start,
    # and each that unlocks passes at every gap.  Every gap walk goes on
    # from copies of the depth-1 frontier they leave.
    root = [(heard, {-1: [()]})]
    singles = _expand(policy, captures, root, start, gap_probes_ms[0], success_gaps)
    for passing in success_gaps.values():
        passing.update(gap_probes_ms)
    for gap in gap_probes_ms:
        frontier = [(state.clone(), groups) for state, groups in singles]
        now = start
        while frontier:
            now += gap
            frontier = _expand(policy, captures, frontier, now, gap, success_gaps)
    return success_gaps


def _expand(
    policy: ReceiverPolicy, captures: list, frontier: list, now: int, gap: int, success_gaps: dict
) -> list:
    """Replay one more capture on every frontier node, all at ``now``.

    A node is one distinct receiver state with the prefixes that reach
    it, grouped by last index.  Nodes of a depth replay at the same time
    and states with equal keys answer every later frame alike, so each
    state replays each capture above its smallest last index once, for
    every prefix whose last index is below that capture.
    """
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
