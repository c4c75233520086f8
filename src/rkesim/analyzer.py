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
timeframe).  The length-k run of a shape is its length-(k-1) run plus
one capture, so each (shape, gap) probe keeps one receiver and replays
one more capture per length step, straight through ``receive()``.  Both
shapes open with the same single replay, so it is replayed once,
through ``execute_exploit``, and the probes are cloned after it.

``exhaustive_search`` is the independent oracle: over small bounds it
tries every ascending subsequence of one transcript per starting
counter at every probe gap, driving the receiver directly, and returns
the subset-minimal successful sequences.  The two must agree.  The
subsequences form a tree in which each node extends its parent's
prefix by one later capture.  The oracle walks that tree one depth at
a time, keyed by receiver state alone: the prefixes of a depth that
leave an equal state share it, grouped by their last capture, and the
state replays each capture above their smallest last index once, on a
copy, on behalf of every prefix that ends below that capture.  A
single replay has no gap, so the singles are replayed once per start
and every gap walk goes on from copies of the states they leave.  The
starts are independent, so the oracle splits them across up to one
forked worker per CPU and merges their successes by union: the same
result as one process searching every start.
"""

from __future__ import annotations

import io
import itertools
import marshal
import os
import threading
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
    probe fob, ``_PRESS_SPACING_MS`` apart, from ``start_counter`` on.
    The frames carry a timestamp when the policy that hears them checks one."""

    length: int
    start_counter: int = 0

    @property
    def replay_start(self) -> int:
        return self.length * _PRESS_SPACING_MS + _EXPLOIT_DELAY_MS

    def heard_by(self, policy: ReceiverPolicy) -> tuple[list[Transmission], ReceiverState]:
        """The captures, and the receiver after them with its door locked."""
        stamped = policy.timestamp_check is not None
        fob = FobState(_PROBE_SERIAL, _PROBE_KEY, self.start_counter, emit_timestamps=stamped)
        state = new_receiver_state(policy, _PROBE_MASTER)
        state.fobs[_PROBE_SERIAL] = FobRecord(_PROBE_KEY, self.start_counter)
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

    Each (shape, gap) probe owns one receiver: step k replays the k-th
    capture of its run onto the state step k-1 left, the same frames at
    the same times a fresh length-k replay would deliver.  The search
    stops at the first passing length, so no probe carries a success
    forward.  Step 1, the single replay of capture 0 that opens both
    shapes, goes once through ``execute_exploit``, unjudged, before the
    probes are cloned; the later steps call ``receive()`` directly.
    """
    gaps = budget.gap_probes_ms
    transcript = Transcript(2 * budget.max_signals)
    start = transcript.replay_start
    captures, first = transcript.heard_by(policy)
    execute_exploit(ExploitSpec(signal_indices=(0,)), captures, first, policy, start)
    consecutive_states = {gap: first.clone() for gap in gaps}
    gapped_states = {gap: first.clone() for gap in gaps}

    for k in range(2, budget.max_signals + 1):
        consecutive = tuple(range(k))
        gapped = tuple(range(0, 2 * k, 2))
        consecutive_pass = _replay_next(policy, captures, start, consecutive_states, consecutive)
        gapped_pass = _replay_next(policy, captures, start, gapped_states, gapped)
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
    policy: ReceiverPolicy, captures: list[Transmission], start: int, states: dict, run: tuple
) -> list[int]:
    """Replay the last capture of ``run`` on each gap's receiver, in turn.

    Every receiver already holds the rest of the run, replayed at its gap,
    so the last capture goes straight to ``receive()`` at the time a
    whole-run replay at that gap delivers it.  Returns the gaps whose door
    is unlocked after the whole run.
    """
    frame = captures[run[-1]]
    passing = []
    for gap, state in states.items():
        receive(state, policy, frame, start + (len(run) - 1) * gap)
        if state.door is _UNLOCKED:
            passing.append(gap)
    return passing


def _timeframe_from_gaps(
    passing: list[int], gaps: tuple[int, ...]
) -> tuple[int | None, bool]:
    """Reported timeframe: largest passing probe gap, or unbounded.

    Only a pass at the ``UNBOUNDED_GAP_MS`` probe reads as unbounded.
    When no failing probe lies above the largest passing one, the true
    bound lies beyond the grid; the signature is flagged incomplete.
    """
    if UNBOUNDED_GAP_MS in passing:
        return None, False
    best = max(passing)
    return best, not any(g > best and g != UNBOUNDED_GAP_MS for g in gaps)


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

    The starts are split across up to one process per CPU this process
    may run on: it searches ``starts[0::workers]`` itself and forks a
    worker for each other slice.  The union does not depend on the
    split, so the result is the same as on one process.
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
    starts = range(1 << counter_bits)
    workers = _worker_count(len(starts))
    if workers == 1:
        success_gaps = _slice_successes(policy, transcript_len, gap_probes_ms, starts)
    else:
        success_gaps = _forked_successes(policy, transcript_len, gap_probes_ms, starts, workers)
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


def _worker_count(starts: int) -> int:
    """Processes to split ``starts`` starting counters across: one per
    CPU this process may run on, at most one per start, and only one
    where ``os.fork`` is missing or another thread is alive, because a
    forked child holds a copy of this thread alone."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(starts, _usable_cpus())


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slice_successes(
    policy: ReceiverPolicy, transcript_len: int, gap_probes_ms: tuple[int, ...], starts: range
) -> dict[tuple[int, ...], set[int]]:
    """The union of the success dicts of the starting counters ``starts``."""
    success_gaps: dict[tuple[int, ...], set[int]] = {}
    for start_counter in starts:
        transcript = Transcript(transcript_len, start_counter)
        captures, heard = transcript.heard_by(policy)
        found = _probe_successes(policy, captures, heard, transcript.replay_start, gap_probes_ms)
        _union(success_gaps, found)
    return success_gaps


def _union(success_gaps: dict, found: dict) -> None:
    for indices, gaps in found.items():
        success_gaps.setdefault(indices, set()).update(gaps)


def _forked_successes(
    policy: ReceiverPolicy, transcript_len: int, gap_probes_ms: tuple[int, ...], starts: range,
    workers: int,
) -> dict[tuple[int, ...], set[int]]:
    """``_slice_successes`` of ``starts``, split into ``workers`` slices.

    Slice 0 runs here; each other slice runs in a worker forked for it,
    which sends its success dict back through a pipe and exits.  The
    dicts are merged by union in slice order.  Raises if any slice
    fails, and no worker outlives the call.
    """
    children = []  # (pid, read end of its pipe), in slice order
    try:
        for i in range(1, workers):
            part = starts[i::workers]
            read_fd, write_fd = os.pipe()
            pipe = open(read_fd, "rb")
            with open(write_fd, "wb") as sink:  # the worker's end; the parent closes its copy
                try:
                    pid = os.fork()
                except OSError:
                    pipe.close()
                    raise
                if pid == 0:  # a forked worker exits here; it never returns to the caller
                    error = _run_slice(sink, policy, transcript_len, gap_probes_ms, part)
                    os._exit(0 if error is None else 1)
            children.append((pid, pipe))
        own = io.BytesIO()
        error = _run_slice(own, policy, transcript_len, gap_probes_ms, starts[0::workers])
        if error is not None:
            raise error
        success_gaps = marshal.loads(own.getvalue())
        for i in range(1, workers):
            pid, pipe = children[0]
            payload = pipe.read()  # to EOF, which comes when the worker exits
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            pipe.close()
            if status != 0:
                raise RuntimeError(
                    "oracle worker for starts %r exited with status %d"
                    % (starts[i::workers], status)
                )
            _union(success_gaps, marshal.loads(payload))
        return success_gaps
    finally:
        for pid, pipe in children:  # left only by a failure, so only then is signal loaded
            import signal

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_slice(
    out, policy: ReceiverPolicy, transcript_len: int, gap_probes_ms: tuple[int, ...],
    starts: range,
) -> BaseException | None:
    """Search one slice of starts and write its success dict, marshalled,
    to the binary file ``out``.  Returns None, or the error that stopped
    the search after printing its traceback to stderr.  The process that
    calls ``exhaustive_search`` and every worker it forks run this."""
    try:
        marshal.dump(_slice_successes(policy, transcript_len, gap_probes_ms, starts), out)
        out.flush()
    except BaseException as error:
        import traceback  # only on failure: a search that succeeds loads no module

        traceback.print_exception(error)
        return error
    return None


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
    # and recorded at the first gap only.  Every gap walk goes on from
    # copies of the depth-1 frontier they leave.
    root = [(heard, {-1: [()]})]
    singles = _expand(policy, captures, root, start, gap_probes_ms[0], success_gaps)
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
