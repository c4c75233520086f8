import itertools

import pytest

from rkesim import analyzer, attacks, fob
from rkesim.analyzer import (
    DEFAULT_GAP_PROBES_MS,
    UNBOUNDED_GAP_MS,
    ProbeBudget,
    SearchBoundsError,
    Transcript,
    VariantSignature,
    classify,
    exhaustive_search,
    signature_from_findings,
)
from rkesim.attacks import ExploitSpec, execute_exploit
from rkesim.codebook import Instruction
from rkesim.receiver import (
    Door,
    FobRecord,
    ReceiverPolicy,
    ReceiverState,
    RollbackProfile,
    SequenceMode,
    TimestampCheck,
    new_receiver_state,
    receive,
)
from rkesim.sim import (
    AttackerDef,
    AttackerDeploy,
    AttackerExploit,
    FobDef,
    Goal,
    Scenario,
    VictimPress,
    evaluate,
    run,
)


def policy(signals=None, sequence=SequenceMode.STRICT, timeframe=None, **kwargs):
    rollback = None
    if signals is not None:
        rollback = RollbackProfile(signals, sequence, timeframe)
    return ReceiverPolicy(rollback=rollback, **kwargs)


def test_classify_loose_two_unbounded():
    signature = classify(policy(2, SequenceMode.LOOSE))
    assert signature.vulnerable
    assert signature.signals == 2
    assert signature.sequence is SequenceMode.LOOSE
    assert signature.timeframe_ms is None
    assert signature.notation() == "RollBack^Loose_⊗(2)"


def test_classify_strict_two_with_timeframe():
    signature = classify(policy(2, SequenceMode.STRICT, timeframe=5000))
    assert signature.vulnerable
    assert signature.signals == 2
    assert signature.sequence is SequenceMode.STRICT
    assert signature.timeframe_ms == 5000
    assert not signature.incomplete
    assert signature.notation() == "RollBack^Strict_5(2)"


def test_classify_strict_three_and_five():
    assert classify(policy(3)).notation() == "RollBack^Strict_⊗(3)"
    assert classify(policy(5)).notation() == "RollBack^Strict_⊗(5)"


def test_classify_secure_policy():
    signature = classify(ReceiverPolicy())
    assert not signature.vulnerable
    assert signature.notation() == "NOT VULNERABLE"


def test_classify_timestamp_mitigation_not_vulnerable():
    signature = classify(policy(2, SequenceMode.LOOSE, timestamp_check=TimestampCheck(1000)))
    assert not signature.vulnerable


def test_classify_timeframe_beyond_grid_flagged_incomplete():
    signature = classify(policy(2, SequenceMode.STRICT, timeframe=60_000))
    assert signature.vulnerable
    assert signature.timeframe_ms == 10_000  # largest probe that passed
    assert signature.incomplete


@pytest.mark.parametrize(
    ("gaps", "timeframe_ms", "incomplete"),
    [
        ((1000, 2000, 3000), 3000, True),
        ((1000, 2000, 3000, 4000, 5000, 6000), 5000, False),
    ],
    ids=["below-bound", "past-bound"],
)
def test_classify_custom_grid_reads_only_the_sentinel_as_unbounded(
    gaps, timeframe_ms, incomplete
):
    # The last probe of a custom grid is a finite gap like the others.
    signature = classify(policy(2, SequenceMode.STRICT, 5000), ProbeBudget(gap_probes_ms=gaps))
    assert (signature.timeframe_ms, signature.incomplete) == (timeframe_ms, incomplete)


# A grid with a probe above the unbounded sentinel, as ``--gaps`` allows.
ABOVE_SENTINEL_GAPS = (1000, UNBOUNDED_GAP_MS, 2 * UNBOUNDED_GAP_MS)
JUDGES = {
    "classify": lambda pol, gaps: classify(pol, ProbeBudget(gap_probes_ms=gaps)),
    "oracle": lambda pol, gaps: signature_from_findings(exhaustive_search(pol, 0, 4, gaps), gaps),
}


@pytest.mark.parametrize("judge", JUDGES)
@pytest.mark.parametrize(
    ("timeframe", "timeframe_ms"),
    [(1_500_000_000, UNBOUNDED_GAP_MS), (None, None)],
    ids=["fails-above-sentinel", "passes-everywhere"],
)
def test_unbounded_only_when_no_probe_above_the_sentinel_fails(judge, timeframe, timeframe_ms):
    # A 1.5·10^9 ms timeframe passes the 10^9 ms probe and fails the
    # 2·10^9 one: the verdict is the largest passing gap, not ⊗.
    signature = JUDGES[judge](policy(2, SequenceMode.LOOSE, timeframe), ABOVE_SENTINEL_GAPS)
    assert (signature.timeframe_ms, signature.incomplete) == (timeframe_ms, False)


def test_probe_budget_keeps_the_transcript_within_half_the_counter_ring():
    # The probe transcript holds 2 * max_signals presses; past half the
    # 2^16 ring its earliest captures would replay as future codes.
    assert ProbeBudget(max_signals=16384).max_signals == 16384
    with pytest.raises(ValueError):
        ProbeBudget(max_signals=16385)


def test_classify_minimality():
    signature = classify(policy(4))
    assert signature.signals == 4


def test_classify_budget_too_small_reports_not_vulnerable():
    signature = classify(policy(5), ProbeBudget(max_signals=3))
    assert not signature.vulnerable


def test_classify_rejects_bad_budget():
    with pytest.raises(ValueError):
        ProbeBudget(max_signals=1)
    with pytest.raises(ValueError):
        ProbeBudget(gap_probes_ms=(5000, 1000))
    with pytest.raises(ValueError):
        ProbeBudget(gap_probes_ms=(0, 1000))
    with pytest.raises(ValueError):
        classify(
            policy(2, SequenceMode.STRICT, 500),
            ProbeBudget(gap_probes_ms=(-1000, 1000, UNBOUNDED_GAP_MS)),
        )


def test_repeated_gap_probe_is_rejected():
    # A repeated gap would be probed twice: the oracle replays its whole
    # walk once per listed gap before it folds the gaps into a set.
    with pytest.raises(ValueError, match="^gap probes must not repeat$"):
        ProbeBudget(gap_probes_ms=(1000, 1000))
    with pytest.raises(ValueError, match="^gap probes must not repeat$"):
        exhaustive_search(policy(2, SequenceMode.LOOSE), 0, 8, gap_probes_ms=(1000, 1000))
    with pytest.raises(ValueError, match="^gap probes must be sorted ascending$"):
        ProbeBudget(gap_probes_ms=(5000, 1000, 1000))


def test_oracle_strict3_transcript6_exactly_consecutive_triples():
    findings = exhaustive_search(policy(3), counter_bits=4, transcript_len=6)
    indices = {f.indices for f in findings}
    assert indices == {(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)}
    for finding in findings:
        assert finding.counter_steps == (1, 1)
        assert UNBOUNDED_GAP_MS in finding.passing_gaps


def test_oracle_loose2_transcript6_all_fifteen_pairs():
    findings = exhaustive_search(
        policy(2, SequenceMode.LOOSE), counter_bits=4, transcript_len=6
    )
    indices = {f.indices for f in findings}
    assert indices == set(itertools.combinations(range(6), 2))
    assert len(indices) == 15


def test_oracle_secure_policy_empty():
    assert exhaustive_search(ReceiverPolicy(), counter_bits=4, transcript_len=6) == []


def test_oracle_bounds_refusal():
    with pytest.raises(SearchBoundsError) as excinfo:
        exhaustive_search(ReceiverPolicy(), counter_bits=9, transcript_len=6)
    # 2^9 starts x (6 single replays + 57 longer sequences x 11 gaps)
    assert "324096 candidate replays" in str(excinfo.value)
    with pytest.raises(SearchBoundsError):
        exhaustive_search(ReceiverPolicy(), counter_bits=4, transcript_len=9)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"counter_bits": -1, "transcript_len": 4},
        {"counter_bits": 2, "transcript_len": 0},
        {"counter_bits": 2, "transcript_len": -3},
        {"counter_bits": 2, "transcript_len": 4, "gap_probes_ms": ()},
        {"counter_bits": 2, "transcript_len": 4, "gap_probes_ms": (5000, 1000)},
        {"counter_bits": 2, "transcript_len": 4, "gap_probes_ms": (0, 1000)},
        {"counter_bits": 2, "transcript_len": 4,
         "gap_probes_ms": (-1000, 1000, UNBOUNDED_GAP_MS)},
    ],
    ids=["negative-bits", "empty-transcript", "negative-transcript", "no-gaps",
         "unsorted-gaps", "zero-gap", "negative-gap"],
)
def test_oracle_rejects_bad_bounds(kwargs):
    with pytest.raises(ValueError):
        exhaustive_search(policy(2, SequenceMode.LOOSE), **kwargs)


def test_signature_from_findings_rejects_bad_gaps():
    findings = exhaustive_search(policy(2, SequenceMode.LOOSE), counter_bits=1, transcript_len=4)
    assert signature_from_findings(findings).notation() == "RollBack^Loose_⊗(2)"
    # Read in this order, the last probe (1000) would be taken as the
    # unbounded sentinel and the verdict rendered RollBack^Loose_1e+06(2).
    with pytest.raises(ValueError):
        signature_from_findings(findings, (UNBOUNDED_GAP_MS, 1000))
    with pytest.raises(ValueError):
        signature_from_findings(findings, (0, 1000, UNBOUNDED_GAP_MS))
    with pytest.raises(ValueError):
        signature_from_findings([], ())


def test_oracle_timeframe_gap_partition():
    findings = exhaustive_search(
        policy(2, SequenceMode.STRICT, timeframe=5000), counter_bits=3, transcript_len=4
    )
    for finding in findings:
        assert set(finding.passing_gaps) == {1000, 2000, 3000, 4000, 5000}


def test_signature_from_findings_matches_classify():
    for pol in (
        policy(2, SequenceMode.LOOSE),
        policy(2, SequenceMode.STRICT, timeframe=5000),
        policy(3),
        ReceiverPolicy(),
    ):
        findings = exhaustive_search(pol, counter_bits=3, transcript_len=6)
        induced = signature_from_findings(findings)
        direct = classify(pol)
        assert induced.vulnerable == direct.vulnerable
        assert induced.signals == direct.signals
        assert induced.sequence == direct.sequence
        assert induced.timeframe_ms == direct.timeframe_ms
        assert induced.incomplete == direct.incomplete


def test_classify_witness_is_sound_in_simulation():
    # Soundness: the witness sequence reported by classify, replayed
    # through the full engine, unlocks the door.
    pol = policy(3)
    signature = classify(pol)
    assert signature.witness_indices is not None
    presses = tuple(
        (1000 * (i + 1), VictimPress(fob_serial=7, button=Instruction.UNLOCK))
        for i in range(8)
    )
    scenario = Scenario(
        name="witness",
        seed=77,
        fobs=(FobDef(serial=7, initial_counter=200),),
        policy=pol,
        attacker=AttackerDef(
            kind="rollback", options={"jam_first": False, "signals_to_capture": 8}
        ),
        events=(
            (0, AttackerDeploy()),
            *presses,
            (
                10**9,
                AttackerExploit(
                    {
                        "indices": list(signature.witness_indices),
                        "gap_ms": min(signature.witness_gap_ms, 10_000),
                    },
                ),
            ),
        ),
    )
    trace = run(scenario)
    assert evaluate(trace, Goal.UNLOCK_WITHOUT_AUTHORIZATION)


def test_notation_rendering():
    sig = VariantSignature(
        vulnerable=True, signals=2, sequence=SequenceMode.STRICT, timeframe_ms=4500
    )
    assert sig.notation() == "RollBack^Strict_4.5(2)"


FOREVER_LEARN = dict(explicit_entry_required=False, exit_after_success=False)

EQUIVALENCE_GRID = [
    ReceiverPolicy(),
    ReceiverPolicy(**FOREVER_LEARN),
    policy(2, SequenceMode.LOOSE),
    policy(2, SequenceMode.STRICT, 3000),
    policy(3),
    policy(3, SequenceMode.LOOSE, 5000),
    policy(4),
    policy(2, SequenceMode.LOOSE, timestamp_check=TimestampCheck(1000)),
    policy(2, SequenceMode.LOOSE, per_instruction_counters=True),
    policy(2, SequenceMode.LOOSE, **FOREVER_LEARN),
    policy(2, single_window=1, double_window_limit=2),
    policy(3, SequenceMode.LOOSE, single_window=2, double_window_limit=4),
    # Fresh only within 25 s of the replay start: the captures' age then
    # decides which replays pass, so the oracle must replay when it says.
    policy(2, SequenceMode.LOOSE,
           timestamp_check=TimestampCheck(analyzer._EXPLOIT_DELAY_MS + 25_000)),
]

# The criterion-8 acceptance grid.
CRITERION_8_GRID = [
    ReceiverPolicy(),
    ReceiverPolicy(single_window=8),
    policy(2, SequenceMode.LOOSE),
    policy(2, SequenceMode.STRICT, 5000),
    policy(3),
    policy(5),
    policy(2, SequenceMode.LOOSE, 3000),
    policy(3, SequenceMode.LOOSE),
    policy(2),
    policy(4),
    policy(2, SequenceMode.STRICT, 8000),
    policy(3, SequenceMode.STRICT, 5000),
]


def _heard_from(pol, length, start):
    """The probe transcript heard from counter ``start``: ``length`` UNLOCK
    presses of a probe fob at ``start`` into a receiver that stores
    ``start``, door locked after.  ``Transcript.heard_by`` hears start 0."""
    stamped = pol.timestamp_check is not None
    probe = fob.FobState(analyzer._PROBE_SERIAL, analyzer._PROBE_KEY, start,
                         emit_timestamps=stamped)
    heard = new_receiver_state(pol, analyzer._PROBE_MASTER)
    heard.fobs[analyzer._PROBE_SERIAL] = FobRecord(analyzer._PROBE_KEY, start)
    captures = []
    for i in range(1, length + 1):
        now = i * analyzer._PRESS_SPACING_MS
        probe, transmission = fob.press(probe, Instruction.UNLOCK, now)
        receive(heard, pol, transmission, now)
        captures.append(transmission)
    heard.door = Door.LOCKED
    return captures, heard


def _brute_force_search(pol, counter_bits, transcript_len, gaps=DEFAULT_GAP_PROBES_MS):
    """Reference oracle: replays each subset on a fresh copy of the receiver."""
    success = {}
    replay_start = Transcript(transcript_len).replay_start
    for start_counter in range(1 << counter_bits):
        captures, heard = _heard_from(pol, transcript_len, start_counter)
        for length in range(1, transcript_len + 1):
            for indices in itertools.combinations(range(transcript_len), length):
                for gap in gaps:
                    state = heard.clone()
                    now = replay_start
                    for idx in indices:
                        receive(state, pol, captures[idx], now)
                        now += gap
                    if state.door is Door.UNLOCKED:
                        success.setdefault(indices, set()).add(gap)
    minimal = [
        seq for seq in success
        if not any(set(other) < set(seq) for other in success)
    ]
    return [
        analyzer.OracleFinding(
            indices=seq,
            counter_steps=tuple(b - a for a, b in itertools.pairwise(seq)),
            passing_gaps=tuple(sorted(success[seq])),
        )
        for seq in sorted(minimal, key=lambda seq: (len(seq), seq))
    ]


@pytest.mark.parametrize("transcript_len", range(1, 7))
def test_oracle_matches_brute_force_reference(transcript_len):
    # transcript_len=1 is the walk's edge case: the root's only child is
    # also its last child and replays on the root state itself.
    for pol in EQUIVALENCE_GRID:
        found = exhaustive_search(pol, counter_bits=2, transcript_len=transcript_len)
        assert found == _brute_force_search(pol, 2, transcript_len), pol


def _oracle_successes(pol, length, start, gaps):
    captures, heard = _heard_from(pol, length, start)
    return analyzer._probe_successes(pol, captures, heard, Transcript(length).replay_start, gaps)


def _tree_walk_successes(pol, length, start, gap_probes_ms):
    """Reference walk: the subset tree depth-first, one receive per node."""
    captures, heard = _heard_from(pol, length, start)
    last = len(captures) - 1
    replay_start = Transcript(length).replay_start
    success_gaps = {}
    for gap in gap_probes_ms:
        # Prefixes still to extend: (indices, receiver state, next replay time).
        pending = [((), heard.clone(), replay_start)]
        while pending:
            prefix, state, now = pending.pop()
            for idx in range(prefix[-1] + 1 if prefix else 0, last + 1):
                child = state if idx == last else state.clone()
                receive(child, pol, captures[idx], now)
                indices = prefix + (idx,)
                if child.door is Door.UNLOCKED:
                    success_gaps.setdefault(indices, set()).add(gap)
                if idx != last:
                    pending.append((indices, child, now + gap))
    return success_gaps


@pytest.mark.parametrize(
    ("start_counter", "gaps", "transcript_len"),
    [
        pytest.param(0, DEFAULT_GAP_PROBES_MS, 8, id="0"),
        pytest.param(65533, DEFAULT_GAP_PROBES_MS, 8, id="65533"),
        # One gap walk, and two, both going on from the shared singles.
        pytest.param(0, (1000,), 8, id="gaps-1000"),
        pytest.param(0, (2000, 5000), 8, id="gaps-2000-5000"),
        # Where the root, the leaf and the singles meet: at length 1 the
        # only single is a leaf replayed on the root state itself.
        pytest.param(0, DEFAULT_GAP_PROBES_MS, 1, id="len-1"),
        pytest.param(0, DEFAULT_GAP_PROBES_MS, 2, id="len-2"),
        pytest.param(0, DEFAULT_GAP_PROBES_MS, 3, id="len-3"),
    ],
)
def test_probe_successes_match_tree_walk_reference(start_counter, gaps, transcript_len):
    # The merged walk returns the very success dict of the tree walk: the
    # same index sequences, each with the same passing gaps.
    for pol in EQUIVALENCE_GRID + CRITERION_8_GRID:
        merged = _oracle_successes(pol, transcript_len, start_counter, gaps)
        assert merged == _tree_walk_successes(pol, transcript_len, start_counter, gaps), pol


def _record_calls(monkeypatch, owner, name):
    """Wraps ``owner.<name>`` for the test; returns the list of the
    argument tuples it is called with, in call order."""
    calls = []
    original = getattr(owner, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, recording)
    return calls


def _count_oracle_receives(monkeypatch, pol, transcript_len):
    calls = _record_calls(monkeypatch, analyzer, "receive")
    exhaustive_search(pol, counter_bits=1, transcript_len=transcript_len)
    return len(calls)


def test_oracle_receive_count_is_one_per_state_and_capture(monkeypatch):
    calls = _count_oracle_receives(monkeypatch, policy(2, SequenceMode.LOOSE), 8)
    # The receiver hears start 0's 8 transcript presses, once whatever the
    # counter bits.  Then come the 8 single replays, shared by every probe
    # gap, and at each gap the 8 singles' distinct states replay the 28
    # pairs.  Every pair unlocks, and every accept after it too, leaving a
    # state set by the last index alone, so each depth from 2 on holds one
    # state per last index: C(8, 3) = 56 more replays.  A walk that
    # replays once per tree node and gap makes 8 + 11 * 255 calls.
    tree_nodes = 8 + len(DEFAULT_GAP_PROBES_MS) * (2**8 - 1)
    assert calls == 8 + 8 + len(DEFAULT_GAP_PROBES_MS) * (28 + 56) == 940
    assert calls < tree_nodes == 2813


def test_oracle_receive_count_secure_policy_one_state_per_depth(monkeypatch):
    calls = _count_oracle_receives(monkeypatch, ReceiverPolicy(), 8)
    # The receiver hears 8 presses.  Every replay is discarded and leaves
    # the receiver as it was, so each depth holds one state, which replays
    # each capture above the smallest last index once: 7 + 6 + ... + 1 = 28
    # per gap after the 8 shared singles.  A walk keyed on (state, last
    # index) that replays the singles at every gap holds one node per last
    # index at each depth instead: 8 + 11 * (8 + 28 + 56) = 1020.
    assert calls == 8 + 8 + len(DEFAULT_GAP_PROBES_MS) * 28 == 324


def test_oracle_hears_one_transcript_whatever_the_counter_bits(monkeypatch):
    # Every start hears a translate of start 0's history, so one hearing
    # serves every start and the findings do not depend on counter_bits.
    hearings = _record_calls(monkeypatch, Transcript, "heard_by")
    for pol in EQUIVALENCE_GRID:
        found = []
        for counter_bits in range(4):
            hearings.clear()
            found.append(exhaustive_search(pol, counter_bits, transcript_len=6))
            assert len(hearings) == 1, (pol, counter_bits)
        assert all(findings == found[0] for findings in found), pol


def test_starts_across_the_wrap_key_alike_relative_to_their_own_start():
    # The receivers that heard from 0 and from 65533 (counters 65534, 65535,
    # 0, ...) differ, but not relative to their starts, before and after
    # replays that fill the rollback buffer, the learn buffer or a button
    # counter.
    for pol in EQUIVALENCE_GRID:
        (captures, at_zero), (wrapped_captures, wrapped) = (
            _heard_from(pol, 8, start) for start in (0, 65533)
        )
        assert wrapped.key() != at_zero.key()
        now = Transcript(8).replay_start
        for idx in (None, 0, 2, 3):
            if idx is not None:
                receive(at_zero, pol, captures[idx], now)
                receive(wrapped, pol, wrapped_captures[idx], now)
                now += 1000
            assert wrapped.key(origin=65533) == at_zero.key(origin=0), (pol, idx)


RELATIVE_KEY_FIELDS = {
    "door": lambda s: setattr(s, "door", Door.UNLOCKED),
    "resync": lambda s: setattr(s.fobs[analyzer._PROBE_SERIAL], "resync", 100),
    "rollback": lambda s: s.fobs[analyzer._PROBE_SERIAL].rollback.append((65534, 0)),
    "button_counter": lambda s: s.fobs[analyzer._PROBE_SERIAL].button_counters.__setitem__(
        Instruction.LOCK, 65534),
    "learn_buffer": lambda s: setattr(s, "learn_buffer", (analyzer._PROBE_SERIAL, 65534)),
}


@pytest.mark.parametrize("field", RELATIVE_KEY_FIELDS)
def test_relative_key_tells_apart_a_state_that_differs_in_one_field(field):
    _, heard = _heard_from(policy(2, SequenceMode.LOOSE), 8, 65533)
    changed = heard.clone()
    RELATIVE_KEY_FIELDS[field](changed)
    assert changed.key(origin=65533) != heard.key(origin=65533)


def test_oracle_single_replay_passes_at_every_gap():
    # Every capture of a transcript lies behind the receiver that heard it,
    # so no real policy unlocks on one replay.  Set the heard receiver's
    # stored counter back to the transcript's start and every capture lies
    # ahead of it: each single unlocks through receive(), and since a single
    # replay has no gap, it passes at every probe gap.
    gaps = (1000, 5000, UNBOUNDED_GAP_MS)
    for pol in (ReceiverPolicy(), policy(2, SequenceMode.LOOSE)):
        captures, heard = Transcript(4).heard_by(pol)
        heard.fobs[analyzer._PROBE_SERIAL].counter = 0
        successes = analyzer._probe_successes(
            pol, captures, heard, Transcript(4).replay_start, gaps)
        singles = {seq: passing for seq, passing in successes.items() if len(seq) == 1}
        assert singles == {(i,): set(gaps) for i in range(4)}, pol


def test_oracle_success_sets_invariant_across_counter_wrap():
    # Transcripts that straddle 2^16 succeed on the same index sequences
    # at the same gaps as a transcript starting at counter 0.
    gaps = (1000, 3000, 5000, 8000, 10_000, UNBOUNDED_GAP_MS)
    for pol in CRITERION_8_GRID:
        at_zero = _oracle_successes(pol, 8, 0, gaps)
        for start_counter in range(65530, 65536):
            wrapped = _oracle_successes(pol, 8, start_counter, gaps)
            assert wrapped == at_zero, (pol, start_counter)


def _fresh_replay_classify(pol, budget):
    """Reference classifier: every probe replays its whole run from a fresh clone."""
    gaps = budget.gap_probes_ms
    transcript = Transcript(2 * budget.max_signals)
    captures, heard = transcript.heard_by(pol)

    def passes(indices, gap):
        spec = ExploitSpec(signal_indices=indices, inter_replay_gap_ms=gap)
        return execute_exploit(spec, captures, heard.clone(), pol, transcript.replay_start)

    for k in range(2, budget.max_signals + 1):
        consecutive = tuple(range(k))
        gapped = tuple(range(0, 2 * k, 2))
        consecutive_pass = [g for g in gaps if passes(consecutive, g)]
        gapped_pass = [g for g in gaps if passes(gapped, g)]
        if not consecutive_pass and not gapped_pass:
            continue
        passing = sorted(set(consecutive_pass) | set(gapped_pass))
        timeframe_ms, incomplete = analyzer._timeframe_from_gaps(passing, gaps)
        return VariantSignature(
            vulnerable=True,
            signals=k,
            sequence=SequenceMode.LOOSE if gapped_pass else SequenceMode.STRICT,
            timeframe_ms=timeframe_ms,
            incomplete=incomplete,
            witness_indices=gapped if gapped_pass else consecutive,
            witness_gap_ms=max(gapped_pass) if gapped_pass else max(consecutive_pass),
        )
    return VariantSignature(vulnerable=False)


# Loose-2 whose timestamp check lets capture i of the default 12-press
# transcript (stamped (i + 1) * 10 s) replay up to i * 10 s + 5 s after
# the replay start: the consecutive run (0, 1) passes up to 15 s and the
# gapped run (0, 2) up to 25 s, so the two shapes pass different gaps.
FRESHER_GAPPED = policy(
    2, SequenceMode.LOOSE, timestamp_check=TimestampCheck(Transcript(12).replay_start - 5000))
FRESHER_GAPPED_GAPS = (1000, 12_000, 18_000, 30_000, UNBOUNDED_GAP_MS)

CLASSIFY_EQUIVALENCE_GRID = CRITERION_8_GRID + [
    policy(2, SequenceMode.LOOSE, timestamp_check=TimestampCheck(1000)),
    policy(2, SequenceMode.LOOSE, per_instruction_counters=True),
    ReceiverPolicy(**FOREVER_LEARN),
    policy(2, SequenceMode.LOOSE, **FOREVER_LEARN),
    policy(2, single_window=1, double_window_limit=2),
    policy(2, SequenceMode.STRICT, 500),
    policy(7),
    FRESHER_GAPPED,
]

CLASSIFY_EQUIVALENCE_BUDGETS = [ProbeBudget(max_signals=m) for m in range(2, 8)] + [
    ProbeBudget(gap_probes_ms=(250, 500, 750, 4000, 30_000, UNBOUNDED_GAP_MS)),
    ProbeBudget(gap_probes_ms=FRESHER_GAPPED_GAPS),
]


@pytest.mark.parametrize("budget", CLASSIFY_EQUIVALENCE_BUDGETS, ids=repr)
def test_classify_matches_fresh_replay_reference(budget):
    for pol in CLASSIFY_EQUIVALENCE_GRID:
        assert classify(pol, budget) == _fresh_replay_classify(pol, budget), pol


def test_classify_reports_the_gapped_witness_gaps_when_the_shapes_differ():
    # The consecutive run alone passes up to 12 s; the reported timeframe and
    # witness gap are the gapped run's, 18 s, with 30 s failing above it.
    signature = classify(FRESHER_GAPPED, ProbeBudget(gap_probes_ms=FRESHER_GAPPED_GAPS))
    assert signature == VariantSignature(
        vulnerable=True,
        signals=2,
        sequence=SequenceMode.LOOSE,
        timeframe_ms=18_000,
        incomplete=False,
        witness_indices=(0, 2),
        witness_gap_ms=18_000,
    )
    assert signature.notation() == "RollBack^Loose_18(2)"


@pytest.mark.parametrize(
    "pol, calls, clones",
    [
        # 12 transcript presses, one shared step-1 replay, then one replay
        # per shape (consecutive, gapped) and length step from 2 up to the
        # first passing length k: 12 + 1 + 2 * (k - 1).  There the witness's
        # shape alone bisects the 11-gap default grid above gaps[0], 4 probes
        # when every gap passes, each replaying k - 1 captures on its own
        # clone of the step-1 receiver: plus (k - 1) per probe.  Clones: the
        # two carried receivers plus one per probe.
        (ReceiverPolicy(), 23, 2),                      # k runs out at 6
        (policy(2, SequenceMode.LOOSE), 19, 6),         # k = 2, gapped witness
        (policy(5), 37, 6),                             # k = 5, consecutive only
        (policy(2, SequenceMode.LOOSE, timestamp_check=TimestampCheck(1000)), 23, 2),
    ],
    ids=["secure", "loose-2", "strict-5", "stale-timestamp"],
)
def test_classify_receive_count(monkeypatch, pol, calls, clones):
    counted = [_record_calls(monkeypatch, module, "receive") for module in (analyzer, attacks)]
    cloned = _record_calls(monkeypatch, ReceiverState, "clone")
    classify(pol)
    assert (sum(map(len, counted)), len(cloned)) == (calls, clones)


@pytest.mark.parametrize("max_signals", [6, 3])
def test_classify_presses_the_transcript_on_every_call(monkeypatch, max_signals, fresh_process):
    # The frame memo sits below ``press``: each call still presses its
    # whole 2·max_signals transcript, from a cold memo or a warm one, and
    # only a cold call encodes its frames.
    presses = _record_calls(monkeypatch, analyzer, "press")
    encodes = _record_calls(monkeypatch, fob, "encode")
    budget = ProbeBudget(max_signals=max_signals)
    fresh_process()
    for warm in (False, True, True):
        presses.clear()
        encodes.clear()
        classify(policy(2, SequenceMode.LOOSE), budget)
        assert len(presses) == 2 * max_signals
        assert len(encodes) == (0 if warm else 2 * max_signals)


@pytest.mark.parametrize(
    "pol",
    [ReceiverPolicy(), policy(2, SequenceMode.LOOSE), policy(5)],
    ids=["secure", "loose-2", "strict-5"],
)
def test_classify_calls_execute_exploit_once(monkeypatch, pol):
    # Only the opening replay of capture 0 goes through the exploit API;
    # the length steps and bisection probes hand their captures to receive().
    calls = _record_calls(monkeypatch, analyzer, "execute_exploit")
    classify(pol)
    assert [spec for spec, *_ in calls] == [ExploitSpec(signal_indices=(0,))]
