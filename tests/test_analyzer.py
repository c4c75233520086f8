import errno
import itertools
import os
import threading

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
    ReceiverPolicy,
    RollbackProfile,
    SequenceMode,
    TimestampCheck,
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


def _brute_force_search(pol, counter_bits, transcript_len, gaps=DEFAULT_GAP_PROBES_MS):
    """Reference oracle: replays each subset on a fresh copy of the receiver."""
    success = {}
    for start_counter in range(1 << counter_bits):
        transcript = Transcript(transcript_len, start_counter)
        captures, heard = transcript.heard_by(pol)
        for length in range(1, transcript_len + 1):
            for indices in itertools.combinations(range(transcript_len), length):
                for gap in gaps if length > 1 else gaps[:1]:
                    state = heard.clone()
                    now = transcript.replay_start
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
            passing_gaps=tuple(gaps) if len(seq) == 1 else tuple(sorted(success[seq])),
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


def _oracle_successes(pol, transcript, gaps):
    captures, state = transcript.heard_by(pol)
    return analyzer._probe_successes(pol, captures, state, transcript.replay_start, gaps)


def _tree_walk_successes(pol, transcript, gap_probes_ms):
    """Reference walk: the subset tree depth-first, one receive per node."""
    captures, heard = transcript.heard_by(pol)
    last = len(captures) - 1
    start = transcript.replay_start
    success_gaps = {}
    for gap in gap_probes_ms:
        # Prefixes still to extend: (indices, receiver state, next replay time).
        pending = [((), heard.clone(), start)]
        while pending:
            prefix, state, now = pending.pop()
            for idx in range(prefix[-1] + 1 if prefix else 0, last + 1):
                child = state if idx == last else state.clone()
                receive(child, pol, captures[idx], now)
                indices = prefix + (idx,)
                if child.door is Door.UNLOCKED and (prefix or gap == gap_probes_ms[0]):
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
        transcript = Transcript(transcript_len, start_counter)
        merged = _oracle_successes(pol, transcript, gaps)
        assert merged == _tree_walk_successes(pol, transcript, gaps), pol


def _count_oracle_receives(monkeypatch, tmp_path, pol, transcript_len):
    # Each call appends one byte to a file.  The oracle's forked workers
    # inherit the descriptor, and O_APPEND puts every write at the end, so
    # the file's size counts the calls of all processes.
    path = tmp_path / "receives"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    original = analyzer.receive

    def counting_receive(*args):
        os.write(fd, b".")
        return original(*args)

    monkeypatch.setattr(analyzer, "receive", counting_receive)
    try:
        exhaustive_search(pol, counter_bits=1, transcript_len=transcript_len)
    finally:
        os.close(fd)
    return path.stat().st_size


def test_oracle_receive_count_is_one_per_state_and_capture(monkeypatch, tmp_path):
    calls = _count_oracle_receives(monkeypatch, tmp_path, policy(2, SequenceMode.LOOSE), 8)
    # Per start: 8 transcript presses and the 8 single replays, shared by
    # every probe gap.  Then at each gap the 8 singles' distinct states
    # replay the 28 pairs.  Every pair unlocks, and every accept after it
    # too, leaving a state set by the last index alone, so each depth from
    # 2 on holds one state per last index: C(8, 3) = 56 more replays.
    tree_nodes = 2 * (8 + len(DEFAULT_GAP_PROBES_MS) * (2**8 - 1))
    assert calls == 2 * (8 + 8 + len(DEFAULT_GAP_PROBES_MS) * (28 + 56)) == 1880
    assert calls < tree_nodes == 5626


def test_oracle_receive_count_secure_policy_one_state_per_depth(monkeypatch, tmp_path):
    calls = _count_oracle_receives(monkeypatch, tmp_path, ReceiverPolicy(), 8)
    # Every replay is discarded and leaves the receiver as it was, so each
    # depth holds one state, which replays each capture above the
    # smallest last index once: 7 + 6 + ... + 1 = 28 per gap after the
    # 8 shared singles.  A walk keyed on (state, last index) that replays
    # the singles at every gap holds one node per last index at each
    # depth instead: 2 * (8 + 11 * (8 + 28 + 56)) = 2040.
    assert calls == 2 * (8 + 8 + len(DEFAULT_GAP_PROBES_MS) * 28) == 648


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _cpus(monkeypatch, count):
    monkeypatch.setattr(analyzer, "_usable_cpus", lambda: count)


def test_oracle_on_one_worker_and_on_two_finds_the_same(monkeypatch):
    _cpus(monkeypatch, 2)
    on_two = [exhaustive_search(pol, counter_bits=3, transcript_len=6) for pol in EQUIVALENCE_GRID]
    assert _no_child_left()
    _cpus(monkeypatch, 1)
    on_one = [exhaustive_search(pol, counter_bits=3, transcript_len=6) for pol in EQUIVALENCE_GRID]
    assert on_two == on_one


def _start_counter_successes(policy, captures, heard, start, gap_probes_ms):
    """A stand-in walk whose success set names the start it searched."""
    start_counter = heard.fobs[analyzer._PROBE_SERIAL].counter - len(captures)
    return {(start_counter,): {gap_probes_ms[0]}}


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_oracle_merges_the_successes_of_every_start(monkeypatch, cpus):
    # Every start of a real policy finds the same successes, so only a
    # walk that tells the starts apart shows one whose result was lost.
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(analyzer, "_probe_successes", _start_counter_successes)
    findings = exhaustive_search(ReceiverPolicy(), counter_bits=3, transcript_len=8)
    # A single replay passes at every gap, whichever one it was seen at.
    assert findings == [
        analyzer.OracleFinding((c,), (), DEFAULT_GAP_PROBES_MS) for c in range(8)
    ]
    assert _no_child_left()


def _failing_at(start_counters):
    def probe_successes(policy, captures, heard, start, gap_probes_ms):
        if heard.fobs[analyzer._PROBE_SERIAL].counter - len(captures) in start_counters:
            raise ZeroDivisionError("walk failed")
        return original(policy, captures, heard, start, gap_probes_ms)

    original = analyzer._probe_successes
    return probe_successes


def test_oracle_raises_when_a_worker_fails(monkeypatch, capfd):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(analyzer, "_probe_successes", _failing_at({1}))
    with pytest.raises(RuntimeError, match=r"^oracle worker for starts range\(1, 4, 2\) "
                                           r"exited with status 1$"):
        exhaustive_search(policy(2, SequenceMode.LOOSE), counter_bits=2, transcript_len=4)
    assert _no_child_left()
    # The worker printed the traceback of its own error.
    assert "ZeroDivisionError: walk failed" in capfd.readouterr().err


def test_oracle_raises_its_own_error_and_stops_the_workers(monkeypatch, capfd):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(analyzer, "_probe_successes", _failing_at({0}))
    with pytest.raises(ZeroDivisionError, match="^walk failed$"):
        exhaustive_search(policy(2, SequenceMode.LOOSE), counter_bits=2, transcript_len=4)
    assert _no_child_left()
    assert "ZeroDivisionError: walk failed" in capfd.readouterr().err


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors")
def test_oracle_failed_fork_stops_the_workers_and_closes_the_pipes(monkeypatch):
    _cpus(monkeypatch, 3)
    real_fork = os.fork
    forks = []

    def fork_once():
        if forks:
            raise OSError(errno.EAGAIN, "fork refused")
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    open_fds = set(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match="fork refused"):
        exhaustive_search(policy(2, SequenceMode.LOOSE), counter_bits=2, transcript_len=4)
    assert _no_child_left()
    assert set(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.parametrize("case", ["one-start", "no-fork", "another-thread"])
def test_oracle_searches_in_this_process_alone_where_it_must(monkeypatch, case):
    # One start needs no worker, and without os.fork, or with another
    # thread alive, forking is missing or unsafe: every start runs here.
    counter_bits = 0 if case == "one-start" else 2
    expected = exhaustive_search(policy(3), counter_bits, 4)
    _cpus(monkeypatch, 2)
    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        def no_fork():
            raise AssertionError("forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "another-thread":
        thread.start()
    try:
        assert exhaustive_search(policy(3), counter_bits, 4) == expected
    finally:
        stop.set()
        if case == "another-thread":
            thread.join(10)
            assert not thread.is_alive()


@pytest.mark.parametrize("cpu_count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch, cpu_count, usable):
    # Where the affinity mask cannot be read, every CPU counts, and an
    # unknown count means one.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert analyzer._usable_cpus() == usable


def test_oracle_success_sets_invariant_across_counter_wrap():
    # Transcripts that straddle 2^16 succeed on the same index sequences
    # at the same gaps as a transcript starting at counter 0.
    gaps = (1000, 3000, 5000, 8000, 10_000, UNBOUNDED_GAP_MS)
    for pol in CRITERION_8_GRID:
        at_zero = _oracle_successes(pol, Transcript(8), gaps)
        for start_counter in range(65530, 65536):
            wrapped = _oracle_successes(pol, Transcript(8, start_counter), gaps)
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


CLASSIFY_EQUIVALENCE_GRID = CRITERION_8_GRID + [
    policy(2, SequenceMode.LOOSE, timestamp_check=TimestampCheck(1000)),
    policy(2, SequenceMode.LOOSE, per_instruction_counters=True),
    ReceiverPolicy(**FOREVER_LEARN),
    policy(2, SequenceMode.LOOSE, **FOREVER_LEARN),
    policy(2, single_window=1, double_window_limit=2),
    policy(2, SequenceMode.STRICT, 500),
    policy(7),
]

CLASSIFY_EQUIVALENCE_BUDGETS = [ProbeBudget(max_signals=m) for m in range(2, 8)] + [
    ProbeBudget(gap_probes_ms=(250, 500, 750, 4000, 30_000, UNBOUNDED_GAP_MS)),
]


@pytest.mark.parametrize("budget", CLASSIFY_EQUIVALENCE_BUDGETS, ids=repr)
def test_classify_matches_fresh_replay_reference(budget):
    for pol in CLASSIFY_EQUIVALENCE_GRID:
        assert classify(pol, budget) == _fresh_replay_classify(pol, budget), pol


@pytest.mark.parametrize(
    "pol, calls",
    [
        # 12 transcript presses, one shared step-1 replay, then one replay
        # per (shape, gap) probe and length step from 2 up to the first
        # passing length: 12 + 1 + 22 * (k - 1).
        (ReceiverPolicy(), 123),
        (policy(2, SequenceMode.LOOSE), 35),
        (policy(5), 101),
    ],
    ids=["secure", "loose-2", "strict-5"],
)
def test_classify_receive_count(monkeypatch, pol, calls):
    counted = []
    for module in (analyzer, attacks):
        original = module.receive

        def counting_receive(*args, _original=original):
            counted.append(None)
            return _original(*args)

        monkeypatch.setattr(module, "receive", counting_receive)
    classify(pol)
    assert len(counted) == calls


@pytest.mark.parametrize("max_signals", [6, 3])
def test_classify_presses_the_transcript_on_every_call(monkeypatch, max_signals, fresh_process):
    # The frame memo sits below ``press``: each call still presses its
    # whole 2·max_signals transcript, from a cold memo or a warm one, and
    # only a cold call encodes its frames.
    presses, encodes = [], []
    original_press, original_encode = analyzer.press, fob.encode

    def counting_press(*args):
        presses.append(None)
        return original_press(*args)

    def counting_encode(*args):
        encodes.append(None)
        return original_encode(*args)

    monkeypatch.setattr(analyzer, "press", counting_press)
    monkeypatch.setattr(fob, "encode", counting_encode)
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
    # the length steps hand each probe's next capture to receive().
    specs = []
    original = analyzer.execute_exploit

    def counting_exploit(spec, *args):
        specs.append(spec)
        return original(spec, *args)

    monkeypatch.setattr(analyzer, "execute_exploit", counting_exploit)
    classify(pol)
    assert specs == [ExploitSpec(signal_indices=(0,))]
