"""Input generators, timed operations and output checks for each workload.

Every input is generated from the workload seed alone.  The program
receives only the generated files; each expected output is derived
here from the generator's own parameters, never from the program.
"""

from __future__ import annotations

import hashlib
import os
import random

from rkesim import analyzer, cli, codebook, sim
from rkesim.scenario import load_policy, load_scenario

COUNTER_MOD = 1 << 16
SINGLE_WINDOW = 16
DOUBLE_WINDOW_LIMIT = 1 << 15
GRID_MS = tuple(range(1000, 10001, 1000))  # the classifier's finite gap probes
MAX_SIGNALS = 6                            # the classifier's default budget
ORACLE_COUNTER_BITS = 6                    # acceptance bounds of the oracle
ORACLE_TRANSCRIPT_LEN = 8


def clear_codebook_caches() -> None:
    """Empty the codebook's caches, as a fresh ``rkesim`` process starts."""
    codebook._decode_cached.cache_clear()
    codebook.discrimination_for.cache_clear()


def decode_cache_info():
    """(hits, misses) of the decode cache, or None when it has no cache_info()."""
    info = getattr(codebook._decode_cached, "cache_info", None)
    if info is None:
        return None
    info = info()
    return info.hits, info.misses


class CheckFailed(Exception):
    """An output of the program differs from what the inputs imply."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- press-stream ---------------------------------------------------------

class PressStream:
    """One long scenario through the full ``simulate`` path.

    Two fobs press lock and unlock at random.  A rollback attacker runs
    an exploit round every ``round_presses`` presses: it replays two
    recent captures of one fob that the receiver accepted, so the
    rollback really lands, and the victim's next press still falls in
    the single window.  Bursts of out-of-range presses longer than the
    single window sit in the last 40% of the script; they force the
    double-window resync path there and leave the first 60% of the
    trace with an unaffected victim, which keeps goal evaluation busy.
    """

    name = "press-stream"
    unit = "presses"

    def __init__(self, seed: int, workdir: str, presses: int = 10_000,
                 round_presses: int = 400):
        rng = random.Random("press-stream:%d" % seed)
        self.path = os.path.join(workdir, "press_stream.scn")
        self.trace_path = os.path.join(workdir, "press_stream.trace")
        serials = rng.sample(range(1, 1 << 20), 2)
        self.initial = {serial: rng.randrange(COUNTER_MOD) for serial in serials}
        self.presses = {serial: 0 for serial in serials}
        self.replays = 0
        self.rounds = 0
        lines = [
            "rkesim-scenario v1",
            "name press_stream",
            "seed %d" % rng.randrange(1 << 31),
        ]
        for serial in serials:
            lines += ["", "[fob]", "serial %d" % serial,
                      "counter %d" % self.initial[serial]]
        lines += [
            "", "[receiver]",
            "single_window %d" % SINGLE_WINDOW,
            "double_window_limit %d" % DOUBLE_WINDOW_LIMIT,
            "rollback 2 loose",
            "", "[attacker]", "strategy rollback", "jam_first off",
            "", "[events]",
        ]
        # The first burst sits at exactly 60% so that goal evaluation does
        # the same work for every seed.
        bursts = [int(presses * 0.6)] + sorted(rng.sample(
            range(int(presses * 0.6) + 1, int(presses * 0.95)), presses // 2500))
        # Generator-side model of which captures the receiver accepted:
        # per fob, the capture indices of accepted presses since the last
        # round, and how many in-range presses it still needs to resync.
        accepted = {serial: [] for serial in serials}
        resync_debt = {serial: 0 for serial in serials}
        capture = 0
        at = 0
        emitted = 0
        while emitted < presses:
            if bursts and emitted >= bursts[0]:
                bursts.pop(0)
                serial = rng.choice(serials)
                for _ in range(SINGLE_WINDOW + rng.randrange(2, 10)):
                    if emitted >= presses:
                        break
                    at += rng.randrange(5_000, 60_000)
                    lines.append("%d press %d %s out_of_range"
                                 % (at, serial, rng.choice(("lock", "unlock"))))
                    self.presses[serial] += 1
                    capture += 1
                    emitted += 1
                resync_debt[serial] = 2
                accepted[serial] = []
                continue
            serial = rng.choice(serials)
            at += rng.randrange(5_000, 120_000)
            lines.append("%d press %d %s"
                         % (at, serial, rng.choice(("lock", "unlock"))))
            self.presses[serial] += 1
            if resync_debt[serial]:
                resync_debt[serial] -= 1
                if resync_debt[serial] == 0:
                    accepted[serial].append(capture)
            else:
                accepted[serial].append(capture)
            capture += 1
            emitted += 1
            if emitted % round_presses == 0:
                ready = [s for s in serials if len(accepted[s]) >= 2]
                if ready:
                    recent = accepted[rng.choice(ready)][-6:]
                    first, second = sorted(rng.sample(recent, 2))
                    lines.append("%d attacker exploit indices=%d,%d gap_ms=1000"
                                 % (at + 1000, first, second))
                    self.replays += 2
                    self.rounds += 1
                    accepted = {s: [] for s in serials}
        self.total_presses = emitted
        self.text = "\n".join(lines) + "\n"
        self.reference_digest = None

    def write_inputs(self) -> None:
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(self.text)

    def units(self) -> int:
        return self.total_presses

    def prepare(self) -> None:
        # ``rkesim simulate`` starts from a cold decode cache in a fresh
        # process; clear it so every pass decodes each frame once.
        clear_codebook_caches()

    def ops(self):
        return range(1)

    def run_op(self, tracer, index: int):
        with tracer.span("scenario.load_scenario"):
            scenario = load_scenario(self.path)
        with tracer.span("sim.run"):
            trace = sim.run(scenario)
        with tracer.span("sim.render"):
            text = trace.render()
            with open(self.trace_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        with tracer.span("cli.report_from_trace"):
            report = cli.report_from_trace(scenario.name, trace, self.trace_path)
        return trace, report

    def check_op(self, index: int, result) -> None:
        trace, report = result
        with open(self.trace_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        if self.reference_digest is None:
            self.reference_digest = digest
        _expect(digest == self.reference_digest, "trace differs between passes")
        _expect(report.presses == self.total_presses,
                "report presses %d != script %d" % (report.presses, self.total_presses))
        _expect(report.replays == self.replays,
                "report replays %d != script %d" % (report.replays, self.replays))
        finals = {r.get("serial"): r.get("ctr") for r in trace if r.kind == "final_fob"}
        for serial, count in self.presses.items():
            expected = (self.initial[serial] + count) % COUNTER_MOD
            _expect(finals.get(serial) == expected,
                    "fob %d final counter %r != %d" % (serial, finals.get(serial), expected))
        rollbacks = double_resyncs = 0
        for record in trace:
            if record.kind == "rx" and record.get("action") == "resynced":
                if record.get("src") == "attacker":
                    rollbacks += 1
                else:
                    double_resyncs += 1
        _expect(rollbacks >= 1, "no attacker rollback landed")
        _expect(double_resyncs >= 1, "no double-window resync happened")
        _expect(rollbacks == self.rounds,
                "%d of %d rollback rounds landed" % (rollbacks, self.rounds))

    def counts(self, result) -> dict:
        trace, _ = result
        kinds: dict = {}
        for record in trace:
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
        counts = {"sim.records": len(trace)}
        for kind in ("tx", "rx", "door", "attacker", "phase"):
            counts["sim.records." + kind] = kinds.get(kind, 0)
        return counts

    def warm_up(self, tracer) -> None:
        self.prepare()
        self.check_op(0, self.run_op(tracer, 0))


# --- policy-matrix --------------------------------------------------------

def _policy_specs() -> list:
    """Stratified policy kinds; each seed draws the same mix of kinds."""
    specs = [("none",)] * 5 + [("timestamp",)] * 5
    for signals in range(2, 8):
        for sequence in ("strict", "loose"):
            for frame in ("grid", "offgrid", "unbounded", "beyond", "sub"):
                specs.append(("rollback", signals, sequence, frame))
    return specs


def _timeframe(rng: random.Random, frame: str):
    if frame == "grid":
        return rng.choice(GRID_MS)
    if frame == "offgrid":
        return rng.choice(GRID_MS[:-1]) + rng.randrange(1, 1000)
    if frame == "beyond":
        return rng.randrange(10_001, 120_000)
    if frame == "sub":
        return rng.randrange(1, 1000)
    return None


def expected_notation(rollback, timestamp: bool) -> tuple:
    """(notation, incomplete) implied by a generated policy's parameters.

    The classifier replays captures 100 days after the transcript, so a
    timestamp check kills every replay.  Without one, a rollback of n
    signals works at probe length n when n is within the budget and at
    least one probe gap fits the timeframe; the reported timeframe is
    the largest probe gap that fits, flagged incomplete when it is the
    top of the grid.
    """
    if rollback is None or timestamp:
        return "NOT VULNERABLE", False
    signals, sequence, timeframe = rollback
    if signals > MAX_SIGNALS or (timeframe is not None and timeframe < GRID_MS[0]):
        return "NOT VULNERABLE", False
    if timeframe is None:
        frame, incomplete = "⊗", False
    else:
        best = min(timeframe // 1000 * 1000, GRID_MS[-1])
        frame, incomplete = "%g" % (best / 1000), timeframe >= GRID_MS[-1]
    return "RollBack^%s_%s(%d)" % (sequence.capitalize(), frame, signals), incomplete


def render_policy(name: str, rng: random.Random, spec: tuple) -> tuple:
    """Policy text for a spec, plus (rollback, timestamp) it was made from."""
    single = rng.choice((1, 4, 8, 16, 32, 64, 255))
    lines = [
        "rkesim-policy v1", "name %s" % name, "", "[receiver]",
        "single_window %d" % single,
        "double_window_limit %d" % rng.randrange(single + 1, DOUBLE_WINDOW_LIMIT + 1),
    ]
    rollback = None
    timestamp = spec[0] == "timestamp"
    if spec[0] == "rollback":
        rollback = (spec[1], spec[2], _timeframe(rng, spec[3]))
    elif timestamp:
        rollback = (rng.randrange(2, 7), rng.choice(("strict", "loose")),
                    _timeframe(rng, rng.choice(("grid", "unbounded"))))
    if rollback is not None:
        signals, sequence, timeframe = rollback
        entry = "rollback %d %s" % (signals, sequence)
        if timeframe is not None:
            entry += " %d" % timeframe
        lines.append(entry)
    if rng.random() < 0.3:
        lines.append("per_instruction_counters on")
    if timestamp:
        lines.append("timestamp_tolerance_ms %d" % rng.randrange(100, 600_000))
    return "\n".join(lines) + "\n", rollback, timestamp


class PolicyMatrix:
    """``rkesim matrix`` over a directory of generated policies."""

    name = "policy-matrix"
    unit = "policies"

    def __init__(self, seed: int, workdir: str, count: int = 1000):
        rng = random.Random("policy-matrix:%d" % seed)
        specs = _policy_specs()
        kinds = [specs[i % len(specs)] for i in range(count)]
        rng.shuffle(kinds)
        self.files = []
        for i, spec in enumerate(kinds):
            name = "p%04d" % i
            text, rollback, timestamp = render_policy(name, rng, spec)
            path = os.path.join(workdir, name + ".pol")
            self.files.append((path, text, expected_notation(rollback, timestamp)))

    def write_inputs(self) -> None:
        for path, text, _ in self.files:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)

    def units(self) -> int:
        return len(self.files)

    def prepare(self) -> None:
        pass

    def ops(self):
        return range(len(self.files))

    def run_op(self, tracer, index: int):
        path = self.files[index][0]
        with tracer.span("scenario.load_policy"):
            name, policy = load_policy(path)
        with tracer.span("analyzer.classify") as span:
            signature = analyzer.classify(policy)
            span.rename("analyzer.classify.%s" % (
                "vulnerable" if signature.vulnerable else "not_vulnerable"))
        return signature

    def check_op(self, index: int, signature) -> None:
        notation, incomplete = self.files[index][2]
        _expect(signature.notation() == notation and signature.incomplete == incomplete,
                "%s: classify gave %s (incomplete=%s), expected %s (incomplete=%s)"
                % (os.path.basename(self.files[index][0]), signature.notation(),
                   signature.incomplete, notation, incomplete))

    def warm_up(self, tracer) -> None:
        for index in range(0, len(self.files), 10):
            self.check_op(index, self.run_op(tracer, index))


# --- oracle-sweep ---------------------------------------------------------

class OracleSweep:
    """The brute-force oracle at the acceptance bounds, checked by classify.

    The set always holds the same three kinds of policy, in this order:
    no rollback, a loose 3-signal rollback with a timeframe in [3 s, 4 s)
    and a strict 2-signal rollback with a timeframe in [5 s, 6 s).  The
    seed picks each timeframe inside its interval.  Every timeframe in
    an interval passes the same probe gaps, so each seed drives the
    receiver down the same paths and costs the same work; a seed that
    drew the rollback kinds too would change the work per pass by ~30%.
    """

    name = "oracle-sweep"
    unit = "candidates"

    def __init__(self, seed: int, workdir: str, counter_bits: int = ORACLE_COUNTER_BITS):
        rng = random.Random("oracle-sweep:%d" % seed)
        self.counter_bits = counter_bits
        rollbacks = [
            None,
            (3, "loose", rng.randrange(3000, 4000)),
            (2, "strict", rng.randrange(5000, 6000)),
        ]
        self.files = []
        for i, rollback in enumerate(rollbacks):
            name = "o%d" % i
            lines = ["rkesim-policy v1", "name %s" % name, "", "[receiver]"]
            if rollback is not None:
                lines.append("rollback %d %s %d" % rollback)
            self.files.append((os.path.join(workdir, name + ".pol"),
                               "\n".join(lines) + "\n",
                               expected_notation(rollback, False)))

    def write_inputs(self) -> None:
        for path, text, _ in self.files:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)

    def candidates_per_op(self) -> int:
        length = ORACLE_TRANSCRIPT_LEN
        subsets = (1 << length) - 1 - length
        gaps = len(analyzer.DEFAULT_GAP_PROBES_MS)
        return (1 << self.counter_bits) * (length + subsets * gaps)

    def units(self) -> int:
        return self.candidates_per_op() * len(self.files)

    def prepare(self) -> None:
        pass

    def ops(self):
        return range(len(self.files))

    def run_op(self, tracer, index: int, counter_bits: int | None = None):
        with tracer.span("scenario.load_policy"):
            _, policy = load_policy(self.files[index][0])
        with tracer.span("analyzer.exhaustive_search"):
            findings = analyzer.exhaustive_search(
                policy,
                counter_bits=self.counter_bits if counter_bits is None else counter_bits,
                transcript_len=ORACLE_TRANSCRIPT_LEN,
            )
        with tracer.span("analyzer.signature_from_findings"):
            induced = analyzer.signature_from_findings(findings)
        with tracer.span("analyzer.classify") as span:
            direct = analyzer.classify(policy)
            span.rename("analyzer.classify.%s" % (
                "vulnerable" if direct.vulnerable else "not_vulnerable"))
        tracer.count("analyzer.oracle_findings", len(findings))
        return induced, direct

    def check_op(self, index: int, result) -> None:
        induced, direct = result
        for field in ("vulnerable", "signals", "sequence", "timeframe_ms", "incomplete"):
            _expect(getattr(induced, field) == getattr(direct, field),
                    "%s: oracle %s=%r, classify %s=%r"
                    % (os.path.basename(self.files[index][0]), field,
                       getattr(induced, field), field, getattr(direct, field)))
        notation, incomplete = self.files[index][2]
        _expect(direct.notation() == notation and direct.incomplete == incomplete,
                "%s: classify gave %s, expected %s"
                % (os.path.basename(self.files[index][0]), direct.notation(), notation))

    def warm_up(self, tracer) -> None:
        for index in self.ops():
            self.check_op(index, self.run_op(tracer, index, counter_bits=0))


WORKLOADS = {cls.name: cls for cls in (PressStream, PolicyMatrix, OracleSweep)}
