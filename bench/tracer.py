"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from outside the program: around the benchmark's
own calls into each layer, and around public rkesim functions that one
module calls in another, by rebinding the name in the calling module.
``src/`` is not changed.

Every call is timed and folded into per-name totals (calls, inclusive
time, self time), so self times cover the whole run.  Span records
(id, name, start, end, parent id, op id) are kept for the first
``SPAN_LIMIT`` calls only, to bound memory on the oracle's millions of
receiver calls.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

from rkesim import analyzer, attacks, codebook, fob, receiver, sim

COUNTER_MOD = 1 << 16
_HALF_RING = COUNTER_MOD // 2
SPAN_LIMIT = 50_000
FRAMES_KEPT = 2000      # fob frames kept for the decode probe
PROBE_DECODES = 2000    # decodes timed per cache state by the decode probe


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def rename(self, name: str) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Untraced runs: spans and counts cost one method call each."""

    op = 0

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass


class _Frame:
    __slots__ = ("tracer", "name", "id", "parent", "start", "child_ns", "sampled")

    def __init__(self, tracer, name, sampled):
        self.tracer = tracer
        self.name = name
        self.sampled = sampled

    def rename(self, name: str) -> None:
        self.name = name

    def __enter__(self):
        self.tracer.enter(self)
        return self

    def __exit__(self, *exc):
        self.tracer.leave(self, perf_counter_ns())
        return False


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.totals: dict[str, list[int]] = {}   # name -> [calls, total_ns, self_ns]
        self.samples: dict[str, list[int]] = {}  # coarse span durations, ns
        self.counters: dict[str, int] = {}
        self.outcomes: dict[tuple, int] = {}     # (action kind, discard reason) -> calls
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op = 0
        self.frames: list = []   # (key, transmission) pairs seen leaving fob.press
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str) -> _Frame:
        """Context manager around one coarse layer call; its durations are kept."""
        return _Frame(self, name, True)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def enter(self, frame: _Frame) -> None:
        self.next_id += 1
        frame.id = self.next_id
        frame.parent = self.stack[-1].id if self.stack else 0
        frame.child_ns = 0
        self.stack.append(frame)
        frame.start = perf_counter_ns()

    def leave(self, frame: _Frame, end: int) -> None:
        self.stack.pop()
        duration = end - frame.start
        totals = self.totals.get(frame.name)
        if totals is None:
            totals = self.totals[frame.name] = [0, 0, 0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame.child_ns
        if self.stack:
            self.stack[-1].child_ns += duration
        if frame.sampled:
            self.samples.setdefault(frame.name, []).append(duration)
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((frame.id, frame.name, frame.start, end, frame.parent, self.op))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn):
        """``fn`` timed as a fine-grained call: totals only, no duration samples."""
        tracer = self

        def traced(*args, **kwargs):
            frame = _Frame(tracer, name, False)
            tracer.enter(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(frame, perf_counter_ns())

        return traced

    # -- instrumenting the program -----------------------------------------

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        # A missing name raises, so that a refactor that breaks tracing
        # fails the run instead of reading as a layer that costs nothing.
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def install(self) -> None:
        """Rebind the cross-module calls listed in the benchmark doc."""
        named = lambda name: (lambda fn: self.wrap(name, fn))
        for module in (sim, analyzer):
            self._patch(module, "press", self._press_wrapper)
        self._patch(fob, "encode", named("codebook.encode"))
        self._patch(sim, "transmit", named("channel.transmit"))
        for module in (sim, analyzer, attacks):
            self._patch(module, "receive", self._receive_wrapper)
        self._patch(receiver.ReceiverState, "clone", named("receiver.clone"))
        self._patch(analyzer, "execute_exploit", named("attacks.execute_exploit"))
        self._patch(sim, "evaluate", self._evaluate_wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _press_wrapper(self, fn):
        traced = self.wrap("fob.press", fn)
        frames = self.frames

        def press(state, button, now):
            result = traced(state, button, now)
            if len(frames) < FRAMES_KEPT:
                frames.append((result[0].key, result[1]))
            return result

        return press

    def _evaluate_wrapper(self, fn):
        def evaluate(trace, goal):
            with self.span("sim.evaluate.%s" % goal.value):
                return fn(trace, goal)

        return evaluate

    def _receive_wrapper(self, fn):
        """Times receive() and buckets each call by the path it took."""
        tracer = self
        outcomes = self.outcomes

        def receive(state, policy, transmission, now):
            record = state.fobs.get(transmission.serial)
            before = None
            if record is not None:
                buttons = record.button_counters
                before = (record.counter, dict(buttons) if buttons else None)
            frame = _Frame(tracer, "receiver.receive_us.other", False)
            tracer.enter(frame)
            try:
                action = fn(state, policy, transmission, now)
            except BaseException:
                tracer.leave(frame, perf_counter_ns())
                raise
            end = perf_counter_ns()
            outcome = (action.kind.value, action.reason)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            frame.name = _path_name(outcome, action, before)
            tracer.leave(frame, end)
            return action

        return receive

    def snapshot_counts(self) -> dict:
        """Counters so far, with receive() outcomes as rx and discard counts."""
        counts = dict(self.counters)
        for (kind, reason), n in self.outcomes.items():
            for name in ("receiver.rx.delivered", "receiver.rx." + kind,
                         None if reason is None else "receiver.discard." + reason):
                if name is not None:
                    counts[name] = counts.get(name, 0) + n
        return counts

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent, "op": op}) + "\n")
            handle.write(json.dumps({"dropped_spans": self.dropped}) + "\n")


_DISCARD_PATHS = {
    "replay": "receiver.receive_us.replay-discard",
    "awaiting_resync": "receiver.receive_us.double-resync",
    "blocked": "receiver.receive_us.blocked",
}


def _path_name(outcome: tuple, action, before) -> str:
    kind, reason = outcome
    if kind == "executed":
        return "receiver.receive_us.accept"
    if kind == "discarded":
        return _DISCARD_PATHS.get(reason, "receiver.receive_us.other")
    if kind == "resynced" and before is not None and action.new_counter is not None:
        # A resync forward (double window) or back to a stale counter (rollback).
        counter, buttons = before
        if buttons and action.instruction in buttons:
            counter = buttons[action.instruction]
        if counter is not None:
            d = (action.new_counter - counter) % COUNTER_MOD
            if d == 0 or d >= _HALF_RING:
                return "receiver.receive_us.rollback-resync"
            return "receiver.receive_us.double-resync"
    return "receiver.receive_us.other"


def decode_probe(frames, seed: int) -> dict:
    """Mean decode cost on the workload's own frames, cold and cached.

    Each distinct payload is re-encoded under fresh keys, so its first
    decode is guaranteed to miss the decode cache and the second to hit
    it.  Workloads with few distinct frames re-encode them under several
    fresh keys to reach ``PROBE_DECODES`` samples.
    """
    unique = list({(key, tx.serial, tx.ciphertext): (key, tx) for key, tx in frames}.values())
    if not unique:
        return {"miss": 0.0, "hit": 0.0}
    fresh = []
    for round_ in range(-(-PROBE_DECODES // len(unique))):
        fresh_master = codebook.master_from_seed(0xBE7C0DE + 7919 * round_ + seed)
        for key, transmission in unique:
            serial = transmission.serial
            payload = codebook.decode(key, transmission)
            new_key = codebook.derive_key(fresh_master, serial)
            signature = None
            if payload.timestamp is not None:
                signature = codebook.timestamp_tag(new_key, serial, payload.timestamp)
            payload = codebook.Payload(
                counter=payload.counter,
                button=payload.button,
                discrimination=codebook.discrimination_for(new_key, serial),
                timestamp=payload.timestamp,
                signature=signature,
            )
            fresh.append((new_key, codebook.encode(new_key, serial, payload)))
    result = {}
    for label in ("miss", "hit"):
        start = perf_counter_ns()
        for key, transmission in fresh:
            codebook.decode(key, transmission)
        result[label] = (perf_counter_ns() - start) / len(fresh) / 1e3
    return result
