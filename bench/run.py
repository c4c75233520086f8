"""Layered benchmark for rkesim.

    python3 bench/run.py --workload press-stream --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

The first form runs one workload and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The second form runs every workload both ways
and prints every metric by name and unit.  See bench/README.md.

Each workload runs in fresh, single-threaded child interpreters, one
after another: six that only set up, to time set-up, then one that sets
up and measures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("press-stream", "policy-matrix", "oracle-sweep")
SETUP_ONLY_CHILDREN = 6
CHILD_TIMEOUT_S = 170

# End-to-end metrics, printed with --trace 0: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, printed with --trace 1: (name, unit, tracer name, statistic).
# "mean" is inclusive time per call; "median" is the median call.
_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}
PER_LAYER_TIMES = [
    ("scenario.load_scenario_s", "s", "scenario.load_scenario", "median"),
    ("scenario.load_policy_us", "us", "scenario.load_policy", "mean"),
    ("sim.run_s", "s", "sim.run", "median"),
    ("sim.render_s", "s", "sim.render", "median"),
    ("sim.evaluate_s.UnlockWithoutAuthorization", "s",
     "sim.evaluate.UnlockWithoutAuthorization", "median"),
    ("sim.evaluate_s.VictimUnaffected", "s", "sim.evaluate.VictimUnaffected", "median"),
    ("sim.evaluate_s.ReLockedAfter", "s", "sim.evaluate.ReLockedAfter", "median"),
    ("cli.report_from_trace_s", "s", "cli.report_from_trace", "median"),
    ("codebook.encode_us", "us", "codebook.encode", "mean"),
    ("fob.press_us", "us", "fob.press", "mean"),
    ("channel.transmit_us", "us", "channel.transmit", "mean"),
    ("receiver.receive_us.accept", "us", "receiver.receive_us.accept", "mean"),
    ("receiver.receive_us.double-resync", "us", "receiver.receive_us.double-resync", "mean"),
    ("receiver.receive_us.replay-discard", "us", "receiver.receive_us.replay-discard", "mean"),
    ("receiver.receive_us.rollback-resync", "us",
     "receiver.receive_us.rollback-resync", "mean"),
    ("receiver.clone_us", "us", "receiver.clone", "mean"),
    ("attacks.execute_exploit_us", "us", "attacks.execute_exploit", "mean"),
    ("analyzer.classify_ms.vulnerable", "ms", "analyzer.classify.vulnerable", "median"),
    ("analyzer.classify_ms.not_vulnerable", "ms", "analyzer.classify.not_vulnerable", "median"),
    ("analyzer.exhaustive_search_s", "s", "analyzer.exhaustive_search", "median"),
]
PER_LAYER_COUNTS = [
    "sim.records", "sim.records.tx", "sim.records.rx", "sim.records.door",
    "sim.records.attacker", "sim.records.phase",
    "receiver.rx.delivered", "receiver.rx.executed", "receiver.rx.discarded",
    "receiver.rx.resynced", "receiver.discard.replay", "receiver.discard.awaiting_resync",
    "receiver.discard.stale_timestamp", "receiver.discard.blocked",
    "codebook.decode_cache_hits", "codebook.decode_cache_misses",
    "analyzer.oracle_findings",
]
MODULES = ("scenario", "sim", "cli", "codebook", "fob", "channel", "receiver",
           "attacks", "analyzer")
PER_LAYER_OTHER = {
    "import_s": "s",
    **{"%s.self_ms" % module: "ms" for module in MODULES},
    "codebook.decode_miss_us": "us",
    "codebook.decode_hit_us": "us",
    "receiver.accept_ratio": "ratio",
    "trace.untraced_pass_ms": "ms",
    "trace.traced_pass_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.layers_self_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.residual_ms": "ms",
}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# --- child: set up, then optionally measure --------------------------------

def child(args) -> int:
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import rkesim
    import_s = time.perf_counter() - started
    if os.path.dirname(os.path.abspath(rkesim.__file__)) != os.path.join(SRC, "rkesim"):
        print("rkesim imported from outside this checkout", file=sys.stderr)
        return 2
    import hostspeed
    import tracer as tracing
    import workloads

    probe = hostspeed.HostProbe()
    probe.start()
    setup_start = time.perf_counter_ns()
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        write_start = time.perf_counter_ns()
        workload.write_inputs()
        write_end = time.perf_counter_ns()
        write_ns = write_end - write_start - probe.inside(write_start, write_end)
        warm_up_failed = 0
        try:
            workload.warm_up(tracing.NullTracer())
        except Exception:
            warm_up_failed = 1
            traceback.print_exc()
        # The parent scales its set-up time by the probes taken so far.
        # It leaves out the time spent writing the input files: that is
        # the benchmark's own work, which no change to the program can
        # move, and on the host's shared disk it varied threefold.
        factor = probe.scale(setup_start, time.perf_counter_ns())
        print("ready %d %r %d" % (probe.total_ns, factor, write_ns), flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            probe.stop()
            result = measure_traced(workload, args, tracing, workloads)
        else:
            result = measure(workload, args.seconds, probe, tracing.NullTracer())
        result["attempted"] += 1
        result["failed"] += warm_up_failed
        result["metrics"]["import_s"] = import_s
        print(json.dumps(result), flush=True)
        return 0
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _run_checked(workload, tracer, index):
    """One timed operation and its output check: (result, start ns, end ns), or None."""
    try:
        t0 = time.perf_counter_ns()
        result = workload.run_op(tracer, index)
        t1 = time.perf_counter_ns()
        workload.check_op(index, result)
    except Exception:
        traceback.print_exc()
        return None
    return result, t0, t1


def measure(workload, seconds: float, probe, null_tracer) -> dict:
    """End-to-end metrics of an untraced run, in host time scaled by the probe.

    Passes over the workload's operations repeat for ``seconds``, and at
    least one whole pass runs.  The timed region of an operation is
    exactly ``run_op``; preparing and checking happen outside it.  Each
    operation's time is taken without the probe time inside it, then
    scaled to the reference host speed.  A pass's time is the sum over
    its operations of each one's median scaled time, so a slow phase of
    the host or a pass cut short by the clock moves it little.  The
    median latency is the median over operations of each one's median,
    so that on oracle-sweep, whose three operations differ in cost, it
    does not jump between them with the number of samples of each.
    """
    import resource
    from array import array

    # Index, start ns and end ns of each timed operation, kept compact so
    # that the samples add little to the peak memory being measured.
    timed = array("q")
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    first_pass = True
    while first_pass or time.perf_counter() < deadline:
        # Start every pass from a collected heap, so the cyclic collector
        # does similar work in every pass.
        gc.collect()
        for index in workload.ops():
            if not first_pass and time.perf_counter() >= deadline:
                break
            workload.prepare()
            attempted += 1
            done = _run_checked(workload, null_tracer, index)
            if done is None:
                failed += 1
                continue
            timed.extend((index, done[1], done[2]))
            done = None  # a live result would slow the next operation's collections
        first_pass = False
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    scaled_ns, raw_ns = {}, {}
    for k in range(0, len(timed), 3):
        index, start, end = timed[k:k + 3]
        own_ns = end - start - probe.inside(start, end)
        raw_ns.setdefault(index, []).append(own_ns)
        scaled_ns.setdefault(index, []).append(own_ns * probe.scale(start, end))
    units = workload.units()
    scaled_ms = [ns / 1e6 for samples in scaled_ns.values() for ns in samples]

    def per_s(samples):
        return units / (sum(statistics.median(v) for v in samples.values()) / 1e9)

    def p50_ms(samples):
        return statistics.median(statistics.median(v) for v in samples.values()) / 1e6

    metrics = {
        "items_per_s": per_s(scaled_ns),
        "op_p50_ms": p50_ms(scaled_ns),
        "peak_rss_mb": peak_rss_mb,
    }
    # The 99th percentile rests on ~10 samples on two workloads, too few
    # for a bounded metric; it is reported beside the metrics.
    extra = {"op_p99_ms": percentile(scaled_ms, 99), "op_samples": len(scaled_ms),
             "units_per_pass": units, "unit": workload.unit,
             "host_items_per_s": per_s(raw_ns), "host_op_p50_ms": p50_ms(raw_ns),
             "probe_median_us": probe.median_ns() / 1e3, "probes": len(probe.durations)}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "extra": extra}


def measure_traced(workload, args, tracing, workloads) -> dict:
    """Per-layer metrics: each operation runs untraced, then traced.

    Whole pairs of passes repeat for ``--seconds``, and at least one
    runs.  Traced and untraced runs of an operation are neighbours in
    time, so their difference, the tracing overhead, is little moved by
    the host's drift.  Counts come from the first pass.
    """
    tracer = tracing.Tracer()
    null_tracer = tracing.NullTracer()
    untraced_ns = passes = attempted = failed = 0
    counts: dict = {}
    deadline = time.perf_counter() + args.seconds
    while passes == 0 or time.perf_counter() < deadline:
        gc.collect()
        for index in workload.ops():
            workload.prepare()
            attempted += 1
            done = _run_checked(workload, null_tracer, index)
            if done is None:
                failed += 1
            else:
                untraced_ns += done[2] - done[1]
            done = None
            workload.prepare()
            attempted += 1
            cache_before = workloads.decode_cache_info()
            tracer.op += 1
            tracer.install()
            try:
                with tracer.span("op"):
                    done = _run_checked(workload, tracer, index)
            finally:
                tracer.uninstall()
            if done is None:
                failed += 1
            elif passes == 0:
                cache_after = workloads.decode_cache_info()
                per_op = workload.counts(done[0]) if hasattr(workload, "counts") else {}
                if cache_after is not None:
                    per_op["codebook.decode_cache_hits"] = cache_after[0] - cache_before[0]
                    per_op["codebook.decode_cache_misses"] = cache_after[1] - cache_before[1]
                for name, value in per_op.items():
                    counts[name] = counts.get(name, 0) + value
            done = None
        if passes == 0:
            for name, value in tracer.snapshot_counts().items():
                counts[name] = counts.get(name, 0) + value
        passes += 1
    tracer.write_spans(os.path.join(
        OUT, "%s-seed%d-spans.jsonl" % (args.workload, args.seed)))
    probe = tracing.decode_probe(tracer.frames, args.seed)
    metrics = layer_metrics(tracer, counts, probe)
    pass_ms = {
        "untraced": untraced_ns / 1e6 / passes,
        "traced": tracer.totals["op"][1] / 1e6 / passes,
    }
    for module in MODULES:
        self_ns = sum(t[2] for name, t in tracer.totals.items()
                      if name.split(".", 1)[0] == module)
        metrics["%s.self_ms" % module] = self_ns / 1e6 / passes
    layers_self_ms = sum(t[2] for name, t in tracer.totals.items() if name != "op") / 1e6 / passes
    metrics["trace.untraced_pass_ms"] = pass_ms["untraced"]
    metrics["trace.traced_pass_ms"] = pass_ms["traced"]
    metrics["trace.overhead_ms"] = pass_ms["traced"] - pass_ms["untraced"]
    metrics["trace.layers_self_ms"] = layers_self_ms
    metrics["trace.unattributed_ms"] = tracer.totals["op"][2] / 1e6 / passes
    metrics["trace.residual_ms"] = pass_ms["untraced"] - layers_self_ms
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "extra": {"passes": passes, "dropped_spans": tracer.dropped}}


def layer_metrics(tracer, counts, probe) -> dict:
    metrics = {}
    for name, unit, key, stat in PER_LAYER_TIMES:
        value = 0.0
        if stat == "median" and tracer.samples.get(key):
            value = statistics.median(tracer.samples[key])
        elif stat == "mean" and key in tracer.totals:
            calls, total_ns, _ = tracer.totals[key]
            value = total_ns / calls
        metrics[name] = value * _SCALE[unit]
    records = counts.get("sim.records", 0)
    metrics["sim.us_per_record"] = (
        metrics["sim.run_s"] * 1e6 / records if records else 0.0)
    for name in PER_LAYER_COUNTS:
        metrics[name] = counts.get(name, 0)
    delivered = counts.get("receiver.rx.delivered", 0)
    metrics["receiver.accept_ratio"] = (
        (counts.get("receiver.rx.executed", 0) + counts.get("receiver.rx.resynced", 0))
        / delivered if delivered else 0.0)
    metrics["codebook.decode_miss_us"] = probe["miss"]
    metrics["codebook.decode_hit_us"] = probe["hit"]
    return metrics


# --- parent: time set-up, run the measuring child, report -------------------

def spawn(args, setup_only: bool):
    """Run one child; return its set-up time (host, scaled), its time
    writing inputs and its output."""
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter_ns()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup_ns = time.perf_counter_ns() - started
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    ready = line.split()
    if proc.returncode != 0 or len(ready) != 4 or ready[0] != "ready":
        raise RuntimeError("%s child exited with %s" % (args.workload, proc.returncode))
    probe_ns, factor, write_ns = int(ready[1]), float(ready[2]), int(ready[3])
    scaled_s = (setup_ns - probe_ns - write_ns) * factor / 1e9
    return setup_ns / 1e9, scaled_s, write_ns / 1e9, rest


def run_workload(args) -> int:
    host_setups, setups, writes = [], [], []
    for _ in range(0 if args.trace else SETUP_ONLY_CHILDREN):
        host_s, scaled_s, write_s, _ = spawn(args, setup_only=True)
        host_setups.append(host_s)
        setups.append(scaled_s)
        writes.append(write_s)
    host_s, scaled_s, write_s, output = spawn(args, setup_only=False)
    host_setups.append(host_s)
    setups.append(scaled_s)
    writes.append(write_s)
    child_result = json.loads(output.strip().splitlines()[-1])
    attempted, failed = child_result["attempted"], child_result["failed"]
    if args.trace:
        names = ([n for n, *_ in PER_LAYER_TIMES] + ["sim.us_per_record"]
                 + PER_LAYER_COUNTS + list(PER_LAYER_OTHER))
    else:
        child_result["metrics"]["setup_s"] = statistics.median(setups)
        child_result["extra"]["host_setup_s"] = statistics.median(host_setups)
        child_result["extra"]["write_inputs_s"] = statistics.median(writes)
        names = list(END_TO_END)
    metrics = {name: child_result["metrics"][name] for name in names}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "setup_samples_s": setups,
        "host_setup_samples_s": host_setups,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "attempted": attempted, "failed": failed,
        "extra": child_result.get("extra", {}), "metrics": metrics,
    }
    with open(result_path(args.workload, args.seed, args.trace), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print("machine: %s" % json.dumps(record["machine"]))
    print("workload %s seed %d: attempted=%d failed=%d failed_ratio=%g %s"
          % (args.workload, args.seed, attempted, failed, record["failed_ratio"],
             json.dumps(record["extra"])))
    for name, value in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, unit_of(name)))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


# Names of the end-to-end metrics on the workload where each applies.
ALIASES = {
    "press-stream": {"items_per_s": "presses_per_s"},
    "policy-matrix": {"items_per_s": "policies_per_s", "op_p50_ms": "classify_p50_ms",
                      "op_p99_ms": "classify_p99_ms"},
    "oracle-sweep": {"items_per_s": "oracle_candidates_per_s"},
}


def run_all(args) -> int:
    """Every workload, untraced then traced; one table of every metric."""
    summary = {}
    attempted = failed = 0
    print("%-14s %-44s %14s  %s" % ("workload", "metric", "value", "unit"))
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(trace)],
                           stdout=subprocess.DEVNULL, check=True)
            with open(result_path(workload, args.seed, trace), encoding="utf-8") as handle:
                record = json.load(handle)
            attempted += record["attempted"]
            failed += record["failed"]
            rows = {name: (value, unit_of(name)) for name, value in record["metrics"].items()}
            if not trace:
                rows["op_p99_ms"] = (record["extra"]["op_p99_ms"], "ms")
                rows["failed_ratio"] = (record["failed_ratio"], "ratio")
            for name, (value, unit) in rows.items():
                alias = ALIASES[workload].get(name)
                label = name if alias is None else "%s (%s)" % (alias, name)
                print("%-14s %-44s %14.6g  %s" % (workload, label, value, unit))
                summary["%s.%s" % (workload, name)] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": summary}
    with open(os.path.join(OUT, "all-seed%d.json" % args.seed), "w", encoding="utf-8") as handle:
        json.dump(dict(result, machine=machine(), seed=args.seed, seconds=args.seconds,
                       date=time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())),
                  handle, indent=1)
    print("machine: %s" % json.dumps(machine()))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def result_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload, seed, trace))


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in PER_LAYER_OTHER:
        return PER_LAYER_OTHER[name]
    if name in PER_LAYER_COUNTS:
        return "count"
    if name == "sim.us_per_record":
        return "us"
    return next(unit for n, unit, *_ in PER_LAYER_TIMES if n == name)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "rkesim", "__init__.py")):
        print("no rkesim sources under %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.child:
        return child(args)
    # Turn SIGTERM into SystemExit, so that the handlers around each child
    # process kill and reap it before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
