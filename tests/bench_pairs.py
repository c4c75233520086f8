"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python tests/bench_pairs.py A B --workload W --pairs N [--seed S] [--seconds T]

A and B are checkout directories, each with its own ``bench/run.py``.
Each pair runs ``bench/run.py --workload W --trace 0`` once in each
checkout, one after the other; odd pairs run A first, even pairs B
first, so that a drift in host speed falls on both sides alike.  Every
run's ``failed`` count and metrics are printed as it finishes.  At the
end, for each end-to-end metric that A's ``BENCHMARK.json`` declares,
it prints the median [q1, q3] of each side, the ratio of the medians
B / A, and in how many pairs B was better (higher or lower, as the
metric declares).

Exits 1 when a run failed an operation, exited non-zero or printed no
result line, else 0.  Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

TIMEOUT_S = 1800


class RunError(Exception):
    """A benchmark run that failed or gave no usable result."""


def end_to_end(checkout: str) -> dict[str, str]:
    """Metric name -> "higher" or "lower", from the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    return {metric["name"]: metric["better"] for metric in declared}


def run_once(checkout: str, args) -> dict:
    """One ``bench/run.py`` run; its last stdout line, a JSON object."""
    command = [sys.executable, os.path.join(checkout, "bench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed), "--trace", "0"]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RunError("%s: bench/run.py exited %d" % (checkout, proc.returncode))
    lines = proc.stdout.strip().splitlines() or [""]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or not {"failed", "metrics"} <= result.keys():
        raise RunError("%s: bench/run.py printed no result line" % checkout)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def table(metrics: dict[str, str], runs: dict[str, list[dict]]) -> list[str]:
    lines = ["%-14s %-30s %-30s %7s  %s" % ("metric", "A median [q1, q3]",
                                             "B median [q1, q3]", "B/A", "B better")]
    for name, better in metrics.items():
        try:
            values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                      for side in ("A", "B")}
        except (KeyError, TypeError):
            raise RunError("a run did not report %s" % name) from None
        cells = []
        for side in ("A", "B"):
            q1, median, q3 = quartiles(values[side])
            cells.append("%.6g [%.6g, %.6g]" % (median, q1, q3))
        median_a = statistics.median(values["A"])
        ratio = statistics.median(values["B"]) / median_a if median_a else float("nan")
        wins = sum((b > a) if better == "higher" else (b < a)
                   for a, b in zip(values["A"], values["B"]))
        lines.append("%-14s %-30s %-30s %7.3f  %d/%d"
                     % (name, cells[0], cells[1], ratio, wins, len(values["A"])))
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", metavar="A", help="baseline checkout")
    parser.add_argument("b", metavar="B", help="checkout compared with A")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="passed on to bench/run.py; its own default if absent")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    runs: dict[str, list[dict]] = {"A": [], "B": []}
    bad = 0
    try:
        metrics = end_to_end(checkouts["A"])
        for pair in range(1, args.pairs + 1):
            for side in ("A", "B") if pair % 2 else ("B", "A"):
                result = run_once(checkouts[side], args)
                runs[side].append(result)
                values = " ".join("%s=%.6g" % (name, result["metrics"][name]["value"])
                                  for name in metrics if name in result["metrics"])
                print("pair %d %s: failed=%s attempted=%s %s"
                      % (pair, side, result["failed"], result.get("attempted"), values),
                      flush=True)
                if result["failed"] != 0 or result.get("correct") is False:
                    bad += 1
        print("\n".join(table(metrics, runs)))
    except (RunError, OSError, ValueError, KeyError, TypeError,
            subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if bad:
        print("%d run(s) failed an operation" % bad, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
