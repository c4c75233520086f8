"""Command-line front end.

Three verbs:

* ``simulate``  - run a scenario file, print a run report, optionally
                  write the trace.
* ``classify``  - classify one policy file and print its signature.
* ``matrix``    - classify every ``*.pol`` file in a directory and
                  print a table (aligned text or JSON).

Exit codes: 0 success, 1 runtime error, 2 usage or parse error, 141
when the reader of stdout goes away (``rkesim ... | head -1``): the
status a shell reports for a filter ended by SIGPIPE, with no message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import analyzer, sim
from .receiver import ReceiverPolicy
from .scenario import ParseError, load_policy, load_scenario
from .sim import ScenarioError, Trace

TRACE_DIR_ENV = "RKESIM_TRACE_DIR"


@dataclass(frozen=True)
class RunReport(sim.Summary):
    """A run's ``Summary`` with the scenario name and where the trace went."""

    scenario_name: str
    trace_path: str | None

    def render(self) -> str:
        lines = ["scenario: %s" % self.scenario_name]
        for goal, value in self.goals.items():
            lines.append("%s: %s" % (goal.value, "true" if value else "false"))
        lines.append(
            "presses=%d captures=%d replays=%d resyncs=%d"
            % (self.presses, self.captures, self.replays, self.resyncs)
        )
        if self.trace_path:
            lines.append("trace: %s" % self.trace_path)
        return "\n".join(lines)


def report_from_trace(name: str, trace: Trace, trace_path: str | None) -> RunReport:
    return RunReport(**vars(sim.summarize(trace)), scenario_name=name, trace_path=trace_path)


def _pretty_trace(trace: Trace) -> str:
    """One ``[seconds] kind key=value ...`` line per record; a record with
    no fields ends at its kind."""
    return "".join([
        ("[%12.3fs] %-10s %s" % (at / 1000, kind, " ".join(
            [key + "=" + sim.render_value(value) for key, value in fields.items()]
        ))).rstrip() + "\n"
        for at, kind, fields in trace
    ])


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    trace = sim.run(scenario)
    trace_path = args.trace_out
    if trace_path is None:
        trace_dir = os.environ.get(TRACE_DIR_ENV)
        if trace_dir:
            trace_path = os.path.join(trace_dir, scenario.name + ".trace")
    if trace_path:
        os.makedirs(os.path.dirname(trace_path) or ".", exist_ok=True)
        with open(trace_path, "w", encoding="utf-8") as handle:
            handle.write(trace.render())
    if args.pretty:
        print(_pretty_trace(trace), end="")
    report = report_from_trace(scenario.name, trace, trace_path)
    print(report.render())
    return 0


def _budget_from_args(args) -> analyzer.ProbeBudget:
    gaps = analyzer.DEFAULT_GAP_PROBES_MS
    if args.gaps is not None:
        try:
            gaps = tuple(int(g) for g in args.gaps.split(","))
        except ValueError:
            raise _UsageError("--gaps must be comma-separated integers (ms)")
    try:
        return analyzer.ProbeBudget(max_signals=args.max_signals, gap_probes_ms=gaps)
    except ValueError as exc:
        raise _UsageError(str(exc))


class _UsageError(Exception):
    pass


def cmd_classify(args) -> int:
    budget = _budget_from_args(args)
    name, policy = load_policy(args.policy)
    signature = analyzer.classify(policy, budget)
    print("%s: %s" % (name, _marked(signature.notation(), signature.incomplete)))
    return 0


def _marked(notation: str, incomplete: bool) -> str:
    """A signature's notation as the text outputs show it: marked when its
    bound lies beyond the probe grid."""
    return notation + ("  (incomplete: bound beyond probe grid)" if incomplete else "")


def _policy_summary(policy: ReceiverPolicy) -> str:
    parts = ["sw=%d" % policy.single_window, "dw=%d" % policy.double_window_limit]
    if policy.rollback is not None:
        frame = (
            "unbounded"
            if policy.rollback.timeframe_ms is None
            else "%dms" % policy.rollback.timeframe_ms
        )
        parts.append(
            "rb=%d/%s/%s"
            % (policy.rollback.signals_required, policy.rollback.sequence.value, frame)
        )
    if policy.per_instruction_counters:
        parts.append("per_instr")
    if policy.timestamp_check is not None:
        parts.append("ts=%dms" % policy.timestamp_check.tolerance_ms)
    return " ".join(parts)


def cmd_matrix(args) -> int:
    budget = _budget_from_args(args)
    entries = sorted(name for name in os.listdir(args.policy_dir) if name.endswith(".pol"))
    rows = []
    had_error = False
    for filename in entries:
        path = os.path.join(args.policy_dir, filename)
        try:
            name, policy = load_policy(path)
            signature = analyzer.classify(policy, budget)
            rows.append(
                {
                    "name": name,
                    "policy": _policy_summary(policy),
                    "signature": signature.notation(),
                    "vulnerable": signature.vulnerable,
                    "signals": signature.signals,
                    "sequence": signature.sequence.value if signature.sequence else None,
                    "timeframe_ms": signature.timeframe_ms,
                    "incomplete": signature.incomplete,
                }
            )
        except (ParseError, OSError, ValueError) as exc:
            had_error = True
            rows.append({"name": filename, "error": str(exc)})
    if args.json:
        print(json.dumps({"policies": rows}, indent=2, ensure_ascii=False))
    else:
        _print_matrix_table(rows)
    return 1 if had_error else 0


def _print_matrix_table(rows: list[dict]) -> None:
    headers = ("name", "policy", "signature")
    widths = [len(h) for h in headers]
    textual = []
    for row in rows:
        if "error" in row:
            cells = (row["name"], "ERROR", row["error"])
        else:
            cells = (row["name"], row["policy"], _marked(row["signature"], row["incomplete"]))
        textual.append(cells)
        widths = [max(w, len(str(c))) for w, c in zip(widths, cells)]
    # Every column but the last is padded to its width; the last is not,
    # so no line ends in spaces.
    fmt = "  ".join(["%%-%ds" % w for w in widths[:-1]] + ["%s"])
    print(fmt % headers)
    for cells in textual:
        print(fmt % cells)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkesim",
        description="Rolling-code keyless entry simulator and policy analyzer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("scenario", help="path to a .scn scenario file")
    p_sim.add_argument("--trace-out", help="write the trace to this path")
    p_sim.add_argument("--pretty", action="store_true", help="print a human timeline")
    p_sim.set_defaults(func=cmd_simulate)

    p_cls = sub.add_parser("classify", help="classify a policy file")
    p_cls.add_argument("policy", help="path to a .pol policy file")
    _add_probe_options(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_mat = sub.add_parser("matrix", help="classify every policy in a directory")
    p_mat.add_argument("policy_dir", help="directory of .pol files")
    _add_probe_options(p_mat)
    p_mat.add_argument("--json", action="store_true", help="machine-readable output")
    p_mat.set_defaults(func=cmd_matrix)
    return parser


def _add_probe_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-signals",
        type=int,
        default=analyzer.ProbeBudget.max_signals,
        help="longest replay to try, 2 to %d (the 2N-press probe transcript "
        "stays within half the counter ring)" % analyzer.MAX_PROBE_SIGNALS,
    )
    parser.add_argument(
        "--gaps",
        help="comma-separated replay gap probes in ms, ascending, no repeats; "
        "only a pass at %d ms reads as unbounded" % analyzer.UNBOUNDED_GAP_MS,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at interpreter exit
        # neither fails again nor prints "Exception ignored".
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except ScenarioError as exc:
        for problem in exc.problems:
            print("scenario error: %s" % problem, file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        print("cannot open %s" % exc.filename, file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print("error: %s" % exc, file=sys.stderr)
        return 1
