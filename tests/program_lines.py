"""List the lines of ``src/rkesim`` that the program's own entry points never run.

    python tests/program_lines.py

Runs, in this process under the line tracer of ``coverage_lines.py``:
``rkesim simulate`` plain, with ``--pretty`` and with ``--trace-out``
(into a temporary directory) on every shipped scenario; ``rkesim
classify`` on every shipped ``.pol``; ``rkesim matrix`` and ``matrix
--json`` on ``policies/`` and ``policies/extra/``; and
``exhaustive_search(p, 6, 8)`` with ``signature_from_findings`` on every
shipped policy.  Then it prints every executable line of ``src/rkesim``
that none of them ran, grouped by the function that holds it, and a
count per file.  A line listed here runs only in tests, or for inputs
that nothing shipped gives.  It is a report, not a gate: it exits 1
only when an entry point raised or ``rkesim`` exited non-zero, else 0.
Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

from coverage_lines import PACKAGE, REPO, executable_lines, line_owners, traced

SCENARIOS = os.path.join(REPO, "scenarios")
POLICY_DIRS = [os.path.join(REPO, "policies"), os.path.join(REPO, "policies", "extra")]


def run_entry_points(workdir: str) -> list[str]:
    """Run every entry point; a line for each that raised or exited non-zero."""
    from rkesim import analyzer, cli  # under the tracer, so module code counts
    from rkesim.scenario import load_policy

    failures = []

    def attempt(label, call):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = call()
        except Exception as exc:  # a report line, not a crash of the report
            failures.append("%s raised %r" % (label, exc))
        else:
            if status:
                failures.append("%s exited %d" % (label, status))

    def oracle(path):
        findings = analyzer.exhaustive_search(load_policy(path)[1], 6, 8)
        analyzer.signature_from_findings(findings)

    commands = []
    for name in sorted(os.listdir(SCENARIOS)):
        path = os.path.join(SCENARIOS, name)
        commands += [["simulate", path], ["simulate", path, "--pretty"],
                     ["simulate", path, "--trace-out", os.path.join(workdir, name + ".trace")]]
    policies = [os.path.join(directory, name) for directory in POLICY_DIRS
                for name in sorted(os.listdir(directory)) if name.endswith(".pol")]
    commands += [["classify", path] for path in policies]
    commands += [["matrix", directory, *json] for directory in POLICY_DIRS
                 for json in ([], ["--json"])]
    for argv in commands:
        attempt("rkesim " + " ".join(argv), lambda: cli.main(argv))
    for path in policies:
        attempt("oracle " + path, lambda: oracle(path))
    return failures


def main() -> int:
    sys.path.insert(0, os.path.join(REPO, "src"))
    if any(module == "rkesim" or module.startswith("rkesim.") for module in sys.modules):
        raise RuntimeError("rkesim was imported before tracing started")
    os.environ.pop("RKESIM_TRACE_DIR", None)  # simulate would also write a trace there
    with tempfile.TemporaryDirectory(prefix="rkesim-lines-") as workdir:
        failures, ran = traced(lambda: run_entry_points(workdir))
    counts = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        missed = sorted(executable_lines(path) - ran.get(path, set()))
        counts.append((name, len(missed)))
        if not missed:
            continue
        print("src/rkesim/%s" % name)
        by_function: dict[str, list[int]] = {}
        owner = line_owners(path)
        for line in missed:
            by_function.setdefault(owner[line], []).append(line)
        for function, lines in by_function.items():
            print("  %s: %s" % (function, ", ".join(map(str, lines))))
    for name, count in counts:
        print("%5d  src/rkesim/%s" % (count, name))
    print("%d lines never ran" % sum(count for _, count in counts))
    for failure in failures:
        print("FAILED  %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
