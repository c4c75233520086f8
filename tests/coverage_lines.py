"""List the lines of ``src/rkesim`` that the tier-1 suite never runs.

    python tests/coverage_lines.py

Runs the tier-1 suite (``tests`` and ``bench``) in this process under a
``sys.settrace`` line tracer, then prints every executable line of
``src/rkesim`` that never ran, each marked ``allowed`` with its reason
when ``ALLOWLIST`` names it.  Exits 1 when the suite fails or a missed
line is not on the allowlist, else 0.  Code reached only through a
subprocess test does not count, because only this process is traced.
Tracing slows the suite about five times over.  Stdlib only; pytest does
not collect this file.
"""

from __future__ import annotations

import os
import sys
import threading

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "rkesim")

# (file, stripped text of the first line or None for the whole file,
#  number of lines from there, reason).
ALLOWLIST = (
    ("__main__.py", None, 0,
     "runs only as `python -m rkesim`, which tier-1 starts as a subprocess"),
    ("cli.py", "except Exception as exc:  # runtime failure", 3,
     "no known input reaches the runtime-failure exit; a closed pipe has its own"),
)


def executable_lines(path: str) -> set[int]:
    """Line numbers that carry bytecode in ``path``, its nested code included."""
    return set(line_owners(path))


def line_owners(path: str) -> dict[int, str]:
    """Each line that carries bytecode in ``path``, with the qualified name
    of the innermost code that holds it (``<module>`` at the top level)."""
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    owners: dict[int, str] = {}
    stack = [code]
    while stack:  # a code object's lines are named before its nested code's
        code = stack.pop()
        # A function's first instruction sits on its ``def`` line, which
        # runs when the enclosing code defines it, not when it is called.
        first = code.co_firstlineno if code.co_name != "<module>" else None
        name = getattr(code, "co_qualname", code.co_name)
        owners.update((line, name) for _, _, line in code.co_lines()
                      if line and line != first)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return owners


def traced(run):
    """Call ``run()`` under a line tracer of ``src/rkesim``, threads
    included: (its result, the lines run per file)."""
    ran: dict[str, set[int]] = {}
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, ran


def run_suite() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 under the line tracer: (pytest status, lines run per file)."""
    import pytest  # before tracing: the suite, not its runner, is measured

    return traced(lambda: int(pytest.main([
        "-q", "-p", "no:cacheprovider", "--rootdir", REPO,
        os.path.join(REPO, "tests"), os.path.join(REPO, "bench")])))


def missed_lines(ran: dict[str, set[int]]) -> list[tuple[str, int, str | None]]:
    """(file, line number, allowlist reason) of each executable line not run."""
    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as handle:
            text = handle.read().splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            missed.append((name, line, allowed(name, line, text)))
    return missed


def allowed(name: str, line: int, text: list[str]) -> str | None:
    """The allowlist's reason for ``line`` of ``name``, or None."""
    for file, anchor, count, reason in ALLOWLIST:
        if file != name:
            continue
        if anchor is None:
            return reason
        for start, source in enumerate(text, 1):
            if source.strip() == anchor and start <= line < start + count:
                return reason
    return None


def main() -> int:
    sys.path.insert(0, os.path.join(REPO, "src"))
    if any(module == "rkesim" or module.startswith("rkesim.") for module in sys.modules):
        raise RuntimeError("rkesim was imported before tracing started")
    status, ran = run_suite()
    missed = missed_lines(ran)
    unexpected = 0
    for name, line, reason in missed:
        if reason is None:
            unexpected += 1
            print("missed  src/rkesim/%s:%d" % (name, line))
        else:
            print("allowed src/rkesim/%s:%d  (%s)" % (name, line, reason))
    print("%d missed lines, %d outside the allowlist; pytest exit %d"
          % (len(missed), unexpected, status))
    return 1 if status or unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
