"""Write rkesim's canonical outputs to a directory, or diff two such directories.

    python tests/golden_set.py OUT_DIR
    python tests/golden_set.py --diff A B

A refactor that must keep behaviour writes the set from its parent and
from itself and diffs the two; ``--diff`` exits 1 and names every file
that differs.  The set holds, one file each:

* per shipped scenario: the ``--trace-out`` file, plain ``simulate``
  stdout and ``simulate --pretty`` stdout;
* ``matrix --json`` stdout on ``policies/`` and ``policies/extra/``;
* ``repr(classify(p))`` and ``repr(exhaustive_search(p, 0, 8))`` for
  every shipped ``.pol`` and for acceptance criterion 8's policy grid.

The script imports rkesim from the ``src`` beside its own ``tests``
directory, so a copy dropped into another checkout writes that
checkout's set.  Every policy is built from ``.pol`` text, so the set
reads nothing but the file formats and the public functions.
``tests/test_golden.py`` pins the sha256 of every file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from rkesim import analyzer, cli  # noqa: E402
from rkesim.scenario import load_policy, loads_policy  # noqa: E402

SCENARIOS = os.path.join(REPO, "scenarios")
POLICY_DIRS = {"policies": "policies", "extra": os.path.join("policies", "extra")}

# Acceptance criterion 8's twelve policies, as ``[receiver]`` lines.
GRID = {
    "default": "",
    "sw8": "single_window 8",
    "loose2": "rollback 2 loose",
    "strict2_5000": "rollback 2 strict 5000",
    "strict3": "rollback 3 strict",
    "strict5": "rollback 5 strict",
    "loose2_3000": "rollback 2 loose 3000",
    "loose3": "rollback 3 loose",
    "strict2": "rollback 2 strict",
    "strict4": "rollback 4 strict",
    "strict2_8000": "rollback 2 strict 8000",
    "strict3_5000": "rollback 3 strict 5000",
}


def _cli_stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(list(argv))
    if status != 0:
        raise RuntimeError("rkesim %s exited %d" % (" ".join(argv), status))
    return out.getvalue()


def _policies():
    """(group, name, policy) for every shipped ``.pol`` and the grid."""
    for group, directory in POLICY_DIRS.items():
        path = os.path.join(REPO, directory)
        for filename in sorted(os.listdir(path)):
            if filename.endswith(".pol"):
                yield (group, filename[:-4], load_policy(os.path.join(path, filename))[1])
    for name, lines in GRID.items():
        yield "grid", name, loads_policy("rkesim-policy v1\n[receiver]\n%s\n" % lines)[1]


def write_golden_set(out_dir: str) -> None:
    """Write every canonical output into ``out_dir``, one file each.

    ``simulate`` writes a trace file wherever ``RKESIM_TRACE_DIR`` points,
    and says so on stdout, so it must be unset.
    """
    if os.environ.get(cli.TRACE_DIR_ENV):
        raise RuntimeError("unset %s first" % cli.TRACE_DIR_ENV)
    os.makedirs(out_dir, exist_ok=True)
    outputs = {}
    for filename in sorted(os.listdir(SCENARIOS)):
        if not filename.endswith(".scn"):
            continue
        name, path = filename[:-4], os.path.join(SCENARIOS, filename)
        trace_path = os.path.join(out_dir, "scenario.%s.trace" % name)
        _cli_stdout("simulate", path, "--trace-out", trace_path)
        outputs["scenario.%s.stdout" % name] = _cli_stdout("simulate", path)
        outputs["scenario.%s.pretty" % name] = _cli_stdout("simulate", path, "--pretty")
    for group, directory in POLICY_DIRS.items():
        outputs["matrix.%s.json" % group] = _cli_stdout(
            "matrix", os.path.join(REPO, directory), "--json"
        )
    for group, name, policy in _policies():
        outputs["classify.%s.%s" % (group, name)] = repr(analyzer.classify(policy)) + "\n"
        outputs["oracle.%s.%s" % (group, name)] = (
            repr(analyzer.exhaustive_search(policy, 0, 8)) + "\n"
        )
    for name, text in outputs.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def digests(out_dir: str) -> dict[str, str]:
    """sha256 of every file in a golden set directory, by file name."""
    result = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            result[name] = hashlib.sha256(handle.read()).hexdigest()
    return result


def diff(a: str, b: str) -> list[str]:
    """Lines naming each file that is missing from one set or differs."""
    left, right = digests(a), digests(b)
    lines = []
    for name in sorted(left.keys() | right.keys()):
        if name not in right:
            lines.append("only in %s: %s" % (a, name))
        elif name not in left:
            lines.append("only in %s: %s" % (b, name))
        elif left[name] != right[name]:
            lines.append("differs: %s" % name)
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        lines = diff(argv[1], argv[2])
        for line in lines:
            print(line)
        if not lines:
            print("identical: %d files" % len(digests(argv[1])))
        return 1 if lines else 0
    if len(argv) == 1 and not argv[0].startswith("-"):
        write_golden_set(argv[0])
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
