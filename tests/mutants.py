"""Run the tier-1 suite against hand-written mutants of ``src/rkesim``.

    python tests/mutants.py

Each entry of ``MUTANTS`` replaces one exact piece of text in one file
of ``src/rkesim``.  The script copies the checkout into a temporary
directory once; for each mutant it applies the change there, runs
``pytest -x`` (``tests`` and ``bench``) in the copy and restores the
file.  The checkout itself is never written.  A mutant is killed when
the suite fails.  A survivor is allowed only when its entry is marked
equivalent, with the argument why no input can tell it from the
program.  Exits 1 on a survivor that is not marked equivalent, on an
equivalent mutant that the suite kills (its argument no longer holds),
or on a mutant whose old text does not occur exactly once in its file;
else 0.  Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (file under src/rkesim, old text, new text, None or the argument that
#  the mutant is equivalent).
MUTANTS = (
    ("receiver.py", "or not 0 < step < _HALF_RING):", "or not 0 < step):", None),
    ("receiver.py", "    record.resync = None\n    record.rollback.clear()",
     "    record.rollback.clear()", None),
    ("receiver.py", "c_k == (buffered + 1) % COUNTER_MOD", "c_k == buffered + 1", None),
    ("receiver.py", "    state.learn_buffer = None\n    if payload.counter",
     "    if payload.counter", None),
    ("receiver.py", "payload.counter != (buffered[1] + 1) % COUNTER_MOD",
     "payload.counter != buffered[1] + 1", None),
    ("receiver.py", "abs(ts - now) > policy.timestamp_check.tolerance_ms",
     "abs(ts - now) >= policy.timestamp_check.tolerance_ms", None),
    ("receiver.py", "len(buffer) >= profile.signals_required",
     "len(buffer) == profile.signals_required",
     "an accept clears the rollback buffer, so it never grows past the bound"),
    ("sim.py", "while queue and queue[0][0] < at:", "while queue and queue[0][0] <= at:", None),
    ("sim.py", "counter_base(record, self.policy, button)", "record.counter", None),
    ("cli.py", '_marked(row["signature"], row["incomplete"])', '_marked(row["signature"], False)',
     None),
    ("codebook.py", "        return _authentic(key, serial, encoded)",
     "        return encoded if encoded.timestamp is None or encoded.signature == "
     "timestamp_tag(key, serial, encoded.timestamp) else None", None),
    ("codebook.py", "        return _authentic(key, serial, encoded)",
     "        return encoded if encoded.discrimination == discrimination_for(key, serial) "
     "else None", None),
    ("codebook.py", "in _DECODED_TYPES:", "in _DECODED_TYPES or True:", None),
    ("codebook.py", "if button_code not in _BUTTONS_BY_CODE or flags not in (0, 1):",
     "if flags not in (0, 1):", None),
    ("codebook.py", "if button_code not in _BUTTONS_BY_CODE or flags not in (0, 1):",
     "if button_code not in _BUTTONS_BY_CODE:", None),
    ("codebook.py", "if ts_value or sig_value:", "if ts_value:", None),
    ("codebook.py", "if ts_value or sig_value:", "if sig_value:", None),
    ("sim.py", 'if get("captured"):', 'if src == VICTIM and get("captured"):',
     "the channel never captures an attacker replay"),
    ("scenario.py", "body.index(word, column - 1)", "body.index(word)", None),
    ("scenario.py", "column = start + len(word)", "column = start", None),
    ("scenario.py", "if flag in words[4:index]:", "if flag in words[5:index]:", None),
    ("scenario.py", "        if section != \"[fob]\":\n            seen.add(section)",
     "        if section not in (\"[fob]\", \"[events]\"):\n            seen.add(section)", None),
    ("scenario.py", "events.append(_event(line, presses)))\n            continue",
     "events.append(_event(line, presses)))", None),
    ("scenario.py",
     "header = _until_header(lines, lambda line: events.append(_event(line, presses)))",
     "header = [events.append(_event(line, presses)) for line in lines] and None", None),
    ("scenario.py", "key = tuple(words[2:])", "key = tuple(words[2:4])", None),
    ("fob.py", "@lru_cache(maxsize=64, typed=True)", "@lru_cache(maxsize=64)", None),
    ("analyzer.py", "            _union(success_gaps, marshal.loads(payload))",
     "            marshal.loads(payload)", None),
    ("analyzer.py", "part = starts[i::workers]", "part = starts[i + workers::workers]", None),
    ("analyzer.py", "os._exit(0 if error is None else 1)", "os._exit(0)", None),
    ("cli.py", '["%%-%ds" % w for w in widths[:-1]] + ["%s"]', '["%%-%ds" % w for w in widths]',
     None),
    ("analyzer.py",
     "witness_gap = max(gapped_pass) if gapped_pass else max(consecutive_pass)",
     "witness_gap = max(passing)",
     "a gapped run passes only under loose rollback, and there the consecutive run passes "
     "only at gaps where the gapped one does: both replay at the same times in ascending "
     "counter order, and a gapped capture's timestamp is the fresher"),
)


def _suite_passes(checkout: str) -> bool:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a mutant and its restore may share an mtime
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "tests", "bench"]
    return subprocess.run(command, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    started = time.monotonic()
    faults = 0
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out"
    )
    with tempfile.TemporaryDirectory(prefix="rkesim-mutants-") as scratch:
        checkout = os.path.join(scratch, "rkesim")
        shutil.copytree(REPO, checkout, ignore=ignore)
        for file, old, new, equivalent in MUTANTS:
            path = os.path.join(checkout, "src", "rkesim", file)
            with open(path, encoding="utf-8") as handle:
                original = handle.read()
            label = "%s: %r -> %r" % (file, old, new)
            if original.count(old) != 1:
                faults += 1
                print("bad     %s  (old text occurs %d times)" % (label, original.count(old)))
                continue
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(original.replace(old, new))
            try:
                survived = _suite_passes(checkout)
            finally:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(original)
            if survived and equivalent:
                print("equiv   %s  (%s)" % (label, equivalent))
            elif survived:
                faults += 1
                print("SURVIVED %s" % label)
            elif equivalent:
                faults += 1
                print("KILLED, marked equivalent: %s  (%s)" % (label, equivalent))
            else:
                print("killed  %s" % label)
    print("%d mutants, %d faults, %.0f s" % (len(MUTANTS), faults, time.monotonic() - started))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
