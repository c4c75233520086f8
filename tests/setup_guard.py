"""Count the benchmark's set-up-only children that crash, and time set-up.

    python tests/setup_guard.py [N]

Runs N (default 100) set-up-only oracle-sweep children of the
``bench/run.py`` beside this ``tests`` directory, one after another,
with the command line and environment that ``bench/run.py`` gives its
own set-up children.  A child whose set-up ends before the host-speed
probe's first tick has no probe to scale by, and exits non-zero.
Prints the number of non-zero exits and the min and median probe time
read from the children's ``ready`` lines; a failed child's traceback
goes to stderr.  Then it starts N more fresh processes, with the same
environment, that import ``bench/workloads.py`` and time in-process the
set-up that must outlast the first tick: building the workload (seed 1),
writing its inputs and its warm-up.  It prints their min and median
beside the tick period, so the margin shows before it runs out.  Exits
1 when any child failed, else 0.  Stdlib only; pytest does not collect
this file.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = [sys.executable, os.path.join(REPO, "bench", "run.py"), "--child",
           "--workload", "oracle-sweep", "--seed", "1", "--seconds", "1",
           "--trace", "0", "--setup-only"]
# What ``bench/run.py``'s child does between starting its probe and
# scaling by it, less the work directory it makes first.
TIMED_SETUP = """
import sys, tempfile, time
sys.path[:0] = sys.argv[1:]
import hostspeed, tracer, workloads
with tempfile.TemporaryDirectory() as workdir:
    started = time.perf_counter_ns()
    workload = workloads.WORKLOADS["oracle-sweep"](1, workdir)
    workload.write_inputs()
    workload.warm_up(tracer.NullTracer())
    print(time.perf_counter_ns() - started, hostspeed.PERIOD_S)
"""
TIMER = [sys.executable, "-c", TIMED_SETUP, os.path.join(REPO, "src"),
         os.path.join(REPO, "bench")]
TIMEOUT_S = 170


def main(argv: list[str]) -> int:
    if len(argv) > 1 or argv and not argv[0].isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    children = int(argv[0]) if argv else 100
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    failed = 0
    probe_ms = []
    for _ in range(children):
        proc = subprocess.run(COMMAND, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=REPO, timeout=TIMEOUT_S)
        ready = proc.stdout.split()
        if proc.returncode != 0:
            failed += 1
        elif len(ready) == 4 and ready[0] == "ready":
            probe_ms.append(int(ready[1]) / 1e6)
    print("children: %d  failed: %d" % (children, failed))
    if probe_ms:
        print("probe ms: min %.1f  median %.1f" % (min(probe_ms), statistics.median(probe_ms)))
    setup_ms = []
    for _ in range(children):
        proc = subprocess.run(TIMER, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=REPO, timeout=TIMEOUT_S, check=True)
        elapsed_ns, period_s = proc.stdout.split()
        setup_ms.append(int(elapsed_ns) / 1e6)
    if setup_ms:
        print("in-process set-up ms: min %.2f  median %.2f  (first probe tick at %g ms)"
              % (min(setup_ms), statistics.median(setup_ms), float(period_s) * 1000))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
