"""Run one command and print its wall time, peak RSS and exit code as JSON.

    python3 -S perfbench/spawn.py <timeout_s> <program> [args...]

Linux folds the resident-set high-water mark of the process that spawns
a child into the child's ``ru_maxrss``, so a child started directly by
the benchmark would report the benchmark's own peak.  This small process
sits in between: its footprint is far below any simulate run's, and it
times and reaps the child itself with ``os.wait4``.  The child's standard
output is discarded; its standard error is inherited.  A child still
running after the timeout is killed and reaped.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    timeout, argv = float(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                      "exit_code": os.waitstatus_to_exitcode(status)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
