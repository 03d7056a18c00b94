"""Run one job and record its wall time and its own peak resident memory.

Usage: python3 -S launch.py REPORT_JSON TIMEOUT_S CMD...

Linux carries a process's peak RSS across exec, so a job started straight
from the benchmark, whose interpreter holds inputs and outputs, would report
the benchmark's memory whenever that is larger. This small process starts the
job instead. The job inherits standard output and error, which the caller
drains. The report holds the job's ``wall_s`` (spawn to exit),
``maxrss_kb``, ``exit_code`` and ``timed_out``.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    report, timeout_s, cmd = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    timed_out = False
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)

    def kill(signum, frame):
        nonlocal timed_out
        timed_out = True
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.alarm(timeout_s)
    _, status, usage = os.wait4(pid, 0)
    signal.alarm(0)
    wall = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as handle:
        json.dump({
            "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss,
            "exit_code": os.waitstatus_to_exitcode(status),
            "timed_out": timed_out,
        }, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
