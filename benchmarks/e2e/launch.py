"""Start one job from a small process and report what it cost.

usage: launch.py REPORT.json PROGRAM [ARG ...]

Linux folds the size of the forking process into a child's ``ru_maxrss``
(the pre-exec address space counts), so a job started straight from the
benchmark process — tens of MB of NumPy, hundreds after a traced replay —
would report the benchmark's peak RSS, not its own.  This launcher imports
next to nothing (run it with ``-I -S``), so the job's rusage is the job's.
It times the job from spawn to exit and writes wall seconds, CPU seconds,
peak RSS and the exit code to ``REPORT.json``.
"""

import json
import os
import sys
import time


def main(report: str, argv: list[str]) -> int:
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    # rusage of the job and of every rank process it reaped
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "exit_code": code,
            },
            fh,
        )
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
