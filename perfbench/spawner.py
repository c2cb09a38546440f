"""Start child processes on request and report how each one ran.

Reads one JSON request per line on stdin (``argv``, ``stdout``, ``stderr``
paths), runs the command to completion, and answers with one JSON line: wall
time, user + system time and peak resident set from ``os.wait4``, the exit
code, and the monotonic clock when the child was reaped.

It exists to stay small.  Linux carries the spawning process's peak resident
set into a child's ``ru_maxrss`` (the child starts in the parent's memory and
keeps its high-water mark across ``exec``), so children started from the
benchmark itself, which grows while it checks a 3.5 MB report or runs the
traced in-process loop, would report at least the benchmark's own peak.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            ended = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "rc": proc.returncode,
            "ended": ended,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
