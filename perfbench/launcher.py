"""Spawn benchmark jobs from a small process, so that each job's peak RSS is its own.

On Linux a child's ``ru_maxrss`` starts at its parent's peak RSS when it is
spawned.  Jobs spawned straight from the harness, whose memory grows as it
reads trace files, would report the harness's peak instead of their own.  The
harness starts this launcher once, before it grows, and writes one job per
line to its standard input:

    {"argv": [...], "stderr": PATH, "timeout": SECONDS}

For each job the launcher writes back one line: wall seconds from spawn to
exit, exit code, and ``ru_maxrss`` in KiB.  A job still running at its
timeout is killed.  The launcher exits at the end of its input.
"""

import json
import os
import signal
import sys
import time

_running = [0]


def _kill_running(signum, frame):
    os.kill(_running[0], signal.SIGKILL)


def main():
    signal.signal(signal.SIGALRM, _kill_running)
    for line in sys.stdin:
        job = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, job["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        _running[0] = os.posix_spawn(job["argv"][0], job["argv"], os.environ, file_actions=actions)
        signal.alarm(job["timeout"])
        _, status, usage = os.wait4(_running[0], 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
        sys.stdout.write(f"{wall!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
