"""Start one child process per request; report its wall time, exit code
and own peak RSS.

    python3 -S -I perfbench/spawner.py

Reads one JSON request per line on stdin,

    {"argv": [...], "stdin": PATH, "stdout": PATH, "stderr": PATH, "timeout": SECONDS}

and answers each with one JSON line,

    {"wall_s": ..., "code": EXIT CODE or null after a timeout, "rss_kb": ...}

Why a process of its own: Linux counts the peak RSS of the process that
starts a child into the child's ru_maxrss, because the child runs in its
parent's address space until it calls exec.  Run with -S -I, this process
stays near 9 MB, below any interpreter it starts, so rss_kb is the
child's own peak.  The children get this process's environment.
"""

import json
import os
import select
import sys
from time import perf_counter

SIGKILL = 9  # the signal module would pull in enum and grow this process


def spawn(req: dict) -> dict:
    writable = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, req["stdin"], os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], writable, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], writable, 0o644),
    ]
    t0 = perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        exited = bool(select.select([pidfd], [], [], req["timeout"])[0])
    finally:
        os.close(pidfd)
    if not exited:
        os.kill(pid, SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - t0
    code = os.waitstatus_to_exitcode(status) if exited else None
    return {"wall_s": wall, "code": code, "rss_kb": usage.ru_maxrss}


for line in sys.stdin:
    print(json.dumps(spawn(json.loads(line))), flush=True)
