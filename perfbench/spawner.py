"""Spawn and time CLI processes on behalf of run.py, from a process kept small.

Linux folds the memory high-water mark of the process that calls exec into
the peak RSS (``ru_maxrss``) of the program it execs.  A CLI process
spawned straight from the harness would therefore report at least the
harness's own RSS, which is larger than most of the workloads'.  This
process imports almost nothing, so its children report their own peak.

Protocol: one JSON request per line on stdin, with the keys ``argv``,
``cwd``, ``env``, ``timeout``, ``stdout`` and ``stderr`` (output file
paths); one JSON reply per line on stdout, with ``wall_s``, ``cpu_s``,
``max_rss_kb``, ``exit`` and ``timed_out``.  End of input ends the process.
"""

import json
import os
import select
import signal
import sys
from time import perf_counter


def spawn(argv, cwd, env, timeout, stdout, stderr):
    """Fork, exec ``argv`` and wait; the time runs from fork to reaping."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    fds = [os.open(os.devnull, os.O_RDONLY), os.open(stdout, flags, 0o644), os.open(stderr, flags, 0o644)]
    start = perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(cwd)
            for target, fd in enumerate(fds):
                os.dup2(fd, target)
            os.execve(argv[0], argv, env)
        finally:
            os._exit(127)
    for fd in fds:
        os.close(fd)
    pidfd = os.pidfd_open(pid)
    try:
        timed_out = not select.select([pidfd], [], [], timeout)[0]
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    return {
        "wall_s": perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_kb": usage.ru_maxrss,
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
    }


def main():
    for line in sys.stdin:
        print(json.dumps(spawn(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
