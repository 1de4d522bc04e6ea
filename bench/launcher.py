"""Starts CLI processes for ``run.py``, one at a time, and reports
each one's wall time, CPU time, peak RSS and exit code.

``run.py`` does not start them itself because Linux folds the peak RSS of
the process that spawns a child into the child's ``ru_maxrss`` at exec: a
runner that has generated a large input would put a floor under every
figure. This process imports next to nothing, so that floor is the size of
a bare interpreter, which no Python CLI run can go below.

Protocol: one JSON request per line on stdin,
    {"cmd": [executable, arg, ...], "stdout": path, "stderr": path, "timeout": s}
and one JSON reply per line on stdout,
    {"wall_s": ..., "cpu_s": ..., "maxrss_kb": ..., "exit_code": ...}.
A child still running after ``timeout`` seconds is killed. The launcher
exits when stdin closes, and on SIGTERM kills and reaps its running child
first. It starts children in its own working directory and environment.

Children are pinned in turn to each CPU the launcher may use. Left alone,
the scheduler put every child on the same CPU, and on a VM the host slows
each virtual CPU independently, for minutes at a time; taking turns spreads
every run's samples over all of them.
"""
import json
import os
import signal
import sys
import time

_OUTPUT_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
_running = None  # pid of the child not yet reaped


def _kill_running(signum, frame):
    # The child is reaped only after the timer is cleared, so this pid
    # cannot have been recycled.
    if _running is not None:
        os.kill(_running, signal.SIGKILL)


def _terminate(signum, frame):
    if _running is not None:
        os.kill(_running, signal.SIGKILL)
        os.waitpid(_running, 0)
    sys.exit(128 + signum)


def run(request, cpu):
    global _running
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], _OUTPUT_FLAGS, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], _OUTPUT_FLAGS, 0o644),
    ]
    cmd = request["cmd"]
    os.sched_setaffinity(0, {cpu})  # inherited by the child
    start = time.perf_counter()
    _running = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    try:
        # Wait without reaping, so the timer can still signal this pid.
        os.waitid(os.P_PID, _running, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(_running, 0)
    _running = None
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status),
    }


def main():
    signal.signal(signal.SIGALRM, _kill_running)
    signal.signal(signal.SIGTERM, _terminate)
    cpus = sorted(os.sched_getaffinity(0))
    for i, line in enumerate(sys.stdin):
        reply = run(json.loads(line), cpus[i % len(cpus)])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
