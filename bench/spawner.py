"""Start one command per request line and report how it ended.

Reads JSON lines {"argv", "stdout", "stderr", "timeout"} on stdin. For
each, it starts argv (argv[0] an absolute path) with its output sent to
the two files, waits for it, and writes one JSON line
{"code": exit code or null on timeout, "latency": s, "maxrss_kb": n}.

run.py starts its requests through this small process (`python -I -S`,
about 10 MB) rather than from its own larger one: exec keeps the RSS
high-water mark of the image it replaces, so a child's max-RSS is never
below that of the process that started it.
"""

import json
import os
import signal
import sys
import threading
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def spawn(argv, stdout, stderr, timeout) -> dict:
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, FLAGS, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, FLAGS, 0o644)]
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)

    def expire():
        with lock:
            if not state["exited"]:  # until it is reaped, the pid is still the child's
                os.kill(pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["exited"] = True
        _, status, rusage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    latency = time.perf_counter() - start
    code = None if state["killed"] else os.waitstatus_to_exitcode(status)
    return {"code": code, "latency": latency, "maxrss_kb": rusage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["argv"], request["stdout"], request["stderr"],
                      request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
