"""Start child processes and measure each one from its own resource usage.

On Linux a child's ``ru_maxrss`` includes the high-water mark of the
process it was forked or vforked from. The benchmark loads NumPy and whole
output files to check them, so a command started directly from it would
report the benchmark's memory, not its own. Commands are therefore
started from a small launcher process, begun before the benchmark grows,
which reads one JSON request per line on stdin and answers with one JSON
line on stdout:

    {"argv": [...], "env": {...}, "stdout": PATH, "timeout_s": S, "cpu": N or null}
    -> {"code": N, "wall_s": S, "cpu_s": S, "rss_mb": MB}

Stderr of the command goes to ``PATH`` with the suffix ``.stderr``. With
a ``cpu`` the command may run on that processor only.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run_child(
    argv: list[str], env: dict, stdout: str, timeout_s: float, cpu: int | None = None
) -> dict:
    """Spawn ``argv`` with stdout and stderr in files and wait for it; it is
    killed if it outlives ``timeout_s``. The command inherits this
    process's processor affinity, narrowed to ``cpu`` if one is given."""
    stderr = os.path.splitext(stdout)[0] + ".stderr"
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    finally:
        os.sched_setaffinity(0, allowed)
    watchdog = threading.Timer(max(timeout_s, 1.0), os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
    }


class Launcher:
    """Handle on a launcher process; start it before the caller grows."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-S", os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(
        self, argv: list[str], env: dict, stdout, timeout_s: float, cpu: int | None = None
    ) -> dict:
        request = {
            "argv": argv, "env": env, "stdout": str(stdout), "timeout_s": timeout_s, "cpu": cpu,
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self._proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        """Stop the launcher and wait for it. One still busy after 5 s gets
        SIGTERM, on which it kills its command before it exits."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.terminate()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    for line in sys.stdin:
        request = json.loads(line)
        reply = run_child(
            request["argv"], request["env"], request["stdout"], request["timeout_s"],
            request["cpu"],
        )
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
