"""Start and measure the benchmark's child processes from a small process.

Linux carries the peak resident size of a parent's memory image into a
child's ru_maxrss when the child forks and execs.  The benchmark itself
grows large while it checks reports, so it starts every child through
this process, which imports nothing heavy and stays small.

One JSON request per line on stdin, {"argv", "cwd", "env", "timeout"};
one JSON result per line on stdout, {"code", "wall_s", "cpu_s",
"peak_rss_mb"}.  A child's stderr goes to stderr.txt in its cwd.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def measure(argv: list[str], cwd: str, env: dict, timeout: float) -> dict:
    """Run one process to completion, timed from spawn to exit."""
    with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # measure() kills the running child on the way out


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(measure(**json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
