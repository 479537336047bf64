"""Run one command; print its exit code, wall time and peak RSS as JSON.

    python3 launch.py LOG TIMEOUT_S -- ARGV...

The benchmark starts every timed command through this small process. A
child's peak RSS counts the pages of the process it was forked from, so a
command forked straight from the benchmark, which holds NumPy and reloaded
checkpoints, would report the benchmark's memory whenever the command is the
smaller of the two. The command's output goes to LOG; it is killed after
TIMEOUT_S seconds.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    log, timeout, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=out)
        killer = threading.Timer(float(timeout), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"rc": proc.returncode, "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
