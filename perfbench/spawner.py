"""Start the measured processes from a small parent.

Linux charges a child's peak resident memory with the peak of the process
that spawned it (the memory the two shared until exec), so a child started
by the benchmark, which holds numpy, the inputs and the reference values,
would report the benchmark's peak instead of its own.  This process stays
small: it reads one JSON command per line on stdin ({argv, cwd, env, stdout,
stderr}, the last two file paths or null), runs it to completion, and
answers with one JSON line: exit status, wall and CPU seconds, and peak
resident memory in MB.  It exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(cmd):
    with open(cmd["stdout"] or os.devnull, "w", encoding="utf-8") as out, \
            open(cmd["stderr"] or os.devnull, "w", encoding="utf-8") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(cmd["argv"], cwd=cmd["cwd"], env=cmd["env"],
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"status": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    main()
