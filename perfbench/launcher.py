"""Spawns the processes the benchmark measures, one at a time.

Usage: ``python3 launcher.py``, then one JSON request per stdin line:
``{"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path,
"timeout": seconds}``. Each reply is one JSON line with the monotonic
start time, wall seconds, the child's CPU seconds and peak RSS from
``os.wait4``, and its exit code. The launcher exits when stdin closes.

It exists because Linux carries the parent's peak RSS into a child
spawned with vfork and exec: a child of the benchmark process itself,
which holds 200k-node inputs, would report that process's peak as its
own. This process imports nothing heavy and allocates little, so the
children it spawns report only their own memory.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "t0": t0,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "rc": proc.returncode,
        }), flush=True)


if __name__ == "__main__":
    serve()
