"""Start one command, wait for it, and write its wall clock and peak memory.

    python3 perfbench/spawn.py RESULT TIMEOUT STDOUT STDERR -- COMMAND...

The command runs in its own session; after TIMEOUT seconds the whole session
is killed.  RESULT receives JSON with the monotonic start and end times, the
exit code, and ``maxrss_kb``: the peak resident set of the command or of any
descendant it waited for (pool workers included), as ``wait4`` reports it.

This stays a separate small process because Linux charges a child, at exec,
with the resident size of the process it was forked from: measured straight
from the benchmark, whose own memory holds the reference data, a small CLI
run would report the benchmark's memory instead of its own.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def kill_session(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main(argv: list[str]) -> int:
    if len(argv) < 6 or argv[4] != "--":
        print("usage: spawn.py RESULT TIMEOUT STDOUT STDERR -- COMMAND...",
              file=sys.stderr)
        return 64
    result, timeout, out_path, err_path, cmd = (argv[0], float(argv[1]), argv[2],
                                                 argv[3], argv[5:])
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(timeout, kill_session, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    kill_session(proc.pid)  # pool workers are reaped by the CLI; this is a backstop
    with open(result, "w") as fh:
        json.dump({"t0": t0, "t1": t1, "exit": proc.returncode,
                   "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
