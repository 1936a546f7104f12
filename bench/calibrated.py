"""Run ``python -m domdensity.cli ARGS`` with a speed probe timed alongside.

    python3 bench/calibrated.py SLICES_FILE ARGS...

The CPU this benchmark gets is shared, and its speed swings by half within
seconds, so the wall time of one command says as much about the host as
about the program.  This wrapper runs a fixed Python kernel (the *slice*)
once at start and then every ``PERIOD_S`` seconds of wall time from a
``SIGALRM`` handler, while the command runs in the same process.  The start
and end of every slice are written to SLICES_FILE as JSON when the command
ends; ``run.scaled_seconds`` turns them into seconds at a fixed speed.

Apart from the handler the command runs exactly as under ``python -m``:
same ``sys.argv[0]`` module, ``sys.path[0]`` the working directory, and the
same exit status, stdout and stderr.
"""

import json
import os
import runpy
import signal
import sys
import time

PERIOD_S = 0.025
KERNEL_ROUNDS = 2500  # about 1.5 ms on a 2-vCPU Xeon VM, Python 3.11


def kernel() -> None:
    """Dict, list, tuple and sort work, the mix the interpreter does in the
    package's inner loops."""
    counts, items = {}, []
    for i in range(KERNEL_ROUNDS):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + 1
        items.append(key ^ i)
        tuple(items[-3:])
    items.sort()


def main() -> None:
    path, argv = sys.argv[1], sys.argv[2:]
    slices = []

    def tick(signum=None, frame=None):
        start = time.perf_counter()
        kernel()
        slices.append((start, time.perf_counter()))

    tick()
    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    sys.argv = ["domdensity.cli", *argv]
    sys.path[0] = os.getcwd()
    try:
        runpy.run_module("domdensity.cli", run_name="__main__", alter_sys=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        with open(path, "w") as out:
            json.dump(slices, out)


if __name__ == "__main__":
    main()
