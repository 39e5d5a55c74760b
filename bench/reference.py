"""Host-speed references timed next to each measurement.

On a shared host the CPU speed one process gets drifts by about ±20% over
tens of seconds, which moves every wall time with it. The benchmark times a
fixed reference right before and right after each measured interval and
reports the interval scaled by ``nominal / measured reference``: the time it
would take on a host where the reference takes its nominal time. Raw wall
times are recorded next to the scaled ones.

- Op times use a pure-Python loop. It calls no library and starts no thread,
  so no change to irskey, numpy or the BLAS thread policy changes its cost.
- Set-up times use the launch of an interpreter that imports numpy and
  exits. Process start-up and imports drift with page-cache and memory
  contention that the loop does not feel; irskey cannot change this cost.
"""

from __future__ import annotations

import subprocess
import sys
import time

LOOP_ITERATIONS = 400_000
LOOP_NOMINAL_S = 0.04
START_NOMINAL_S = 0.2


def loop_seconds() -> float:
    """Wall time of one run of the reference loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def start_seconds() -> float:
    """Wall time to launch ``python -c "import numpy"`` and wait for it to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


def scaled(wall_s: float, before_s: float, after_s: float, nominal_s: float) -> float:
    """``wall_s`` at nominal host speed, from the reference times bracketing it."""
    return wall_s * nominal_s / (0.5 * (before_s + after_s))
