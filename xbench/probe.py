"""Host-speed probe: rescales a run's timings to a reference CPU speed.

The benchmark runs on a shared machine whose vCPUs change speed by a
fifth or more in spells of seconds to minutes, so a run's wall times
say as much about its neighbours as about the program.  While a
workload runs, a separate process times a fixed pure-Python loop every
``PERIOD_S``, by its own CPU time so that waiting for a core does not
count.  The loop's median time over the run, against ``REFERENCE_S``,
gives the run's speed factor, and every timing (but those a workload
reports as measured, ``WorkloadResult.as_measured``) is reported as it
would read at the reference speed::

    seconds_reported = seconds_measured * REFERENCE_S / median(loop times)

The probe depends only on the machine, never on the program under test,
so a slower program still reads slower.  On the 2-vCPU VM the bounds
were set on, per-job wall times of the flow workload correlated with
the loop time over the same job at r = 0.95 and their spread fell from
0.18 to 0.06 (coefficient of variation) once rescaled.  Raw values are
printed on the ``xbench raw`` line of every run.

Run as a script it is the probe itself: it samples until SIGTERM and
then prints its samples as one JSON list of ``[start, cpu_seconds]``.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from typing import List, Optional, Tuple

#: Iterations of the timed loop: about 2.5 ms of one core.
LOOP_N = 30000
#: Pause between samples; the probe uses about 5% of one core.
PERIOD_S = 0.05
#: The loop's typical time on the VM the bounds were set on.
REFERENCE_S = 0.0025
#: Fewer samples than this and the run's speed factor is not trusted.
MIN_SAMPLES = 10
STOP_TIMEOUT_S = 30.0


def _loop() -> int:
    total = 0
    for i in range(LOOP_N):
        total += i * i % 7
    return total


def _sample_until_stopped() -> None:
    stopped = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopped.append(signum))
    samples: List[Tuple[float, float]] = []
    while not stopped:
        start, cpu = time.perf_counter(), time.thread_time()
        _loop()
        samples.append((start, time.thread_time() - cpu))
        time.sleep(PERIOD_S)
    print(json.dumps(samples))


class HostProbe:
    """Runs the probe process for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "HostProbe":
        self._proc = subprocess.Popen([sys.executable, __file__],
                                      stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        proc, self._proc = self._proc, None
        proc.terminate()
        try:
            out, _ = proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode == 0 and out.strip():
            self.samples = [tuple(s) for s in json.loads(out)]

    def loop_seconds(self) -> List[float]:
        return [cpu for _, cpu in self.samples]


if __name__ == "__main__":
    _sample_until_stopped()
