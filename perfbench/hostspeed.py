"""Host speed, sampled on the benchmark's CPU while it runs.

On a shared host other tenants slow a process by up to 1.8x, for seconds
to minutes at a time.  CPU time slows with wall time, so the loss is not
time spent descheduled but slower execution.  A sampler process, pinned
with the benchmark, times a fixed kernel every SAMPLE_PERIOD seconds: 10
solves of a 28x28 system plus interpreter work, the program's mix.  It
times the kernel in its own CPU time, so sharing the CPU with the
benchmark does not count.  A time multiplied by REF_NOMINAL over the
kernel's time while it ran reads as it would at the nominal host speed.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
from bisect import bisect_left, bisect_right

#: Kernel CPU seconds at the nominal speed: the sampler's median kernel
#: time in 15 benchmark runs on the 2-core host the benchmark was tuned on,
#: sharing the CPU with the program as in every run.  Scaled times there
#: read about as raw ones.
REF_NOMINAL = 4.4e-4

#: The kernel is short, so that the sampler, which shares the program's
#: CPU, delays an operation by a fraction of a millisecond at most, too
#: little to move the latency tail.
KERNEL_SOLVES = 10
SAMPLE_PERIOD = 0.05

#: Seconds of samples on each side of a timed interval that its scale also
#: takes in.  One sample is noisy and slowdowns last seconds or longer, so
#: a short interval scaled by the one sample next to it would carry that
#: sample's noise into the tail of the latencies.
WINDOW = 1.0

SAMPLER_CODE = f"""
import time
import numpy as np
rng = np.random.default_rng(0)
a = rng.random((28, 28)) + 28.0 * np.eye(28)
b = rng.random(28)
while True:
    t0 = time.process_time()
    acc = 0.0
    for _ in range({KERNEL_SOLVES}):
        x = np.linalg.solve(a, b)
        acc += float(x @ x)
        for k in range(30):
            acc += 0.5 * k
    print(time.perf_counter(), time.process_time() - t0, flush=True)
    time.sleep({SAMPLE_PERIOD})
"""


class HostSpeed:
    """Runs the sampler for the duration of a `with` block.

    After the block, scale(t0, t1) gives REF_NOMINAL over the median kernel
    time sampled in [t0 - WINDOW, t1 + WINDOW] (perf_counter times), or
    next to it when no sample falls there.
    """

    def __init__(self, env: dict):
        self.env = env
        self.times: list[float] = []
        self.kernel: list[float] = []

    def __enter__(self) -> "HostSpeed":
        self._proc = subprocess.Popen(
            [sys.executable, "-c", SAMPLER_CODE],
            stdout=subprocess.PIPE, text=True, env=self.env,
        )
        self._read_line(self._proc.stdout.readline())  # the sampler is running
        # drain the pipe as the sampler writes, so it never blocks on a full pipe
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.wait(timeout=60)
        self._reader.join(timeout=60)
        self._proc.stdout.close()

    def _read(self) -> None:
        for line in self._proc.stdout:
            self._read_line(line)

    def _read_line(self, line: str) -> None:
        fields = line.split()
        if len(fields) == 2:  # the last line may be cut by the signal
            self.times.append(float(fields[0]))
            self.kernel.append(float(fields[1]))

    def scale(self, t0: float, t1: float) -> float:
        if not self.kernel:
            raise RuntimeError("the host speed sampler produced no samples")
        lo = bisect_left(self.times, t0 - WINDOW)
        hi = bisect_right(self.times, t1 + WINDOW)
        window = self.kernel[lo:hi] if hi > lo else self.kernel[max(lo - 1, 0):lo + 1]
        return REF_NOMINAL / statistics.median(window)

    def median_scale(self) -> float:
        return REF_NOMINAL / statistics.median(self.kernel)
