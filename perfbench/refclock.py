"""A clock that runs at a fixed reference host speed.

The benchmark shares a few cores of a busy host, whose speed drifts by a
quarter or more over tens of seconds as neighbours come and go. Wall time
alone would then measure the neighbours. This clock samples the host's
speed every PERIOD_S seconds, from a SIGALRM handler, by timing a fixed
pure-Python kernel (dict, set, tuple and list work, like the program's own
inner loops), and advances each interval's wall time scaled by
REF_KERNEL_S / (the kernel's time). Time spent sampling is left out.

A reading is therefore "seconds this work takes on the reference host",
where the kernel takes REF_KERNEL_S: its median on the shared 2 vCPU Xeon
(2.0 GHz, CPython 3.11) the benchmark was tuned on. One sample is noisy,
but over a run of a few seconds or more the sampled speed follows the
program's own: in a four-minute trace on that host, 10-second means of the
kernel's time and of a fixed program op correlated at 0.94, and dividing
one by the other halved the op's spread. A change that makes the program
k times faster shows as k times less clock time, as with a plain wall
clock; a slower or busier host does not.

The handler runs between the program's bytecodes, adds two frames to the
stack, and never raises.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.25
KERNEL_STEPS = 3000
REF_KERNEL_S = 0.0017  # median kernel_s() on the reference host


def kernel_once() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    trail = []
    for i in range(KERNEL_STEPS):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        pair = (key, i & 7)
        if pair not in seen:
            seen.add(pair)
        trail.append(len(seen))
    return time.perf_counter() - start


def kernel_s() -> float:
    """Median of three kernel runs: one run preempted by the scheduler is
    ignored, a host that stays slow is not."""
    a, b, c = kernel_once(), kernel_once(), kernel_once()
    return max(min(a, b), min(max(a, b), c))


class ReferenceClock:
    def __init__(self) -> None:
        self.sampling_s = 0.0  # wall time spent sampling, left out of the clock
        self._scaled = 0.0  # reference seconds up to self._last
        self._factor = REF_KERNEL_S / kernel_s()
        self._last = time.perf_counter()
        self._running = False

    def sample(self, *_signal_args) -> None:
        """Close the current interval at the speed measured when it began
        (so the clock never steps back), and measure the next one's."""
        now = time.perf_counter()
        self._scaled += (now - self._last) * self._factor
        self._factor = REF_KERNEL_S / kernel_s()
        self._last = time.perf_counter()
        self.sampling_s += self._last - now

    def now(self) -> float:
        """Reference seconds elapsed since the clock was made."""
        return self._scaled + (time.perf_counter() - self._last) * self._factor

    def start(self) -> "ReferenceClock":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True
        return self

    def stop(self) -> None:
        """Stop sampling; a last sample closes the final interval."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False
        self.sample()
