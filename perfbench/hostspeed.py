"""Host speed, sampled while a workload runs, and reference seconds.

The benchmark runs on shared hosts that slow a busy virtual CPU in two
ways, each by tens of percent over stretches from tenths of a second to
minutes: the hypervisor takes the CPU away (steal time), and while the
program has it, neighbours sharing the core make it run up to 2.5x
slower.  Measured intervals are therefore timed on ``CLOCK``, the
process's CPU time, which leaves stolen time out.  For the rest, while a
run measures, :class:`Sampler` times a fixed kernel, owned by the
benchmark and untouched by the program, every ``INTERVAL_S`` of wall time
from a ``SIGALRM`` handler.  Each measured interval is then reported in
*reference seconds*: its CPU seconds, less the kernel samples inside it,
times ``REFERENCE_S`` over the median kernel time inside it (or nearest to
it).  A change to the program moves the intervals but not the kernel, so
it moves reference seconds as it moves CPU seconds; a slower host moves
both and cancels out.

The kernel is small object-heavy Python of the program's own kind:
fixed-point response-time iterations over generated task sets, with
slotted objects, sorting, dict and frozenset work.  Samples run with the
garbage collector off, so the program's heap cannot slow them.  The
handler runs between two bytecodes of the program on its own thread, so a
sample never straddles the start or end of a measured interval.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import math
import signal
import statistics
import time
from typing import Dict, Iterator, List

#: The clock of measured intervals and kernel samples: CPU seconds of this
#: process (the program runs on its one thread).  It also leaves out time
#: spent waiting on the disk, which is below 1% of every workload.
CLOCK = time.process_time
#: Median kernel seconds of one sample on the host the benchmark was tuned
#: on (2-vCPU KVM guest, Intel Xeon model 143, Python 3.11), when it was
#: quiet.  Scaling by it keeps reference seconds near that host's wall
#: seconds.
REFERENCE_S = 0.00102
#: Task-set rounds per kernel sample (about 1 ms on that host).
ROUNDS = 25
#: Wall seconds between samples: the kernel takes about 4% of a run.
INTERVAL_S = 0.025
#: An interval's host speed is the median of the samples inside it, or of
#: the ``NEAREST`` samples closest to it when it holds fewer.  The host's
#: speed changes within tenths of a second, so nearer samples track it
#: better than more samples do.
NEAREST = 5


class _Task:
    __slots__ = ("name", "wcet", "period", "prio")

    def __init__(self, name: str, wcet: float, period: int, prio) -> None:
        self.name = name
        self.wcet = wcet
        self.period = period
        self.prio = prio


def _response_times(tasks: List[_Task]) -> Dict[str, float]:
    ordered = sorted(tasks, key=lambda task: task.prio)
    out: Dict[str, float] = {}
    for index, task in enumerate(ordered):
        response = task.wcet
        while True:
            demand = task.wcet + sum(math.ceil(response / higher.period) * higher.wcet
                                     for higher in ordered[:index])
            if demand == response or demand > task.period:
                break
            response = demand
        out[task.name] = response
    return out


def kernel(rounds: int = ROUNDS) -> int:
    """The fixed work: ``rounds`` generated task sets, analysed."""
    state = 12345
    verdicts: Dict[frozenset, int] = {}
    for round_index in range(rounds):
        tasks = []
        for slot in range(12):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            period = 10 + state % 90
            tasks.append(_Task(f"c{round_index}_{slot}", 1 + state % 7 / 10.0,
                               period, (period, slot)))
        times = _response_times(tasks)
        key = frozenset(name for name, response in times.items()
                        if response <= 100)
        verdicts[key] = verdicts.get(key, 0) + len(times)
    return sum(verdicts.values())


class Sampler:
    """Kernel samples taken every ``INTERVAL_S`` while :meth:`running`."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []

    @contextlib.contextmanager
    def running(self) -> Iterator["Sampler"]:
        kernel()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def _sample(self, _signum, _frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = CLOCK()
            kernel()
            ended = CLOCK()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(started)
        self.durations.append(ended - started)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the ``CLOCK`` interval ``[start, end]``."""
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_left(self.starts, end)
        busy = sum(self.durations[low:high])
        # Widen to the nearest samples until there are enough.
        while high - low < NEAREST and (low > 0 or high < len(self.starts)):
            before = start - self.starts[low - 1] if low else math.inf
            after = self.starts[high] - end if high < len(self.starts) else math.inf
            if before <= after:
                low -= 1
            else:
                high += 1
        return ((end - start - busy) * REFERENCE_S
                / statistics.median(self.durations[low:high]))

    def speed(self) -> float:
        """Median host speed over the whole run, as a share of the reference."""
        return REFERENCE_S / statistics.median(self.durations)
