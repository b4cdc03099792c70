"""A clock that reads time at the benchmark's reference speed.

This machine is a few cores of a shared host, and its speed drifts: a
fixed pure-Python loop runs up to 1.8 times slower for stretches of a
minute and more, and the slowdown is spread evenly over the run, not
concentrated in gaps.  Raw times of the same work then spread wider than
any useful bound.  So every timed interval is rescaled by the speed the
machine had while it ran:

    scaled = (interval - calibration time inside it) * REF_CHUNK_S / chunk

where ``chunk`` is the time of a fixed calibration loop run many times
around and inside the interval.  A program that gets twice as fast
halves its scaled time; a machine that gets twice as slow leaves it
unchanged.

In a worker, ``SpeedClock`` runs the calibration loop from a SIGALRM
handler every INTERVAL_S of wall time (about 2% of the run), in the same
process and on the same core as the program, and keeps the samples.  The
loop is small-integer interpreter work: it slows under load in step with
the program's own loops, where a loop over big-integer bitsets overstated
the slowdown by about 1.6 times.  ``calibrate`` runs the same loop in
the benchmark's own process, for intervals timed from outside a process.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.02
CHUNK_ITERATIONS = 2000
# Time of one calibration chunk at the machine's fastest, on 2 vCPUs of an
# Intel Xeon host with Python 3.11.  It only fixes the unit: scaled times
# equal raw times when the machine runs at this speed.
REF_CHUNK_S = 0.00028
# The speed of an interval comes from the chunks inside it, or from the
# MIN_CHUNKS nearest to it when fewer ran inside.
MIN_CHUNKS = 10


def calibration_chunk() -> int:
    acc = 0
    kept = []
    for i in range(CHUNK_ITERATIONS):
        acc += (i * 2654435761) % 1009
        if i & 7 == 0:
            kept.append(acc)
    return acc + len(kept)


def calibrate(chunks: int = 8) -> list[list[float]]:
    """Run ``chunks`` calibration chunks now; return them as samples."""
    samples = []
    for _ in range(chunks):
        start = perf_counter()
        calibration_chunk()
        samples.append([start, perf_counter()])
    return samples


class SpeedClock:
    """Samples ``[start, end]`` of the calibration chunks run by SIGALRM."""

    def __init__(self):
        self.samples: list[list[float]] = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        calibration_chunk()
        self.samples.append([start, perf_counter()])

    def start(self) -> None:
        self.samples.extend(calibrate())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.extend(calibrate())


def speed(samples: list[list[float]], start: float, end: float) -> float:
    """Mean speed, relative to REF_CHUNK_S, of the chunks that ran inside
    ``[start, end]``, or of the MIN_CHUNKS nearest to it; the fastest and
    slowest tenth are left out."""
    by_distance = sorted(samples, key=lambda c: max(start - c[0], c[0] - end, 0.0))
    inside = sum(1 for s, _ in samples if start <= s <= end)
    near = sorted(REF_CHUNK_S / (e - s) for s, e in by_distance[:max(inside, MIN_CHUNKS)])
    cut = len(near) // 10
    kept = near[cut:len(near) - cut]
    return sum(kept) / len(kept)


def scaled(samples: list[list[float]], start: float, end: float) -> float:
    """``end - start`` without the chunks run inside it, at reference speed."""
    busy = sum(e - s for s, e in samples if start <= s and e <= end)
    return (end - start - busy) * speed(samples, start, end)
