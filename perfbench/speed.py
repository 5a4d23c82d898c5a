"""Machine-speed calibration interleaved with the timed work.

The shared VMs this benchmark runs on change speed by 20-70% over seconds
and over tens of minutes, and process CPU time moves with wall time: the
slowdown sits below the scheduler (it does not show as steal), so neither
clock removes it.  What does stay steady is the ratio between two kinds of
work timed in the same stretch.  So the benchmark times a fixed block of
work that is not the program's (interpreter work, array work on a grid of
table size, many small numpy calls) between operations, and scales the
run's times by ``REFERENCE_S / mean block time``: they read as times at
the speed where the block takes ``REFERENCE_S``.  The program cannot
change the block, so a faster program still reads faster.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# About the mean block time in runs on a 2-vCPU Intel Xeon VM (2.1 GHz),
# Python 3.11.7, numpy 2.4.6.  Only a scale: any fixed value gives steady figures.
REFERENCE_S = 0.003
SHARE = 0.25             # calibration time as a share of the timed work it scales
MIN_BLOCKS = 3

_R = np.linspace(1e-4, 40.0, 2001)
_POLY = np.array([0.5, -3.0, 2.0, 1.0])


def _poly(x: float) -> float:
    return ((0.5 * x - 3.0) * x + 2.0) * x + 1.0


def _block() -> float:
    acc = 0.0
    last = {}
    for k in range(6000):  # interpreter: calls, float arithmetic, a dict
        acc += _poly((k % 97) * 0.013)
        last[k & 63] = acc
    for a in (0.9, 1.3, 1.7, 2.1):  # arrays the size of a default spinor grid
        s = np.exp(-a * _R)
        y = s ** 0.7 * (1.0 - s) ** 2.5 * np.polyval(_POLY, s)
        acc += float(np.sum(y * y) * (_R[1] - _R[0]))
    for k in range(400):  # per-call overhead of small numpy operations
        v = np.array([float(k), 1.0, 2.0])
        acc += float(np.sqrt(v @ v))
    return acc


class Speed:
    """Calibration blocks timed during one run, between its operations.

    The scale is the ratio of two sums, the work's time and the blocks'
    time, so slow and fast stretches weigh by how long they lasted: a
    ratio taken per operation would let a burst of noise that hits one
    short calibration scale a whole operation.
    """

    def __init__(self) -> None:
        self.blocks: list[float] = []

    def calibrate(self, covering_s: float) -> None:
        """Time blocks worth ``SHARE`` of ``covering_s`` seconds of work just done."""
        for _ in range(max(MIN_BLOCKS, round(SHARE * covering_s / REFERENCE_S))):
            t0 = perf_counter()
            _block()
            self.blocks.append(perf_counter() - t0)

    def factor(self) -> float:
        """Scale from this run's times to times at reference speed."""
        return REFERENCE_S / statistics.fmean(self.blocks)
