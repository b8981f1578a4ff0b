"""Machine-speed calibration for the end-to-end times.

The 2-core virtual machine this benchmark was written on changes speed by
up to 1.6x for seconds to minutes at a time, in every kind of work the
program does.  A run that falls into a slow period is slow in every
stage, so medians within a run do not remove it.  A fixed kernel, which
calls no code of the program, is timed before and after every timed pass;
each pass is reported as its seconds times NOMINAL_S over the kernel's
seconds around it, i.e. in seconds of a machine that runs the kernel in
NOMINAL_S.  The raw seconds are kept in the result file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import special

REPEATS = 3
_Z = np.linspace(1.0, 30.0, 1000) * (1.0 - 0.3j)


def _kernel() -> None:
    """Bessel and Hankel calls on a thousand points, as the solver makes
    them.  Of the kernels tried (this one, interpreted complex arithmetic, a
    numpy-scalar quadrature) it followed the speed of the solve, density and
    det passes best; the interpreted ones changed speed by up to 2x between
    runs in which the passes changed by 1.5x."""
    for order in range(8):
        g = np.log(special.jve(order + 0.5, _Z) * special.hankel1e(order + 0.5, _Z))
        np.exp(g - g.real.max())


# the kernel's seconds on the machine the benchmark was written on, in its
# fast periods; it only sets the scale of the reported times
NOMINAL_S = 0.02


def kernel_seconds() -> float:
    """Median seconds of REPEATS runs of the kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrated(seconds: float, before: float, after: float) -> float:
    """seconds in units of a machine that runs the kernel in NOMINAL_S,
    from the kernel's seconds before and after."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
