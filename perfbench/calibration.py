"""Machine-speed calibration: a fixed kernel timed next to every operation.

On a small virtual machine on a shared host, the same work takes up to half as
long again from one minute to the next, and every step slows alike.  A run's
raw wall time therefore mostly measures the host.  The benchmark times this
kernel right before and after each operation (and each set-up) and rescales
the operation's time by how fast the kernel ran then:

    scaled = raw * CAL_NOMINAL_S / mean(kernel before, kernel after)

that is, the operation's time on a machine that runs the kernel in exactly
``CAL_NOMINAL_S`` seconds.  The kernel is the benchmark's own code (numpy
only, like the solvers: small Hermitian eigendecompositions and products, one
BLAS thread), so no change to symtomo changes its time; a symtomo change that
halves an operation's time halves its scaled time.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the machine the figures in README.md come from, in a
# quiet period; it only sets the scale the scaled times are reported in.
CAL_NOMINAL_S = 0.05
_ITERATIONS = 1000

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((16, 16))
_A = _A + _A.T
_V = _rng.standard_normal((64, 16))


def _kernel(iterations: int) -> None:
    x = _A
    for _ in range(iterations):
        w, v = np.linalg.eigh(x)
        x = (v * np.clip(w, 0.0, None)) @ v.T + 1e-3 * _A
        float(np.abs(_V @ x).sum())


def calibration_seconds() -> float:
    """Wall time of one run of the fixed kernel, after a short untimed one.

    The first tens of milliseconds after the process wakes (from waiting on a
    CLI process, say) run slow on a virtual CPU; the untimed warm-up absorbs
    them.
    """
    _kernel(_ITERATIONS // 4)
    start = time.perf_counter()
    _kernel(_ITERATIONS)
    return time.perf_counter() - start


def scale(raw: float, before: float, after: float) -> float:
    """``raw`` seconds, as on a machine that runs the kernel in CAL_NOMINAL_S."""
    return raw * CAL_NOMINAL_S / (0.5 * (before + after))
