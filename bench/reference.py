"""Fixed reference kernels that measure how fast the machine runs right now.

On a shared host the same work can take 20-30 % longer in one stretch of
seconds than in the next, in CPU time as well as wall time, so a raw time
says as much about the neighbours as about the program. The harness
therefore runs a kernel between operations and scales each operation's time
by how slow the kernel ran around it: a time reported in seconds is seconds
on a machine where the kernel takes its ``NOMINAL_S``.

A slow stretch does not slow every kind of work alike, so there are two
kernels, each resembling the work of the workloads it serves:

* ``interpreted``: an interpreted Python loop and a Newton-like iteration
  of small numpy operations, long-double arithmetic and banded solves on a
  400-point vector, like the n=399 continuation and multistart runs;
* ``lapack``: dense symmetric tridiagonal eigensolves with eigenvectors
  (a 1.3 MB eigenvector matrix, about the size of a core's L2 cache), like
  the O(n) kernels that dominate the n=1599 runs.

Neither uses anything from the package, so a change to the package cannot
change them.
"""

from __future__ import annotations

import gc
import time

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

N = 400


def interpreted():
    acc = 0
    for i in range(450_000):
        acc += i * i % 7
    x = np.linspace(0.0, 1.0, N)
    ab = np.zeros((3, N))
    ab[0, 1:] = -1.0
    ab[2, :-1] = -1.0
    u = np.ones(N)
    for _ in range(1_200):
        ab[1] = 2.0 + 0.01 * u * u
        ul = u.astype(np.longdouble)
        r = (np.sin(x) * ul - 0.5 * ul**3).astype(float)
        u = np.clip(u + 0.1 * solve_banded((1, 1), ab, r), -2.0, 2.0)
    return acc + float(u.sum())


def lapack():
    x = np.linspace(0.0, 1.0, N)
    off = np.full(N - 1, -1.0)
    acc = 0.0
    for k in range(16):
        w, v = eigh_tridiagonal(2.0 + x + 0.01 * k, off)
        acc += w[0] + v[0, 0]
    return acc


KERNELS = {"interpreted": interpreted, "lapack": lapack}

# Median kernel times on the machine the baseline was measured on
# (2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
NOMINAL_S = {"interpreted": 0.17, "lapack": 0.145}


def seconds(name):
    """Wall time of one run of kernel `name`, with the garbage collector
    held off so that objects the package left behind are not collected on
    its clock."""
    kernel = KERNELS[name]
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()
