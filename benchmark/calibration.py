"""Machine-speed calibration for the timed calls.

A shared host's speed drifts by tens of percent over tens of seconds (other
tenants share the cores), and CPU time drifts with wall time, so repeating
work inside a run does not average the drift away.  Each block of timed
calls is therefore bracketed by a short run of a fixed blend of the kinds
of work the program does: interpreter arithmetic, string splitting and
int parsing, list and dict building, a small int64 numpy product and
SHA-256.  A timed call is reported as

    wall seconds * REFERENCE_UNIT_S / (mean unit time of its two brackets)

that is, in seconds at the machine speed where one blend unit takes
REFERENCE_UNIT_S.  The blend is the benchmark's own code, so a change to
the program moves the timed calls and leaves the brackets alone.  The
blend fits in cache, so it does not track calls that stream large arrays;
workloads.UNSCALED names the workloads reported in wall seconds instead.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

# unit time of the blend on the 2-vCPU host the reference figures in
# README.md come from; it only fixes the scale of the reported seconds
REFERENCE_UNIT_S = 0.00112

_TEXT = " ".join(str((i * 7919) % 100003) for i in range(2000))
_BUF = bytes(range(256)) * 1024
_M = (np.arange(48 * 48, dtype=np.int64).reshape(48, 48) * 7919) % 10007


def _unit() -> int:
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) % 1000003
    vals = [int(t) for t in _TEXT.split()]
    rows = {k: vals[k:k + 40] for k in range(0, len(vals), 40)}
    (_M @ _M) % 10007
    hashlib.sha256(_BUF).digest()
    return acc + len(rows)


def unit_seconds(at_least: float) -> float:
    """Mean wall time of one blend unit over at least ``at_least`` seconds."""
    n = 0
    start = time.perf_counter()
    while True:
        _unit()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed >= at_least:
            return elapsed / n
