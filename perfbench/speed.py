"""The interpreter speed of the machine at the moment, from a fixed piece of work.

The benchmark host is shared: identical pure-Python work runs up to twice as
slowly, for seconds to minutes at a time, when neighbours are busy.  A
``Gauge`` times ``calibrate`` after every unit of timed work (a few tens of
milliseconds) and scales the unit's timing by ``REFERENCE_S`` over the mean
of the calibrations on either side, so that two runs of the same code agree
whatever the host was doing.  The work mixes what the program spends its time
on (calls, attribute access, float arithmetic, dicts, ``random``, SHA-256 and
JSON) and uses nothing from ``sortline``, so no change to the program moves it.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

# Median calibration time on the reference host, a quiet 2-core Xeon VM
# with CPython 3.11.7 (see README.md).
REFERENCE_S = 0.0100


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def scaled(self, k: float) -> "_Point":
        return _Point(self.x * k, self.y * k)


def calibrate() -> float:
    """Seconds taken by the fixed calibration work."""
    start = time.perf_counter()
    rng = random.Random(12345)
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(5000):
        p = _Point(rng.uniform(0.0, 1.0), rng.random()).scaled(1.5)
        acc += min(max(p.x - p.y, 0.0), 1.0)
        table[i & 127] = acc
        if i % 40 == 0:
            blob = json.dumps({"i": i, "acc": acc, "row": [p.x, p.y]})
            acc += json.loads(blob)["row"][0] * 1e-6
            acc += hashlib.sha256(blob.encode()).digest()[0] * 1e-9
    return time.perf_counter() - start


class Gauge:
    """Speed factors for consecutive units of timed work."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.before = calibrate() if enabled else REFERENCE_S

    def factor(self) -> float:
        """Call right after a unit: calibrates, and returns the factor that
        scales the unit's timings to the reference speed (1.0 when disabled)."""
        if not self.enabled:
            return 1.0
        after = calibrate()
        factor = 2.0 * REFERENCE_S / (self.before + after)
        self.before = after
        return factor
