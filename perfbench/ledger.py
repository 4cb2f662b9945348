"""What a run has checked, and how fast the machine ran while it measured.

On a shared 2-core Intel Xeon VM (Python 3.11.7) whose cores other tenants
also use, speed drifted by up to 40% over minutes.  A run therefore also times
calibration units that no change to qident can move, and reports each time
scaled to a reference machine:

- in-process work by REFERENCE_UNIT_S / (median time of a fixed convolution),
  timed after every operation and repeat for 3% of the time just measured;
- work in fresh processes by REFERENCE_SPAWN_S / (median time of a bare
  ``python -c pass``), spawned after every spawn or CLI command measured.

Over 45 passes of sweep-200 the convolution tracked the pass time with
correlation 0.92; CLI passes tracked the bare interpreter and not it.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
from time import perf_counter
from typing import List, Optional

import reference

REFERENCE_UNIT_S = 1e-3
REFERENCE_SPAWN_S = 0.07
CALIBRATION_SHARE = 0.03
_rng = random.Random(0)  # fixed operands: the unit must not depend on the seed
_UNIT_A = [_rng.randint(-9, 9) for _ in range(121)]
_UNIT_B = [_rng.randint(-9, 9) for _ in range(121)]


class Ledger:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.unit_seconds: List[float] = []
        self.spawn_seconds: List[float] = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)

    def calibrate(self, after: float) -> float:
        """Time calibration units for CALIBRATION_SHARE of `after` seconds of
        measured work, and at least one, so that the samples weight each part
        of the run by its length.  Returns the seconds spent calibrating."""
        spent = 0.0
        while spent == 0.0 or spent < CALIBRATION_SHARE * after:
            start = perf_counter()
            reference.convolve(_UNIT_A, _UNIT_B, 120)
            took = perf_counter() - start
            self.unit_seconds.append(took)
            spent += took
        return spent

    def calibrate_spawn(self) -> float:
        """Time one bare interpreter start; returns the seconds it took."""
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        took = perf_counter() - start
        self.spawn_seconds.append(took)
        return took

    @property
    def scale(self) -> Optional[float]:
        """Factor from this run's in-process wall times to the reference
        machine; None if the run timed no in-process work."""
        return REFERENCE_UNIT_S / statistics.median(self.unit_seconds) if self.unit_seconds else None

    @property
    def spawn_scale(self) -> Optional[float]:
        """Factor from this run's fresh-process wall times to the reference
        machine; None if the run started no process."""
        return REFERENCE_SPAWN_S / statistics.median(self.spawn_seconds) if self.spawn_seconds else None
