"""Machine-speed reference: a fixed pure-Python loop timed beside the workload.

The CPU speed of a shared host drifts by half or more over milliseconds
to minutes, which repetition alone does not average away. So right
after every timed operation the benchmark runs this loop in the same
process for SHARE of the operation's time (at least one chunk). The
operation's factor is the mean time of one of those chunks relative to
NOMINAL_CHUNK_S, and the operation's time is divided by it
(`normalize`); each set-up sample is divided by the factor measured
right after it. Calibrating next to each operation, rather than once per
pass, follows the host through changes of speed within a pass.

The loop never calls codeweft and allocates only strings and ints,
which the cyclic garbage collector does not track, so the program
under test reaches a chunk's time only through the CPU caches it
leaves behind. Raw times are kept beside the normalized ones in
`--report` and in each printed row.
"""

from __future__ import annotations

import time

# one chunk's typical mean time beside the workloads on the reference host
# (a shared 2-vCPU Intel Xeon VM, CPython 3.11.7); normalized times read
# as times on that host at its usual speed
NOMINAL_CHUNK_S = 70e-6
SHARE = 0.15  # calibration time per second of operation time

_WORDS = [f"{stem}_{i}" for i in range(80) for stem in ("mutate", "filter", "x", "df$col", "%>%")]
_TABLE = {w: len(w) for w in _WORDS[::3]}


def chunk() -> int:
    total = 0
    for w in _WORDS:
        total += _TABLE.get(w, 1) + len(w.upper())
    return total


class Calibrator:
    """Runs chunks after each operation and keeps one factor per operation."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.chunks = 0
        self.seconds = 0.0
        self.op_factors: list[float] = []  # one per after(), in order

    def after(self, op_s: float) -> None:
        """Run chunks for SHARE of `op_s` seconds, at least one."""
        clock = time.perf_counter
        want = SHARE * op_s
        spent = 0.0
        n = 0
        while True:
            t0 = clock()
            chunk()
            spent += clock() - t0
            n += 1
            if spent >= want:
                break
        self.chunks += n
        self.seconds += spent
        self.op_factors.append(spent / n / NOMINAL_CHUNK_S)

    def factor(self) -> float:
        """Host slowness since reset: mean chunk time over the nominal (1 = reference)."""
        return self.seconds / self.chunks / NOMINAL_CHUNK_S if self.chunks else 1.0


def normalize(wall_s: float, ops_ms: list[float], op_factors: list[float],
              pass_factor: float) -> tuple[float, list[float]]:
    """One pass's wall time and operation times as times on the reference host.

    Each operation is divided by its own factor; the part of the wall time
    outside the operations (session-record's log read-back) by the pass's.
    """
    ops = [ms / f for ms, f in zip(ops_ms, op_factors)]
    rest_s = wall_s - sum(ops_ms) / 1e3
    return sum(ops) / 1e3 + rest_s / pass_factor, ops
