"""CPU contention probes: how much slower each CPU ran, and when.

On a shared host each virtual CPU runs at a speed that swings by up to
1.7x, set by what other tenants run on the same core; the swings last
from seconds to minutes, and the two CPUs of one machine swing
independently. A CLI invocation therefore takes 9 to 15 s for the same
work, and no run length the time budget allows averages that out. So
every CPU gets a probe: a pinned process that times a fixed, short
pure-Python piece every ~50 ms (about 1% of the CPU). A child pinned to
the same CPU shares its speed from moment to moment, so the probe's
mean piece time over the child's lifetime, against a fixed reference
piece time, gives the child's slowdown. ``Probes.slowdown`` returns it,
and the benchmark divides the child's wall and CPU time by it. The
reference is a constant, not the fastest pieces of the run, because a
whole run can fall into a slow stretch; it only sets the scale of the
adjusted times.

Run as a script it is one probe: ``python3 contention.py CPU`` pins
itself to CPU, probes until a line or EOF arrives on stdin, then prints
its pieces as JSON: ``[[start, seconds], ...]`` on the monotonic clock.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

INTERVAL_S = 0.05
# Seconds one piece takes on an uncontended CPU: about this on a 2-vCPU
# Intel Xeon host under Python 3.11. Adjusted times are at this speed.
REFERENCE_PIECE_S = 0.5e-3


def _piece() -> None:
    z = 0.1 + 0.2j
    for _ in range(3000):
        z = z * (0.999 + 0.001j) + 0.01 / (1.0 + abs(z))


def _probe(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    pieces = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        start = time.monotonic()
        _piece()
        pieces.append((start, time.monotonic() - start))
    json.dump(pieces, sys.stdout)


class Probes:
    """One probe process per CPU this process may run on.

    Use as a context manager; leaving it stops and reaps every probe.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.pieces: dict[int, list[tuple[float, float]]] = {}
        self._procs: dict[int, subprocess.Popen] = {}

    def __enter__(self) -> "Probes":
        for cpu in self.cpus:
            self._procs[cpu] = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True)
        return self

    def __exit__(self, *exc) -> None:
        for cpu, proc in self._procs.items():
            try:
                out, _ = proc.communicate("stop\n", timeout=10)
                self.pieces[cpu] = [tuple(p) for p in json.loads(out)]
            except (subprocess.TimeoutExpired, ValueError):
                proc.kill()
                proc.wait()
        self._procs.clear()

    def slowdown(self, cpus: list[int], start: float, end: float) -> float:
        """Mean slowdown of ``cpus`` between two monotonic times.

        Per CPU it is the mean piece time in [start, end] over
        ``REFERENCE_PIECE_S``, so 1.0 means an uncontended CPU. Call it
        after the context has been left. NaN when a CPU has no piece in
        the interval.
        """
        ratios = []
        for cpu in cpus:
            inside = [d for t, d in self.pieces.get(cpu, ())
                      if start <= t <= end]
            if not inside:
                return float("nan")
            ratios.append(sum(inside) / len(inside) / REFERENCE_PIECE_S)
        return sum(ratios) / len(ratios)


if __name__ == "__main__":
    _probe(int(sys.argv[1]))
