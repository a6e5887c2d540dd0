"""Child processes: pinned environment, wall time, CPU time and peak RSS.

Every CLI process starts with BLAS and OpenMP pinned to one thread, so
that the import does not spawn a thread pool and two scan workers do
not oversubscribe a two-core machine. CPU time and peak RSS come from
the rusage that ``wait4`` returns, which on Linux also covers the
child's own reaped children (the scan's pool workers).
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# A single child may not outlive this; the whole run must end in 180 s,
# and a child can hang after up to 45 s of measuring and set-up.
CHILD_TIMEOUT_S = 100.0

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class ProcResult:
    returncode: int
    wall_s: float
    start: float                 # time.monotonic() at spawn and at reap
    end: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def pinned_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = os.path.join(root, "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


def run_timed(argv: list[str], root: str, tmp: str,
              cpus: list[int] | None = None) -> ProcResult:
    """Run one child to completion; wall from spawn to reap.

    With ``cpus`` the child (and any process it forks) is pinned to
    those CPUs right after spawn.
    """
    out_path = os.path.join(tmp, "child.stdout")
    err_path = os.path.join(tmp, "child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=root, env=pinned_env(root),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        if cpus is not None:
            try:
                os.sched_setaffinity(proc.pid, cpus)
            except OSError:      # already exited
                pass
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    # wait4 reaped the child; tell Popen so it never waits again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()
    return ProcResult(returncode=proc.returncode, wall_s=end - start,
                      start=start, end=end,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      maxrss_mb=usage.ru_maxrss / 1024.0,
                      stdout=stdout, stderr=stderr)


def setup_probe(root: str, tmp: str, config: str, command: str,
                cpus: list[int] | None = None) -> tuple[ProcResult, dict]:
    """Fresh interpreter: import magpol.cli, load and parse one config.

    Returns the process result (its wall time is the set-up time) and
    the child's own split: ``import_s`` and ``parse_ms``.
    """
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), config,
            command]
    res = run_timed(argv, root, tmp, cpus)
    split = json.loads(res.stdout.strip().splitlines()[-1]) \
        if res.returncode == 0 else {}
    return res, split


def environment() -> dict:
    """Machine and toolchain facts recorded with every result."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "thread_env": dict(THREAD_ENV),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }
