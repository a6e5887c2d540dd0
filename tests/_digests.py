"""sha256 digests of pinned results, kept in ``digests.json``.

Two groups are pinned: ``fixtures``, what each module fixture of
``test_acceptance`` computes (a map's counts with its blank and error
masks, a sweep's fitted frequencies and the amplitudes of the windows
that ``_cases.sweep_windows`` collects), and ``shipped``, every file
that ``test_cli``'s run of each shipped config writes. A change that
moves one count, mask bit, sample or artifact byte fails the tests
that compare against them.

The digests pin floating-point bits, so they hold for one numpy build
on one kind of CPU. When a change is meant to move a result, explain
the change, then rewrite the file from the repository root with

    PYTHONPATH=src python tests/refresh_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

PINNED = Path(__file__).with_name("digests.json")


def of_arrays(*arrays) -> str:
    """One digest of the dtypes, shapes and bytes of ``arrays``."""
    h = hashlib.sha256()
    for a in map(np.ascontiguousarray, arrays):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def of_fixture(value) -> str:
    """Digest of a ``PhaseDiagram``'s counts and masks, or of a sweep's
    ``(result, windows)``: its fitted frequencies, then each window's
    amplitudes ``a``."""
    if hasattr(value, "stable"):
        return of_arrays(value.stable, value.unstable, value.marginal,
                         value.blank, value.errors)
    result, windows = value
    return of_arrays(result.omegas, *(win.a for win in windows))


def of_files(folder) -> dict[str, str]:
    """{file name: digest of its bytes} of every file in ``folder``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(folder).iterdir())}


def pinned(group: str) -> dict[str, str]:
    """The pinned digests of ``group``: "fixtures" or "shipped"."""
    return json.loads(PINNED.read_text(encoding="utf-8"))[group]
