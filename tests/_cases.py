"""Shared parameter factories for the test suite.

Two recurring parameter sets: a broad-line strong-coupling pair used
by the map tests (kerr per magnon of order 2pi x 10 nHz) and a
narrow-line pair with larger Kerr used by the sweep and bistability
tests. Rates are rad/us throughout; **over replaces any field.

``stack`` and ``verdict_of`` put fixed-point rows into the shape
``stability.classify`` takes and back.
"""

import numpy as np

from magpol.model import SystemParams, TWO_PI
from magpol.stability import VERDICTS, classify
from magpol.steady import Solution


def broadline_params(**over) -> SystemParams:
    kw = dict(kappa=TWO_PI * 1.5, gamma=TWO_PI * 16.5, g=TWO_PI * 30.0,
              kerr=TWO_PI * 9.8e-15)
    kw.update(over)
    return SystemParams(**kw)


def narrowline_params(**over) -> SystemParams:
    kw = dict(gamma=TWO_PI * 10.3, g=TWO_PI * 25.0, kerr=TWO_PI * 3.2e-12,
              gamma_sat=TWO_PI * 0.8e-12, gain=TWO_PI * 15.45)
    kw.update(over)
    return SystemParams(**kw)


def stack(rows) -> Solution:
    """One batch ``Solution`` of fixed-point rows of one model."""
    cols = list(zip(*rows))
    return Solution(rows[0].kind, *map(np.array, cols[1:-1]), errors={})


def verdict_of(row: Solution, params) -> str:
    """Verdict name of one fixed-point row; raises the row's error."""
    code, errors = classify(row, params)
    if errors:
        raise errors[0]
    return VERDICTS[code[0]]
