"""Linear stability of fixed points in the doubled amplitude basis.

Fluctuations around a fixed point couple amplitudes to their
conjugates through the Kerr and saturation terms, so the linearization
acts on the doubled vector (da, da*, dm, dm*). Its 4x4 matrix
(``model.jacobian``) has rows for the conjugate components that are
elementwise conjugates of the direct rows with the pairing swapped;
the spectrum is therefore closed under complex conjugation.

Active fixed points are linearized in their own co-rotating frame
(d/dt picks up +i*omega), where the limit cycle becomes a circle of
fixed points. The overall phase freedom contributes one exactly
neutral eigenvalue, which is discarded before classification; it is
identified as the smallest-magnitude one, and the report flags the
discard as suspect when that eigenvalue is not actually small against
the rest of the spectrum (degenerate case near a bifurcation). The
active origin is the exception: it carries no phase orbit and keeps
its full spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemParams, jacobian
from .steady import FixedPoint

# |max Re eigenvalue| below MARGIN_RTOL * rate_scale counts as marginal.
MARGIN_RTOL = 1e-6

# The discarded neutral mode should be tiny against the spectrum span;
# above this relative size the discard is flagged for review.
NEUTRAL_SUSPECT_REL = 1e-3


@dataclass(frozen=True)
class StabilityReport:
    """Classification of one fixed point.

    ``eigenvalues`` holds the full 4x4 spectrum sorted by descending
    real part; ``retained`` excludes the discarded neutral mode (equal
    to ``eigenvalues`` for passive points). ``margin`` is the largest
    retained real part: negative means stable. ``is_marginal`` is set
    when the margin is too close to zero to call at the configured
    tolerance, and such points are reported as neither stable nor
    unstable by the phase-diagram counters.
    """

    eigenvalues: tuple[complex, ...]
    retained: tuple[complex, ...]
    discarded: complex | None
    margin: float
    is_stable: bool
    is_marginal: bool
    neutral_suspect: bool


def classify(fp: FixedPoint, params: SystemParams,
             margin_rtol: float = MARGIN_RTOL) -> StabilityReport:
    """Stability of one fixed point from the 4x4 doubled linearization.

    Active points drop their neutral phase mode before the margin is
    taken. A margin within ``margin_rtol * params.rate_scale()`` of
    zero is reported as marginal rather than stable or unstable.
    """
    jac = jacobian(params, fp.a0, fp.m0, fp.omega,
                   active=fp.kind == "active")
    try:
        eigs = np.linalg.eigvals(jac)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigenvalue solve failed for {fp.kind} fixed point; matrix:\n"
            f"{np.array2string(jac, precision=8)}") from exc

    order = np.argsort(-eigs.real)
    eigs = eigs[order]
    discarded = None
    retained = eigs
    neutral_suspect = False
    # The origin has no phase orbit, so its spectrum carries no neutral
    # mode to drop; only oscillating points get the discard.
    if fp.kind == "active" and fp.n_a + fp.n_m > 0:
        idx = int(np.argmin(np.abs(eigs)))
        discarded = complex(eigs[idx])
        retained = np.delete(eigs, idx)
        span = float(np.max(np.abs(retained))) if retained.size else 0.0
        if span > 0 and abs(discarded) >= NEUTRAL_SUSPECT_REL * span:
            neutral_suspect = True

    margin = float(np.max(retained.real)) if retained.size else 0.0
    band = margin_rtol * params.rate_scale()
    is_marginal = abs(margin) < band
    return StabilityReport(
        eigenvalues=tuple(complex(e) for e in eigs),
        retained=tuple(complex(e) for e in retained),
        discarded=discarded,
        margin=margin,
        is_stable=bool(margin < 0.0),
        is_marginal=is_marginal,
        neutral_suspect=neutral_suspect,
    )
