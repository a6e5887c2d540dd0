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
from typing import NamedTuple

import numpy as np

from .model import Rates, SystemParams, jacobian
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


class Spectra(NamedTuple):
    """Classification of a batch of fixed points, one row per point.

    ``eigenvalues`` (M, 4) is each 4x4 spectrum sorted by descending
    real part; ``discarded`` is the index in it of the dropped neutral
    mode, or -1. The other fields are those of ``StabilityReport``.
    ``errors`` maps the rows whose eigenvalue solve failed to the
    exception; their other fields are meaningless.
    """

    eigenvalues: np.ndarray
    discarded: np.ndarray
    margin: np.ndarray
    is_stable: np.ndarray
    is_marginal: np.ndarray
    neutral_suspect: np.ndarray
    errors: dict[int, Exception]


def classify_points(params: SystemParams | Rates, a0, m0, omega,
                    active: bool, band) -> Spectra:
    """Stability of M fixed points of one model, in one batched solve.

    ``a0``, ``m0`` and ``omega`` are arrays (M,) or, for one point,
    scalars; the ``params`` rates broadcast over them. Oscillating
    active points drop their neutral phase mode before the margin is
    taken; a margin within ``band`` (per point, rad/us) of zero is
    marginal.
    """
    jac = jacobian(params, a0, m0, omega, active).reshape(-1, 4, 4)
    a0, m0 = np.atleast_1d(a0), np.atleast_1d(m0)
    errors: dict[int, Exception] = {}
    try:
        eigs = np.linalg.eigvals(jac)
    except np.linalg.LinAlgError:  # one failed matrix fails the stack
        eigs = np.full(jac.shape[:-1], np.nan, dtype=complex)
        for i, mat in enumerate(jac):
            try:
                eigs[i] = np.linalg.eigvals(mat)
            except np.linalg.LinAlgError as exc:
                kind = "active" if active else "passive"
                errors[i] = np.linalg.LinAlgError(
                    f"eigenvalue solve failed for {kind} fixed point; "
                    f"matrix:\n{np.array2string(mat, precision=8)}")
                errors[i].__cause__ = exc

    rows = np.arange(len(eigs))
    eigs = eigs[rows[:, None], np.argsort(-eigs.real, axis=-1)]
    discarded = np.full(len(eigs), -1)
    neutral_suspect = np.zeros(len(eigs), dtype=bool)
    retained = eigs.real
    if active:
        # The origin has no phase orbit, so its spectrum carries no
        # neutral mode to drop; only oscillating points get the discard.
        drop = np.abs(a0) ** 2 + np.abs(m0) ** 2 > 0
        mag = np.abs(eigs)
        discarded[drop] = mag[drop].argmin(axis=-1)
        kept = np.arange(4) != discarded[:, None]
        span = np.where(kept, mag, -np.inf).max(axis=-1)
        neutral_suspect = drop & (span > 0) & (
            mag[rows, discarded] >= NEUTRAL_SUSPECT_REL * span)
        retained = np.where(kept, retained, -np.inf)
    margin = retained.max(axis=-1)
    return Spectra(eigenvalues=eigs, discarded=discarded, margin=margin,
                   is_stable=margin < 0.0, is_marginal=np.abs(margin) < band,
                   neutral_suspect=neutral_suspect, errors=errors)


def classify(fp: FixedPoint, params: SystemParams,
             margin_rtol: float = MARGIN_RTOL) -> StabilityReport:
    """Stability of one fixed point from the 4x4 doubled linearization.

    Active points drop their neutral phase mode before the margin is
    taken. A margin within ``margin_rtol * params.rate_scale()`` of
    zero is reported as marginal rather than stable or unstable.
    """
    sp = classify_points(params, fp.a0, fp.m0, fp.omega,
                         fp.kind == "active",
                         margin_rtol * params.rate_scale())
    if sp.errors:
        raise sp.errors[0]
    eigs = [complex(e) for e in sp.eigenvalues[0]]
    idx = int(sp.discarded[0])
    return StabilityReport(
        eigenvalues=tuple(eigs),
        retained=tuple(e for k, e in enumerate(eigs) if k != idx),
        discarded=eigs[idx] if idx >= 0 else None,
        margin=float(sp.margin[0]),
        is_stable=bool(sp.is_stable[0]),
        is_marginal=bool(sp.is_marginal[0]),
        neutral_suspect=bool(sp.neutral_suspect[0]),
    )
