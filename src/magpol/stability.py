"""Linear stability of fixed points from their real 4x4 linearization.

Fluctuations around a fixed point couple amplitudes to their
conjugates through the Kerr and saturation terms, so the linearization
is not complex-linear in (da, dm). ``model.jacobian`` writes it as a
real 4x4 matrix on (Re a, Im a, Re m, Im m), similar to the complex
one on the doubled vector (da, da*, dm, dm*). Its spectrum is closed
under complex conjugation: real eigenvalues come out with an imaginary
part of exactly 0, and conjugate pairs exactly conjugate.

Active fixed points are linearized in their own co-rotating frame
(d/dt picks up +i*omega), where the limit cycle becomes a circle of
fixed points. The overall phase freedom contributes one exactly
neutral eigenvalue, which is discarded before classification; it is
identified as the smallest-magnitude one, and ``neutral_suspect``
flags the discard when that eigenvalue is not actually small against
the rest of the spectrum (degenerate case near a bifurcation). The
active origin is the exception: it carries no phase orbit and keeps
its full spectrum.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import Rates, SystemParams, jacobian
from .steady import Solution

# |max Re eigenvalue| below MARGIN_RTOL * rate_scale counts as marginal.
MARGIN_RTOL = 1e-6

# The discarded neutral mode should be tiny against the spectrum span;
# above this relative size the discard is flagged for review.
NEUTRAL_SUSPECT_REL = 1e-3

# Verdict names, indexed by what ``verdict`` returns.
VERDICTS = ("stable", "unstable", "marginal")


def verdict(is_stable, is_marginal):
    """Index into ``VERDICTS`` of classified points, elementwise.

    A marginal point is marginal whatever the sign of its margin, so it
    counts as neither stable nor unstable.
    """
    return np.where(is_marginal, 2, np.where(is_stable, 0, 1))


def phase_label(n_stable: int, n_unstable: int, n_marginal: int) -> str:
    """Label of a set of fixed points by verdict count, like '2S+1U';
    marginal points, if any, add '+1M'."""
    label = f"{n_stable}S+{n_unstable}U"
    if n_marginal:
        label += f"+{n_marginal}M"
    return label


class Spectra(NamedTuple):
    """Classification of a batch of fixed points, one row per point.

    ``eigenvalues`` (M, 4) is each 4x4 spectrum sorted by descending
    real part; ``discarded`` is the index in it of the dropped neutral
    mode, or -1 (passive points and the active origin). ``margin`` is
    the largest real part left after the discard: negative means
    stable. ``is_marginal`` is set when the margin is too close to zero
    to call, and such points count as neither stable nor unstable.
    ``neutral_suspect`` flags a discarded mode that is not small
    against the rest of the spectrum. ``errors`` maps the rows whose
    eigenvalue solve failed to the exception; their other fields are
    meaningless.
    """

    eigenvalues: np.ndarray
    discarded: np.ndarray
    margin: np.ndarray
    is_stable: np.ndarray
    is_marginal: np.ndarray
    neutral_suspect: np.ndarray
    errors: dict[int, Exception]


def classify_points(params: SystemParams | Rates, a0, m0, omega,
                    active: bool) -> Spectra:
    """Stability of M fixed points of one model, in one batched solve.

    ``a0``, ``m0`` and ``omega`` are arrays (M,) or, for one point,
    scalars; the ``params`` rates broadcast over them. Oscillating
    active points drop their neutral phase mode before the margin is
    taken; a margin within ``MARGIN_RTOL * params.rate_scale()`` (per
    point, rad/us) of zero is marginal.
    """
    jac = jacobian(params, a0, m0, omega, active).reshape(-1, 4, 4)
    a0, m0 = np.atleast_1d(a0), np.atleast_1d(m0)
    errors: dict[int, Exception] = {}
    try:
        eigs = np.linalg.eigvals(jac).astype(complex, copy=False)
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
    band = MARGIN_RTOL * params.rate_scale()
    return Spectra(eigenvalues=eigs, discarded=discarded, margin=margin,
                   is_stable=margin < 0.0, is_marginal=np.abs(margin) < band,
                   neutral_suspect=neutral_suspect, errors=errors)


def classify(fp: Solution, params: SystemParams) -> Spectra:
    """Stability of one ``Solution`` row: its row of ``classify_points``.

    Every field of the returned ``Spectra`` is that row's: the (4,)
    ``eigenvalues`` and scalars, with no ``errors``; a failed
    eigenvalue solve is raised instead.
    """
    sp = classify_points(params, fp.a0, fp.m0, fp.omega,
                         fp.kind == "active")
    if sp.errors:
        raise sp.errors[0]
    return Spectra(*(field[0] for field in sp[:-1]), errors={})
