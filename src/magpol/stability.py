"""Linear stability of fixed points from their real 4x4 linearization.

Fluctuations around a fixed point couple amplitudes to their
conjugates through the Kerr and saturation terms, so the linearization
is not complex-linear in (da, dm). ``model.jacobian`` writes it as a
real 4x4 matrix on (Re a, Im a, Re m, Im m), similar to the complex
one on the doubled vector (da, da*, dm, dm*).

Active fixed points are linearized in their own co-rotating frame
(d/dt picks up +i*omega), where the limit cycle becomes a circle of
fixed points. The overall phase freedom contributes one exactly
neutral eigenvalue, which takes no part in the verdict. The active
origin is the exception: it carries no phase orbit and keeps its full
spectrum.

A verdict needs no eigenvalues. ``classify``, the one classification
call, takes a whole ``Solution``: every point of a map range at once,
or every point of the one cell of ``fixed-points``. It builds the
characteristic polynomial det(lambda I - J) of each matrix from sums
of principal minors; an oscillating active point divides out its
neutral root lambda = 0, which leaves a cubic, and every other point
keeps the quartic. With band = ``MARGIN_RTOL * rate_scale()``, the
Hurwitz inequalities of the polynomial shifted by -band and by +band
say whether every root lies left of -band (stable), left of +band
(marginal), or neither (unstable): the largest real part of the
retained spectrum, the margin, is below -band, within the band, or
above it.

``spectrum`` is the eigenvalue report of one point that the
``fixed-points`` command prints: its sorted spectrum, the discarded
neutral mode, the margin, and ``neutral_suspect``, set when the
smallest-magnitude eigenvalue, the one taken for the neutral mode, is
not small against the rest of the spectrum (degenerate case near a
bifurcation, or a frame that does not co-rotate with the point).
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

from .model import Rates, SystemParams, jacobian
from .steady import Solution

# |max Re eigenvalue| below MARGIN_RTOL * rate_scale counts as marginal.
MARGIN_RTOL = 1e-6

# The discarded neutral mode should be tiny against the spectrum span;
# above this relative size the discard is flagged for review.
NEUTRAL_SUSPECT_REL = 1e-3

# Verdict names, indexed by what ``classify`` returns.
VERDICTS = ("stable", "unstable", "marginal")


def phase_label(n_stable: int, n_unstable: int, n_marginal: int) -> str:
    """Label of a set of fixed points by verdict count, like '2S+1U';
    marginal points, if any, add '+1M'."""
    label = f"{n_stable}S+{n_unstable}U"
    if n_marginal:
        label += f"+{n_marginal}M"
    return label


def _char_poly(a) -> list:
    """Coefficients c1..c4 of det(lambda I - J) = lambda^4 + c1 lambda^3
    + c2 lambda^2 + c3 lambda + c4 from the entries a[i][j] of J
    (numbers, or arrays elementwise over a batch): c_k is (-1)^k times
    the sum of the k x k principal minors, all built from the 2x2
    minors of rows (0, 1) and of rows (2, 3)."""
    pairs = list(combinations(range(4), 2))
    top = {(c, d): a[0][c] * a[1][d] - a[0][d] * a[1][c] for c, d in pairs}
    low = {(c, d): a[2][c] * a[3][d] - a[2][d] * a[3][c] for c, d in pairs}

    def minor3(row, minors, c, d, e):
        # columns c < d < e; rows: ``row`` and the pair of ``minors``
        return (a[row][c] * minors[d, e] - a[row][d] * minors[c, e]
                + a[row][e] * minors[c, d])

    c2 = top[0, 1] + low[2, 3]
    for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
        c2 = c2 + (a[i][i] * a[j][j] - a[i][j] * a[j][i])
    return [
        -(a[0][0] + a[1][1] + a[2][2] + a[3][3]),
        c2,
        -(minor3(0, low, 0, 2, 3) + minor3(1, low, 1, 2, 3)
          + minor3(2, top, 0, 1, 2) + minor3(3, top, 0, 1, 3)),
        (top[0, 1] * low[2, 3] - top[0, 2] * low[1, 3]
         + top[0, 3] * low[1, 2] + top[1, 2] * low[0, 3]
         - top[1, 3] * low[0, 2] + top[2, 3] * low[0, 1]),
    ]


def _hurwitz(c, shift) -> np.ndarray:
    """Whether every root of the monic cubic or quartic with lower
    coefficients ``c`` lies left of Re lambda = ``shift``: the
    Lienard-Chipart form of the Hurwitz test on the polynomial in
    mu = lambda - shift, whose coefficients a Taylor shift gives."""
    a = [1.0, *c]
    n = len(c)
    for i in range(n):
        for j in range(1, n - i + 1):
            a[j] = a[j] + shift * a[j - 1]
    if n == 3:
        return (a[1] > 0) & (a[3] > 0) & (a[1] * a[2] > a[3])
    return ((a[1] > 0) & (a[3] > 0) & (a[4] > 0)
            & (a[1] * a[2] * a[3] > a[3] * a[3] + a[1] * a[1] * a[4]))


def classify(sol: Solution, params: SystemParams | Rates
             ) -> tuple[np.ndarray, dict[int, Exception]]:
    """Verdicts of the fixed points of ``sol``, in one batched call.

    ``sol`` is a batch of points of one model or one row of it; the
    ``params`` rates broadcast over its points. Returns each point's
    index into ``VERDICTS`` as an array (M,), M = 1 for a row, decided
    by the Hurwitz test of the module docstring with the band
    ``MARGIN_RTOL * params.rate_scale()`` (per point, rad/us), and
    {row: LinAlgError} for the rows whose linearization is not finite;
    their verdicts are meaningless.
    """
    active = sol.kind == "active"
    jac = jacobian(params, sol.a0, sol.m0, sol.omega,
                   active).reshape(-1, 4, 4)
    # Each matrix and its band are scaled by 2^-e, with e the exponent
    # of its rate scale: exact, and it keeps the coefficients near 1.
    mant, exp = np.frexp(params.rate_scale())
    band = MARGIN_RTOL * mant
    a = np.multiply(jac.transpose(1, 2, 0), np.ldexp(1.0, -exp), order="C")
    c = _char_poly(a)
    if active:
        # Oscillating points drop their neutral root: c4 = det J is 0
        # up to rounding, and the cubic keeps the other three roots.
        cubic = np.abs(sol.a0) ** 2 + np.abs(sol.m0) ** 2 > 0
        stable = np.where(cubic, _hurwitz(c[:3], -band), _hurwitz(c, -band))
        inside = np.where(cubic, _hurwitz(c[:3], band), _hurwitz(c, band))
    else:
        stable, inside = _hurwitz(c, -band), _hurwitz(c, band)
    errors: dict[int, Exception] = {}
    for i in np.flatnonzero(~np.isfinite(c).all(axis=0)):
        errors[int(i)] = np.linalg.LinAlgError(
            f"non-finite linearization of {sol.kind} fixed point; "
            f"matrix:\n{np.array2string(jac[i], precision=8)}")
    return np.where(stable, 0, np.where(inside, 2, 1)).reshape(-1), errors


class Spectrum(NamedTuple):
    """Eigenvalue report of one fixed point.

    ``eigenvalues`` (4,) is the spectrum sorted by descending real
    part; ``discarded`` is the index in it of the dropped neutral mode
    (its smallest-magnitude eigenvalue), or -1 (passive points and the
    active origin). ``margin`` is the largest real part left after the
    discard, the quantity whose sign and band ``classify`` decides.
    ``neutral_suspect`` flags a discarded mode that is not small
    against the rest of the spectrum.
    """

    eigenvalues: np.ndarray
    discarded: int
    margin: float
    neutral_suspect: bool


def spectrum(fp: Solution, params: SystemParams) -> Spectrum:
    """Eigenvalue report of one ``Solution`` row; see ``Spectrum``."""
    eigs = np.linalg.eigvals(jacobian(params, fp.a0, fp.m0, fp.omega,
                                      fp.kind == "active"))
    eigs = eigs.astype(complex, copy=False)[np.argsort(-eigs.real)]
    if fp.kind != "active" or abs(fp.a0) ** 2 + abs(fp.m0) ** 2 == 0:
        return Spectrum(eigs, -1, float(eigs.real.max()), False)
    mag = np.abs(eigs)
    discarded = int(mag.argmin())
    kept = np.arange(4) != discarded
    span = mag[kept].max()
    return Spectrum(eigs, discarded, float(eigs.real[kept].max()),
                    bool(span > 0 and mag[discarded]
                         >= NEUTRAL_SUSPECT_REL * span))
