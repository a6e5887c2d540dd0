"""Closed-form steady states of the passive and active models.

Both routes reduce the coupled steady-state conditions to a single real
polynomial, solve it by companion-matrix eigenvalues, and reconstruct
the mode amplitudes from each admissible real root.

Passive route. Eliminating the photon amplitude from the driven
steady state gives one real condition on the magnon number n::

    n * |(kappa/2 + i delta_c)(gamma/2 + i delta(n)) + g^2|^2 = g^2 eta^2,
    delta(n) = delta_m + kerr * n

which is a cubic in n (see ``passive_cubic_coefficients``).

Active route. With the rotating ansatz a = a0 exp(-i w t),
m = m0 exp(-i w t), a0 real > 0, the steady state is governed by the
net gain A = G_eff - gamma_sat * |a0|^2 through::

    A^2 + w^2 = 2 g^2 A / gamma
    n_m = 2 A (G_eff - A) / (gamma_sat * gamma)
    w * (2 A - gamma) = 2 A * (delta_m + kerr * n_m)

Eliminating w yields a quintic in A (``active_quintic_coefficients``).
Admissible roots satisfy 0 < A < G_eff and A <= 2 g^2 / gamma; each
gives a coupled fixed point with w recovered from the third relation,
or, when 2A - gamma vanishes, from the first one (both signs kept and
filtered by the full residual: that branch is the degenerate polariton
doublet). The photon-only and zero-amplitude states are not coupled
solutions and are never returned.

Each route is one batched call, ``passive_fixed_points(cells, eta)``
or ``active_fixed_points(cells)``, on a map range or the one cell of
``fixed-points``. Both return a ``Solution``. Past their candidates'
starts, the routes share one polish-and-admit step (``_polish``) and
one finish step (``_finish``: extra rows, sort, ``_merge_duplicates``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, InternalConsistencyError
from .model import Rates, SystemParams, bare_cavity_photons, jacobian, \
    saturated_photons, vector_field

# A polynomial root counts as real when |Im| <= RTOL*|root| + ATOL
# (in the nondimensional variable, which is O(1) by construction).
REAL_ROOT_RTOL = 1e-7
REAL_ROOT_ATOL = 1e-10

# Companion-matrix eigenvalues split a double root into a conjugate
# pair about sqrt(eps) apart, and ill-conditioned ones by up to ~1e3
# sqrt(eps) (Edelman & Murakami, Math. Comp. 64, 1995). Such near-real
# pairs, |Im| <= NEAR_REAL_RTOL * max(|root|, 1), are polished as
# optional candidates: only the residual check of the reconstructed
# fixed point admits them.
NEAR_REAL_RTOL = 1e3 * math.sqrt(np.finfo(float).eps)

# Reconstructed fixed points must satisfy the steady equations to this
# fraction of the characteristic rate, in unit-occupation scaling.
RESIDUAL_RTOL = 1e-8


class Solution(NamedTuple):
    """Steady states of a batch of cells of one model ("passive" or
    "active" ``kind``), one entry per point; ``cell`` is its index in
    the batch. ``take(i)`` of one index is one fixed point, a row of
    scalars.

    ``omega`` is the emission frequency offset of the rotating ansatz
    (always 0 for the passive model, where the frame is the drive).
    ``net_gain`` is A = G_eff - gamma_sat*|a0|^2 for active points and
    0 for passive ones. ``residual`` is the steady-state defect in
    rescaled units (rad/us), recorded at construction. ``errors`` maps
    a cell to the exception that stopped its solve (it has no points).
    """

    kind: str
    cell: int | np.ndarray
    a0: complex | np.ndarray
    m0: complex | np.ndarray
    omega: float | np.ndarray
    net_gain: float | np.ndarray
    residual: float | np.ndarray
    errors: dict[int, Exception]

    @property
    def n_a(self) -> float | np.ndarray:
        return abs(self.a0) ** 2

    @property
    def n_m(self) -> float | np.ndarray:
        return abs(self.m0) ** 2

    def take(self, idx) -> "Solution":
        """The points ``idx`` of a batch result, with its kind and errors."""
        return Solution(self.kind, *(v[idx] for v in self[1:-1]),
                        self.errors)


def passive_cubic_coefficients(params: SystemParams | Rates,
                               eta) -> np.ndarray:
    """Cubic in the magnon number, descending coefficients (..., 4).

    With a ``Rates`` of arrays or an array ``eta``, one row per member.
    """
    kappa, gamma, g = params.kappa, params.gamma, params.g
    dc, dm = params.delta_c, params.delta_m
    kerr = params.kerr
    r0 = 0.25 * kappa * gamma + g * g - dc * dm
    r1 = -dc * kerr
    i0 = 0.5 * kappa * dm + 0.5 * dc * gamma
    i1 = 0.5 * kappa * kerr
    return np.stack(np.broadcast_arrays(
        r1 * r1 + i1 * i1,
        2.0 * (r0 * r1 + i0 * i1),
        r0 * r0 + i0 * i0,
        -g * g * np.float_power(eta, 2),
    ), axis=-1)


def active_quintic_coefficients(params: SystemParams | Rates) -> np.ndarray:
    """Quintic in the net gain A, descending coefficients (..., 6).

    With a ``Rates`` of arrays, one row per batch member.
    """
    gamma, g = params.gamma, params.g
    g_eff = params.gain_eff
    u0 = params.delta_m
    u1 = 2.0 * params.kerr * g_eff / (params.gamma_sat * gamma)
    u2 = -2.0 * params.kerr / (params.gamma_sat * gamma)
    g2 = g * g
    return np.stack(np.broadcast_arrays(
        4.0 * u2 * u2,
        8.0 * u1 * u2,
        4.0 * (u1 * u1 + 2.0 * u0 * u2) + 4.0,
        8.0 * u0 * u1 - 8.0 * g2 / gamma - 4.0 * gamma,
        4.0 * u0 * u0 + 8.0 * g2 + gamma * gamma,
        -2.0 * g2 * gamma,
    ), axis=-1)


def _real_roots(coeffs: np.ndarray, what: str
                ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Real roots of a batch of polynomials in a nondimensional variable.

    ``coeffs`` holds one row of descending coefficients per polynomial.
    Each row is normalized to unit maximum, and its roots are the
    eigenvalues of the companion matrix ``np.roots`` builds (exact
    leading and trailing zeros trimmed, each trailing zero a root at
    0), solved for all rows of one degree in a single stacked call.
    Real roots and the real parts of near-real pairs are returned
    unrefined (``_damped_newton4`` on the full system is the one
    polish) and unmerged, so a double root comes back twice.

    Returns (x, optional, errors): ``x`` (N, degree) holds each row's
    roots in ascending order with NaN where there is none; ``optional``
    marks the roots that came from near-real pairs; ``errors`` maps the
    rows with non-finite coefficients, or with a leading coefficient
    whose reciprocal overflows, to a ConditioningError.
    """
    c = np.array(coeffs, dtype=float, ndmin=2)
    n, d = c.shape[0], c.shape[1] - 1
    finite = np.isfinite(c).all(axis=1)
    cmax = np.abs(c).max(axis=1)
    solve = finite & (cmax > 0.0)
    c /= np.where(solve, cmax, 1.0)[:, None]
    c[~solve] = 0.0
    nonzero = c != 0.0
    first = nonzero.argmax(axis=1)
    last = d - nonzero[:, ::-1].argmax(axis=1)
    # the companion divides by the leading coefficient (the largest is 1)
    with np.errstate(divide="ignore", over="ignore"):
        finite &= ~solve | np.isfinite(1.0 / c[np.arange(n), first])
    solve &= finite
    errors: dict[int, Exception] = {
        int(i): ConditioningError(f"{what}: non-finite polynomial "
                                  f"coefficients")
        for i in np.flatnonzero(~finite)}

    roots = np.full((n, d), np.nan, dtype=complex)
    for lo, hi in sorted(set(zip(first[solve].tolist(),
                                 last[solve].tolist()))):
        rows = np.flatnonzero(solve & (first == lo) & (last == hi))
        k = hi - lo
        if k:
            p = c[rows, lo:hi + 1]
            comp = np.zeros((rows.size, k, k))
            comp[:, 0, :] = -p[:, 1:] / p[:, :1]
            comp[:, np.arange(1, k), np.arange(k - 1)] = 1.0
            roots[rows, :k] = np.linalg.eigvals(comp)
        roots[rows, k:k + d - hi] = 0.0

    mag = np.abs(roots)
    im = np.abs(roots.imag)
    real = im <= REAL_ROOT_RTOL * mag + REAL_ROOT_ATOL
    optional = ~real & (im <= NEAR_REAL_RTOL * np.maximum(mag, 1.0))
    x = np.where(real | optional, roots.real, np.nan)

    order = np.argsort(x, axis=1)  # NaN last
    index = np.arange(n)[:, None]
    return x[index, order], optional[index, order], errors


def _polish_defect(z: np.ndarray, rhs, active: bool) -> np.ndarray:
    """(Re, Im) of da/dt and dm/dt, active points co-rotating at omega:
    d/dt picks up i*omega, which adds (-w ai, w ar, -w mi, w mr)."""
    x0, x1, mr, mi = z[..., 0], z[..., 1], z[..., 2], z[..., 3]
    if not active:
        return np.stack(rhs(x0, x1, mr, mi), axis=-1)
    ar, ai, w = x0, 0.0, x1
    dar, dai, dmr, dmi = rhs(ar, ai, mr, mi)
    return np.stack((dar - w * ai, dai + w * ar, dmr - w * mi, dmi + w * mr),
                    axis=-1)


def _polish_jacobian(z: np.ndarray, params: SystemParams | Rates,
                     active: bool) -> np.ndarray:
    """Real Jacobian (..., 4, 4) of ``_polish_defect`` in its unknowns.

    That is ``model.jacobian``, except that for active points column 1
    is the derivative in omega, which enters the defect as i (a, m).
    The unknowns z are (Re a, Im a, Re m, Im m) for passive points,
    (p, omega, Re m, Im m) for active ones, whose photon amplitude
    a = p is real (the phase gauge).
    """
    x0, x1, mr, mi = z[..., 0], z[..., 1], z[..., 2], z[..., 3]
    m = mr + 1j * mi
    a, w = (x0, x1) if active else (x0 + 1j * x1, 0.0)
    jac = jacobian(params, a, m, w, active)
    if active:
        jac[..., :, 1] = (1j * np.stack((a, m), axis=-1)).view(float)
    return jac


def _solve_rows(jac: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with jac[i] @ x[i] = b[i]; NaN rows where jac[i] is singular."""
    try:
        return np.linalg.solve(jac, b[..., None])[..., 0]
    except np.linalg.LinAlgError:  # one singular matrix fails the stack
        out = np.full(b.shape, np.nan)
        for i in range(len(b)):
            try:
                out[i] = np.linalg.solve(jac[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


class _Drive(NamedTuple):
    """Drive amplitudes, one per row, in place of a scalar DriveSpec."""
    eta: np.ndarray


def _damped_newton4(x: np.ndarray, tol, rates: Rates,
                    eta: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Refine roots of ``_polish_defect``, one row of x (M, 4) each.

    ``rates`` and the drives ``eta`` (M,) are at unit occupation;
    without ``eta`` the model is the active one. The only refinement
    of the unpolished companion-matrix roots, which near double roots
    are only about sqrt(eps) accurate: up to 8 damped Newton iterations
    on the full steady-state system restore machine accuracy, and the
    residual left is what admits a near-real candidate. Each row
    iterates on its own (``tol`` and the ``rates`` arrays broadcast
    over the rows) until its defect is below 1% of its tolerance, a
    step fails, or no damped step improves it. Returns the best iterate
    of every row and its max-norm defect; never raises.
    """
    active = eta is None

    def rhs(rows):
        return vector_field(rates.take(rows),
                            None if active else _Drive(eta[rows]))

    x = np.array(x, dtype=float)
    tol = np.zeros(len(x)) + tol
    with np.errstate(all="ignore"):
        fx = _polish_defect(x, rhs(slice(None)), active)
        res = np.max(np.abs(fx), axis=-1)
        live = np.arange(len(x))
        for _ in range(8):
            live = live[res[live] >= 0.01 * tol[live]]
            if not live.size:
                break
            step = _solve_rows(
                _polish_jacobian(x[live], rates.take(live), active),
                -fx[live])
            good = np.all(np.isfinite(step), axis=-1)
            live, step = live[good], step[good]
            improved = np.zeros(live.size, dtype=bool)
            pending = np.arange(live.size)
            lam = 1.0
            for _ in range(5):
                rows = live[pending]
                xn = x[rows] + lam * step[pending]
                fn = _polish_defect(xn, rhs(rows), active)
                rn = np.max(np.abs(fn), axis=-1)
                better = np.all(np.isfinite(fn), axis=-1) & (rn < res[rows])
                took = rows[better]
                x[took], fx[took] = xn[better], fn[better]
                res[took] = rn[better]
                improved[pending[better]] = True
                pending = pending[~better]
                if not pending.size:
                    break
                lam *= 0.5
            live = live[improved]
    return x, res


def _columns(*values) -> list[np.ndarray]:
    """Broadcast ``values`` to one float array entry per batch member."""
    return [np.array(v, dtype=float).ravel()
            for v in np.broadcast_arrays(*values)]


def _polish(start: np.ndarray, r: Rates, eta: np.ndarray | None,
            cell: np.ndarray, rate: np.ndarray, required: np.ndarray,
            root: str, value: np.ndarray, errors: dict[int, Exception]
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``_damped_newton4`` call polishes the candidates ``start``
    (M, 4) of either route (``eta`` None: active) to ``RESIDUAL_RTOL *
    rate[cell]``; a ``required`` one that misses it fails its cell with
    an InternalConsistencyError naming ``root=value``. Returns the rows,
    residuals and mask of rows within tolerance in cells without error.
    """
    tol = RESIDUAL_RTOL * rate[cell]
    z, res = _damped_newton4(start, tol, r, eta)
    ok = res <= tol
    for i in np.flatnonzero(~ok & required):
        errors.setdefault(int(cell[i]), InternalConsistencyError(
            f"{root}={value[i]:.6e} reconstructed with residual "
            f"{res[i]:.3e} > {tol[i]:.3e} rad/us"))
    return z, res, ok & ~np.isin(cell, list(errors))


def _finish(pts: Solution, extra: np.ndarray, extra_a0: np.ndarray,
            rate: np.ndarray) -> Solution:
    """The one ``Solution`` of a batch: rows of the cells ``extra`` that
    set only ``a0`` (the passive origin, the active photon-only limit
    cycle), then the points ``pts``, sorted by (cell, omega, n_m) and
    merged by ``_merge_duplicates``."""
    zero = np.zeros(extra.size)
    sol = Solution(pts.kind, *(np.r_[x, y] for x, y in zip(
        (extra, extra_a0, zero, zero, zero, zero), pts[1:-1])), pts.errors)
    sol = sol.take(np.lexsort((sol.n_m, sol.omega, sol.cell)))
    return sol.take(_merge_duplicates(sol.cell, sol.omega, sol.n_m,
                                      rate[sol.cell]))


def passive_fixed_points(cells: Rates, eta) -> Solution:
    """Steady states of the driven passive model, cell by cell.

    ``cells`` gives each batch member's rates and ``eta`` >= 0 its drive
    amplitude (floats broadcast). Each cell's magnon-number cubic is
    solved in units of its bare-cavity photon number n0
    (``model.bare_cavity_photons``); amplitudes are reconstructed from
    its real roots divided by s = sqrt(n0), and ``_polish`` and
    ``_finish`` make them one ``Solution``, with eta = 0 giving the
    origin. A cell's error is the ConditioningError of an overflowing
    n0 or cubic, of n0 = 0 (undamped resonant cavity, or eta^2
    underflows) or of a singular magnon response, or the
    InternalConsistencyError of a point that fails its residual check.
    """
    *rates, eta = _columns(*cells, eta)
    c = Rates(*rates)
    rate = c.rate_scale()
    errors: dict[int, Exception] = {}
    n_ref, denom = bare_cavity_photons(c, eta, errors)
    valid = ~np.isin(np.arange(eta.size), list(errors))
    origin = np.flatnonzero(valid & (eta == 0.0))
    for i in np.flatnonzero(valid & (eta != 0.0) & (n_ref == 0.0)):
        errors[int(i)] = ConditioningError(
            "driven cavity needs kappa > 0 or delta_c != 0"
            if denom[i] == 0.0 else
            f"passive cubic: drive eta = {eta[i]:.6e} /us underflows the "
            f"bare-cavity photon number to 0")
    solve = np.flatnonzero(valid & (n_ref > 0.0))
    # extreme rates overflow here; _real_roots reports those rows
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = passive_cubic_coefficients(c.take(solve), eta[solve]) \
            * np.float_power(n_ref[solve, None], np.arange(3.0, -1.0, -1.0))
    x, optional, failed = _real_roots(coeffs, "passive cubic")
    errors.update((int(solve[i]), e) for i, e in failed.items())

    row, slot = np.nonzero(np.isfinite(x) & (x >= -1e-12))
    cell, optional = solve[row], optional[row, slot]
    n_m1 = np.maximum(x[row, slot], 0.0)  # in units of n_ref
    # unit-occupation scaling for reconstruction and polish
    s = np.sqrt(n_ref[cell])
    r = c.take(cell).rescale(s)
    eta_s = eta[cell] / s
    d_m = 0.5 * r.gamma + 1j * (r.delta_m + r.kerr * n_m1)
    for i in np.flatnonzero(d_m == 0.0):
        errors.setdefault(int(cell[i]), ConditioningError(
            "magnon response singular (gamma = 0 at zero effective "
            "detuning)"))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = eta_s / ((0.5 * r.kappa + 1j * r.delta_c) + r.g * r.g / d_m)
        m = -1j * r.g * a / d_m
        n_m = n_m1 * n_ref[cell]
    start = np.stack([a.real, a.imag, m.real, m.imag], axis=-1)
    z, res, keep = _polish(start, r, eta_s, cell, rate, ~optional,
                           "passive root n_m", n_m, errors)
    # (Re a, Im a, Re m, Im m) of each point
    a0, m0 = (z[keep] * s[keep, None]).view(complex).T
    zero = np.zeros(a0.size)  # omega and net gain
    return _finish(Solution("passive", cell[keep], a0, m0, zero, zero,
                            res[keep], errors),
                   origin, np.zeros(origin.size), rate)


def _merge_duplicates(cell: np.ndarray, omega: np.ndarray, n_m: np.ndarray,
                      rate: np.ndarray) -> np.ndarray:
    """Mask keeping the first of each group of coinciding points.

    The one rule that merges fixed points, for both models. Points come
    grouped by cell and sorted by (omega, n_m) within it; a point is
    dropped when its omega and n_m both lie within 1e-7 (relative) of a
    point already kept in its cell. Omega is relative to at least 1e-3
    of the cell's ``rate``, so passive points (omega 0) merge by n_m.
    """
    keep = np.ones(cell.size, dtype=bool)
    if cell.size < 2:
        return keep
    head = np.r_[True, cell[1:] != cell[:-1]]
    pos = np.arange(cell.size) - np.maximum.accumulate(
        np.where(head, np.arange(cell.size), 0))
    for k in range(1, int(pos.max()) + 1):
        at = np.flatnonzero(pos == k)
        dup = np.zeros(at.size, dtype=bool)
        for back in range(1, k + 1):
            j = at - back
            dup |= (keep[j]
                    & (np.abs(omega[at] - omega[j]) <= 1e-7 * np.maximum(
                        np.maximum(np.abs(omega[at]), np.abs(omega[j])),
                        rate[at] * 1e-3))
                    & (np.abs(n_m[at] - n_m[j])
                       <= 1e-7 * np.maximum(n_m[at], n_m[j])))
        keep[at] = ~dup
    return keep


def active_fixed_points(cells: Rates) -> Solution:
    """Coupled steady states of the gain-driven model, cell by cell.

    ``cells`` gives each batch member's rates (floats broadcast). The
    checks of a single cell run in this order: delta_c must be 0 and
    gamma > 0 (else ValueError); G_eff <= 0 gives no point; gamma_sat
    must be > 0 (else ValueError); G_eff/gamma_sat must not overflow
    (else ``model.saturated_photons``' ConditioningError); g == 0 gives
    the uncoupled oscillator's photon-only limit cycle
    a0 = sqrt(G_eff/gamma_sat) at omega = 0. Every other cell is solved
    through the quintic, its candidates rows of one table (cell,
    ``Rates``, start) with the doublet's mirrors appended; ``_polish``
    and ``_finish`` make them and the photon-only points one
    ``Solution``. The origin is never a point: a cell with none has it
    as its only steady state.
    """
    c = Rates(*_columns(*cells))
    rate = c.rate_scale()
    errors: dict[int, Exception] = {}
    for i in np.flatnonzero(c.delta_c != 0.0):
        errors[int(i)] = ValueError(
            f"active model requires delta_c == 0, got {c.delta_c[i]}")
    for i in np.flatnonzero((c.delta_c == 0.0) & (c.gamma <= 0.0)):
        errors[int(i)] = ValueError("active route requires gamma > 0")
    lasing = (c.delta_c == 0.0) & (c.gamma > 0.0) & (c.gain_eff > 0.0)
    for i in np.flatnonzero(lasing & (c.gamma_sat <= 0.0)):
        errors[int(i)] = ValueError(
            "active model needs gamma_sat > 0 to saturate")
    lasing &= c.gamma_sat > 0.0
    # the other cells' gamma_sat is 0: no ratio, no error
    n_sat = saturated_photons(
        c._replace(gamma_sat=np.where(lasing, c.gamma_sat, 0.0)), errors)
    lasing &= np.isfinite(n_sat)
    photon = np.flatnonzero(lasing & (c.g == 0.0))
    solve = np.flatnonzero(lasing & (c.g != 0.0))

    r = c.take(solve)
    # extreme rates overflow here; _real_roots reports those rows. c_k a_hi^k
    # is c_k mant^k times 2^(exp k): exact, and no power of a_hi can overflow
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a_hi = np.minimum(r.gain_eff, 2.0 * r.g * r.g / r.gamma)
        mant, exp = np.frexp(a_hi[:, None])
        k = np.arange(5, -1, -1)
        coeffs = np.ldexp(active_quintic_coefficients(r) * mant ** k, exp * k)
    x, optional, failed = _real_roots(coeffs, "active quintic")
    errors.update((int(solve[i]), e) for i, e in failed.items())

    row, slot = np.nonzero(np.isfinite(x))
    x, optional, cell = x[row, slot], optional[row, slot], solve[row]
    r = c.take(cell)
    # extreme finite rates overflow here; the masks and residuals drop them
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a_val = np.minimum(x, 1.0) * a_hi[row]
        n_m1 = 2.0 * a_val * (r.gain_eff - a_val) / (r.gain_eff * r.gamma)
        keep = (x > 1e-14) & (x <= 1.0 + 1e-9) & (n_m1 > 0.0)
        cell, optional, a_val, n_m1 = (
            v[keep] for v in (cell, optional, a_val, n_m1))
        # unit-occupation scaling: with s^2 = G_eff/gamma_sat the scaled
        # saturation is G_eff, so the photon amplitude p is O(1)
        s = np.sqrt(n_sat[cell])
        r = r.take(keep).rescale(s)
        p = np.sqrt((r.gain_eff - a_val) / r.gain_eff)
        u = r.delta_m + r.kerr * n_m1
        q = 2.0 * r.g * r.g * a_val / r.gamma - a_val * a_val
        regular = np.abs(2.0 * a_val - r.gamma) > 1e-6 * rate[cell]
        w_ratio = 2.0 * a_val * u / (2.0 * a_val - r.gamma)
        # near the polariton doublet the ratio above is 0/0; take the
        # frequency from the gain constraint instead, appending the
        # mirror -w and letting the residual filter decide
        w_gain = np.sqrt(np.maximum(q, 0.0))
        doublet = ~regular & (w_gain > 0.0)
        rep = np.r_[np.arange(cell.size), np.flatnonzero(doublet)]
        w = np.r_[np.where(regular, w_ratio, w_gain), -w_gain[doublet]]
        cell, a_val, p, s = (v[rep] for v in (cell, a_val, p, s))
        optional = (optional | doublet)[rep]
        r = r.take(rep)
        start = np.stack([p, w, w * p / r.g, -a_val * p / r.g], axis=-1)

    z, res, keep = _polish(start, r, None, cell, rate, ~optional,
                           "active root A", a_val, errors)
    p1, w1, mr1, mi1 = z.T
    flip = np.where(p1 < 0.0, -1.0, 1.0)  # phase gauge: a0 real positive
    p1, mr1, mi1 = p1 * flip, mr1 * flip, mi1 * flip
    keep &= (p1 * p1 > 1e-14) & (mr1 * mr1 + mi1 * mi1 > 1e-14)
    m0 = np.empty(cell.size, dtype=complex)
    m0.real, m0.imag = mr1 * s, mi1 * s
    return _finish(Solution("active", cell, p1 * s + 0j, m0, w1,
                            r.gain_eff - r.gamma_sat * p1 * p1, res,
                            errors).take(keep),
                   photon, np.sqrt(n_sat[photon]), rate)
