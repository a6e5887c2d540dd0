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

Both routes report a ``Solution``: ``solve_active`` one of arrays for
a batch of cells, the one-cell solves a list of its rows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, InternalConsistencyError
from .model import DriveSpec, Rates, SystemParams, bare_cavity_photons, \
    batch_rates, jacobian, saturated_photons, vector_field

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
    the batch. One fixed point is a row: Python scalars, ``cell`` 0.

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
    def n_a(self) -> float:
        return abs(self.a0) ** 2

    @property
    def n_m(self) -> float:
        return abs(self.m0) ** 2


def passive_cubic_coefficients(params: SystemParams,
                               drive: DriveSpec) -> np.ndarray:
    """Cubic in the magnon number, descending coefficients (length 4)."""
    kappa, gamma, g = params.kappa, params.gamma, params.g
    dc, dm = params.delta_c, params.delta_m
    kerr = params.kerr
    r0 = 0.25 * kappa * gamma + g * g - dc * dm
    r1 = -dc * kerr
    i0 = 0.5 * kappa * dm + 0.5 * dc * gamma
    i1 = 0.5 * kappa * kerr
    return np.array([
        r1 * r1 + i1 * i1,
        2.0 * (r0 * r1 + i0 * i1),
        r0 * r0 + i0 * i0,
        -g * g * drive.eta ** 2,
    ])


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


def _damped_newton4(x: np.ndarray, tol, rates: Rates,
                    drive: DriveSpec | None) -> tuple[np.ndarray, np.ndarray]:
    """Refine roots of ``_polish_defect``, one row of x (M, 4) each.

    ``rates`` and ``drive`` are at unit occupation; without a drive the
    model is the active one. The only refinement of the unpolished
    companion-matrix roots, which near double roots are only about
    sqrt(eps) accurate: up to 8 damped Newton iterations on the full
    steady-state system restore machine accuracy, and the residual left
    is what admits a near-real candidate. Each row iterates on its own
    (``tol`` and the ``rates`` arrays broadcast over the rows) until its
    defect is below 1% of its tolerance, a step fails, or no damped
    step improves it. Returns the best iterate of every row and its
    max-norm defect; never raises.
    """
    active = drive is None
    x = np.array(x, dtype=float)
    tol = np.zeros(len(x)) + tol
    with np.errstate(all="ignore"):
        fx = _polish_defect(x, vector_field(rates, drive), active)
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
                fn = _polish_defect(
                    xn, vector_field(rates.take(rows), drive), active)
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


def passive_fixed_points(params: SystemParams,
                         drive: DriveSpec) -> list[Solution]:
    """All steady states of the driven passive model, sorted by n_m.

    Solves the magnon-number cubic in units of the bare-cavity photon
    number n0 (``model.bare_cavity_photons``), then reconstructs and
    polishes amplitudes root by root, divided by s = sqrt(n0), merging
    coinciding points by ``_merge_duplicates`` at omega = 0. Raises
    ConditioningError if n0 is 0 (undamped resonant cavity, or eta^2
    underflows) or the scaled cubic overflows, and InternalConsistencyError
    if a reconstructed point fails its residual check.
    """
    kappa, gamma, g = params.kappa, params.gamma, params.g
    dc, dm_det = params.delta_c, params.delta_m
    n_ref, denom0 = bare_cavity_photons(params, drive.eta)
    if drive.eta == 0.0:
        return [Solution("passive", 0, 0j, 0j, 0.0, 0.0, 0.0, errors={})]
    if n_ref == 0.0:
        raise ConditioningError(
            "driven cavity needs kappa > 0 or delta_c != 0" if denom0 == 0.0
            else f"passive cubic: drive eta = {drive.eta:.6e} /us "
                 f"underflows the bare-cavity photon number to 0")
    n = np.float64(n_ref)  # scalar powers: Python's bits, inf if too large
    # extreme rates overflow here; _real_roots reports them
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        coeffs = passive_cubic_coefficients(params, drive) \
            * np.array([n ** 3, n ** 2, n, 1.0])
    x, optional, errors = _real_roots(coeffs, "passive cubic")
    if errors:
        raise errors[0]
    keep = np.isfinite(x[0]) & (x[0] >= -1e-12)
    roots, optional = x[0][keep].tolist(), optional[0][keep].tolist()

    # unit-occupation scaling for reconstruction and polish
    s = math.sqrt(n_ref)
    rates = batch_rates(params).rescale(s)
    eta_s = drive.eta / s
    rate = params.rate_scale()
    tol = RESIDUAL_RTOL * rate

    starts = []
    for x1 in roots:
        n_m1 = max(x1, 0.0)  # in units of n_ref
        delta = dm_det + rates.kerr * n_m1
        d_m = 0.5 * gamma + 1j * delta
        if abs(d_m) == 0.0:
            raise ConditioningError("magnon response singular (gamma = 0 "
                                    "at zero effective detuning)")
        a = eta_s / ((0.5 * kappa + 1j * dc) + g * g / d_m)
        m = -1j * g * a / d_m
        starts.append([a.real, a.imag, m.real, m.imag])
    z, res = _damped_newton4(np.reshape(starts, (-1, 4)), tol, rates,
                             DriveSpec(eta=eta_s))

    out = []
    for x1, opt, zk, rk in zip(roots, optional, z, res.tolist()):
        if not rk <= tol:
            if opt:
                continue  # a near-real pair that is no fixed point
            raise InternalConsistencyError(
                f"passive root n_m={max(x1, 0.0) * n_ref:.6e} reconstructed "
                f"with residual {rk:.3e} > {tol:.3e} rad/us")
        out.append(Solution("passive", 0, complex(zk[0] + 1j * zk[1]) * s,
                            complex(zk[2] + 1j * zk[3]) * s, 0.0, 0.0, rk,
                            errors={}))

    out.sort(key=lambda f: f.n_m)
    zero = np.zeros(len(out))  # one cell, omega = 0
    keep = _merge_duplicates(zero, zero, np.array([f.n_m for f in out]),
                             zero + rate)
    return [fp for fp, k in zip(out, keep) if k]


def _coupled_points(c: Rates, rate: np.ndarray, n_sat: np.ndarray):
    """Polynomial route of ``solve_active`` for cells with g > 0 and
    saturated photon numbers ``n_sat``.

    Returns the point arrays (cell, a0, m0, omega, net_gain, residual),
    unmerged, and the cells' errors, all indexed into ``c``.
    """
    gamma, g, g_eff = c.gamma, c.g, c.gain_eff
    # extreme rates overflow here; _real_roots reports those rows
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a_hi = np.minimum(g_eff, 2.0 * g * g / gamma)
        coeffs = active_quintic_coefficients(c) \
            * a_hi[:, None] ** np.arange(5, -1, -1, dtype=float)
    x, optional, errors = _real_roots(coeffs, "active quintic")

    cell, slot = np.nonzero(np.isfinite(x))
    x, optional = x[cell, slot], optional[cell, slot]
    ge = g_eff[cell]
    gamma_c, g_c = gamma[cell], g[cell]
    a_val = np.minimum(x, 1.0) * a_hi[cell]
    n_m1 = 2.0 * a_val * (ge - a_val) / (ge * gamma_c)
    keep = (x > 1e-14) & (x <= 1.0 + 1e-9) & (n_m1 > 0.0)
    cell, optional, ge, gamma_c, g_c, a_val, n_m1 = (
        v[keep] for v in (cell, optional, ge, gamma_c, g_c, a_val, n_m1))
    # unit-occupation scaling: with s^2 = G_eff/gamma_sat the scaled
    # saturation is G_eff, so the photon amplitude p is O(1)
    s = np.sqrt(n_sat[cell])
    scaled = c.take(cell)._replace(delta_c=0.0).rescale(s)
    p = np.sqrt((ge - a_val) / ge)
    u = scaled.delta_m + scaled.kerr * n_m1
    q = 2.0 * g_c * g_c * a_val / gamma_c - a_val * a_val
    regular = np.abs(2.0 * a_val - gamma_c) > 1e-6 * rate[cell]
    with np.errstate(divide="ignore", invalid="ignore"):
        w_ratio = 2.0 * a_val * u / (2.0 * a_val - gamma_c)
    # near the polariton doublet the ratio above is 0/0; take the
    # frequency from the gain constraint instead, keeping both signs
    # and letting the residual filter decide
    w_gain = np.sqrt(np.maximum(q, 0.0))
    doublet = ~regular & (w_gain > 0.0)
    rep = np.repeat(np.arange(cell.size), 1 + doublet)
    second = np.zeros(rep.size, dtype=bool)
    second[1:] = rep[1:] == rep[:-1]
    w = np.where(regular[rep], w_ratio[rep],
                 np.where(second, -w_gain[rep], w_gain[rep]))
    cell, a_val, p, g_c, ge, s = (
        v[rep] for v in (cell, a_val, p, g_c, ge, s))
    optional = optional[rep] | doublet[rep]
    scaled = scaled.take(rep)

    tol = RESIDUAL_RTOL * rate[cell]
    start = np.stack([p, w, w * p / g_c, -a_val * p / g_c], axis=-1)
    z, res = _damped_newton4(start, tol, scaled, None)

    ok = res <= tol
    for i in np.flatnonzero(~ok & ~optional):
        errors.setdefault(int(cell[i]), InternalConsistencyError(
            f"active root A={a_val[i]:.6e} reconstructed with residual "
            f"{res[i]:.3e} > {tol[i]:.3e} rad/us"))
    p1, w1, mr1, mi1 = z.T
    flip = np.where(p1 < 0.0, -1.0, 1.0)  # phase gauge: a0 real positive
    p1, mr1, mi1 = p1 * flip, mr1 * flip, mi1 * flip
    keep = (ok & (p1 * p1 > 1e-14) & (mr1 * mr1 + mi1 * mi1 > 1e-14)
            & ~np.isin(cell, list(errors)))
    m0 = np.empty(cell.size, dtype=complex)
    m0.real, m0.imag = mr1 * s, mi1 * s
    return ((cell[keep], (p1 * s)[keep] + 0j, m0[keep], w1[keep],
             (ge - scaled.gamma_sat * p1 * p1)[keep], res[keep]), errors)


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


def solve_active(cells: Rates) -> Solution:
    """Coupled steady states of the gain-driven model, cell by cell.

    ``cells`` gives each batch member's rates (floats broadcast). The
    checks of a single cell run in this order: delta_c must be 0 and
    gamma > 0 (else ValueError); G_eff <= 0 gives no point; gamma_sat
    must be > 0 (else ValueError); G_eff/gamma_sat must not overflow
    (else ``model.saturated_photons``' ConditioningError); g == 0 gives
    the uncoupled oscillator's photon-only limit cycle
    a0 = sqrt(G_eff/gamma_sat) at omega = 0; every other cell is solved
    through the quintic, with all cells' companion roots, Newton
    polishes and duplicate merging done as array operations over the
    whole batch. Points are grouped by ascending cell and sorted by
    (omega, n_m) within it.
    """
    c = Rates(*(np.array(v, dtype=float).ravel()
                for v in np.broadcast_arrays(*cells)))
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
    # G_eff / gamma_sat once per cell; where it overflows, the error of
    # model.saturated_photons (on Python floats: numpy scalars warn)
    with np.errstate(over="ignore"):
        n_sat = c.gain_eff / np.where(lasing, c.gamma_sat, 1.0)
    for i in np.flatnonzero(lasing & ~np.isfinite(n_sat)):
        try:
            saturated_photons(Rates(*(v[i].item() for v in c)))
        except ConditioningError as exc:
            errors[int(i)] = exc
    lasing &= np.isfinite(n_sat)

    photon = np.flatnonzero(lasing & (c.g == 0.0))
    coupled = np.flatnonzero(lasing & (c.g != 0.0))
    sub = c.take(coupled)
    (cell, a0, m0, omega, net_gain, res), sub_errors = _coupled_points(
        sub, rate[coupled], n_sat[coupled])
    errors.update((int(coupled[i]), e) for i, e in sub_errors.items())
    cell = np.concatenate([photon, coupled[cell]])
    a0 = np.concatenate([np.sqrt(n_sat[photon]) + 0j, a0])
    m0 = np.concatenate([np.zeros(photon.size, dtype=complex), m0])
    omega, net_gain, res = (np.concatenate([np.zeros(photon.size), v])
                            for v in (omega, net_gain, res))

    n_m = np.abs(m0) ** 2
    order = np.lexsort((n_m, omega, cell))
    cell, a0, m0, omega, net_gain, res, n_m = (
        v[order] for v in (cell, a0, m0, omega, net_gain, res, n_m))
    keep = _merge_duplicates(cell, omega, n_m, rate[cell])
    return Solution(kind="active", cell=cell[keep], a0=a0[keep],
                    m0=m0[keep], omega=omega[keep], net_gain=net_gain[keep],
                    residual=res[keep], errors=errors)


def active_fixed_points(params: SystemParams) -> list[Solution]:
    """Coupled steady states of the gain-driven model, sorted by omega.

    Only solutions with magnon number > 0 are returned; the origin is
    not counted, and for g > 0 a photon-only state is not a fixed point
    at all (the coupling forces magnon content). An empty list
    therefore means the origin is the only steady state. The single
    exception is the uncoupled oscillator g == 0, whose photon-only
    limit cycle a0 = sqrt(G_eff/gamma_sat) at omega = 0 is returned so
    the decoupled device still reports its lasing state. This is
    ``solve_active`` on one cell, as rows of its ``Solution``; its error
    is raised.
    """
    sol = solve_active(batch_rates(params))
    if sol.errors:
        raise sol.errors[0]
    return [Solution("active", 0, *row, errors={})
            for row in zip(*(v.tolist() for v in sol[2:-1]))]
