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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, InternalConsistencyError
from .model import DriveSpec, ModeState, Rates, SystemParams, batch_rates, \
    jacobian_rows, rescale, vector_field

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

# Distinct roots closer than this (relative, nondimensional) merge.
_DEDUPE_RTOL = 1e-9


@dataclass(frozen=True)
class FixedPoint:
    """One steady state of either model.

    ``omega`` is the emission frequency offset of the rotating ansatz
    (always 0 for the passive model, where the frame is the drive).
    ``net_gain`` is A = G_eff - gamma_sat*|a0|^2 for active points and
    0 for passive ones. ``residual`` is the steady-state defect in
    rescaled units (rad/us), recorded at construction.
    """

    a0: complex
    m0: complex
    omega: float
    kind: str  # "passive" or "active"
    net_gain: float
    residual: float

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


def _horner(columns: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Polynomials at x, given their descending coefficients as columns
    (one entry per point); the arithmetic of ``np.polyval``."""
    y = columns[0]
    for col in columns[1:]:
        y = y * x + col
    return y


def _real_roots(coeffs: np.ndarray, what: str
                ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Real roots of a batch of polynomials in a nondimensional variable.

    ``coeffs`` holds one row of descending coefficients per polynomial.
    Each row is normalized to unit maximum, and its roots are the
    eigenvalues of the companion matrix ``np.roots`` builds (exact
    leading and trailing zeros trimmed, each trailing zero a root at
    0), solved for all rows of one degree in a single stacked call.
    Real roots and near-real pairs get a few Newton steps on the
    polynomial; roots that then coincide are merged.

    Returns (x, optional, errors): ``x`` (N, degree) holds each row's
    roots in ascending order with NaN where there is none; ``optional``
    marks the roots that came from near-real pairs; ``errors`` maps the
    rows with non-finite coefficients to a ConditioningError.
    """
    c = np.array(coeffs, dtype=float, ndmin=2)
    n, d = c.shape[0], c.shape[1] - 1
    finite = np.isfinite(c).all(axis=1)
    errors: dict[int, Exception] = {
        int(i): ConditioningError(f"{what}: non-finite polynomial "
                                  f"coefficients")
        for i in np.flatnonzero(~finite)}
    cmax = np.abs(c).max(axis=1)
    solve = finite & (cmax > 0.0)
    c /= np.where(solve, cmax, 1.0)[:, None]
    c[~solve] = 0.0

    roots = np.full((n, d), np.nan, dtype=complex)
    nonzero = c != 0.0
    first = nonzero.argmax(axis=1)
    last = d - nonzero[:, ::-1].argmax(axis=1)
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

    # a few Newton steps on the polynomial for every candidate root
    row, slot = np.nonzero(real | optional)
    xs = roots.real[row, slot]
    cr = c[row]
    cols = list(cr.T)
    dcols = list((cr[:, :-1] * np.arange(d, 0, -1)).T)
    live = np.ones(xs.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(3):
            dp = _horner(dcols, xs)
            step = _horner(cols, xs) / dp
            live &= ((np.abs(dp) >= 1e-12) & (np.abs(step) <= 0.1 * np.maximum(
                np.abs(xs), 1.0)))
            moved = np.where(live, xs - step, xs)
            if np.array_equal(moved, xs):
                break  # a fixed point of the iteration: further steps equal
            xs = moved
    x = np.full((n, d), np.nan)
    x[row, slot] = xs

    # sort each row (NaN last) and merge roots closer than _DEDUPE_RTOL
    # to the last root kept
    order = np.argsort(x, axis=1)
    index = np.arange(n)[:, None]
    x, optional = x[index, order], optional[index, order]
    kept = x[:, 0]
    for k in range(1, d):
        xk = x[:, k]
        xk[np.abs(xk - kept) <= _DEDUPE_RTOL * np.maximum(
            np.maximum(np.abs(xk), np.abs(kept)), 1e-6)] = np.nan
        kept = np.fmax(kept, xk)  # ascending, so xk unless it is NaN
    return x, optional, errors


def _polish_state(z: np.ndarray, active: bool):
    """(a, m, omega) from the polish unknowns z (..., 4): (Re a, Im a,
    Re m, Im m) for passive points, (p, omega, Re m, Im m) for active
    ones, whose photon amplitude a = p is real (the phase gauge)."""
    x0, x1, mr, mi = z[..., 0], z[..., 1], z[..., 2], z[..., 3]
    m = mr + 1j * mi
    if active:
        return x0, m, x1
    return x0 + 1j * x1, m, 0.0


def _polish_defect(z: np.ndarray, rhs, active: bool) -> np.ndarray:
    """(Re, Im) of da/dt and dm/dt, active points co-rotating at omega."""
    a, m, w = _polish_state(z, active)
    da, dm = rhs(a, m)
    if active:
        da = da + 1j * w * a
        dm = dm + 1j * w * m
    out = np.empty(np.shape(z)[:-1] + (2,), dtype=complex)
    out[..., 0], out[..., 1] = da, dm
    return out.view(float)


def _polish_jacobian(z: np.ndarray, params: SystemParams | Rates,
                     active: bool) -> np.ndarray:
    """Real Jacobian (..., 4, 4) of ``_polish_defect`` in its unknowns.

    From the doubled-basis columns J_z, J_z*, the real part of an
    amplitude z has derivative J_z + J_z* and the imaginary part
    i (J_z - J_z*); omega enters the active defect as i (a, m).
    """
    a, m, w = _polish_state(z, active)
    row_a, row_m = jacobian_rows(params, a, m, w, active)
    if active:
        col1 = (1j * a, 1j * m)
    else:
        col1 = (1j * (row_a[0] - row_a[1]), 1j * (row_m[0] - row_m[1]))
    jac = np.empty(np.shape(z)[:-1] + (4, 4))
    for i, (row, c1) in enumerate(zip((row_a, row_m), col1)):
        cols = (row[0] + row[1], c1, row[2] + row[3], 1j * (row[2] - row[3]))
        for k, col in enumerate(cols):
            jac[..., 2 * i, k] = np.real(col)
            jac[..., 2 * i + 1, k] = np.imag(col)
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
                    drive: DriveSpec | None, active: bool,
                    max_iter: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Refine roots of ``_polish_defect``, one row of x (M, 4) each.

    Polynomial roots carry the companion-matrix accuracy limit, which
    near double roots is far looser than the residual contract; a few
    damped Newton iterations on the full steady-state system restore
    machine accuracy there. Each row iterates on its own (``tol`` and
    the ``rates`` arrays broadcast over the rows) until its defect is
    below 1% of its tolerance, a step fails, or no damped step
    improves it. Returns the best iterate of every row and its
    max-norm defect; never raises.
    """
    x = np.array(x, dtype=float)
    tol = np.zeros(len(x)) + tol
    with np.errstate(all="ignore"):
        fx = _polish_defect(x, vector_field(rates, drive), active)
        res = np.max(np.abs(fx), axis=-1)
        live = np.arange(len(x))
        for _ in range(max_iter):
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


def residual(fp: FixedPoint, params: SystemParams,
             drive: DriveSpec | None = None) -> float:
    """Steady-state defect max(|da/dt|, |dm/dt|) in rescaled units.

    Active points are evaluated in their own co-rotating frame, where
    d/dt acquires +i*omega. Amplitudes are rescaled to O(1) occupation
    first, so the result compares directly to params.rate_scale().
    """
    s = math.sqrt(max(fp.n_a, fp.n_m, 1.0))
    st, sp, sd = rescale(ModeState(a=fp.a0, m=fp.m0), params, s, drive)
    if fp.kind == "passive" and sd is None:
        raise ValueError("passive residual needs the drive")
    rhs = vector_field(sp, sd if fp.kind == "passive" else None)
    da, dm = rhs(st.a, st.m)
    return max(abs(da + 1j * fp.omega * st.a),
               abs(dm + 1j * fp.omega * st.m))


def passive_fixed_points(params: SystemParams,
                         drive: DriveSpec) -> list[FixedPoint]:
    """All steady states of the driven passive model, sorted by n_m.

    Solves the magnon-number cubic in units of the bare-cavity photon
    number n0 = eta^2 / ((kappa/2)^2 + delta_c^2), then reconstructs
    amplitudes root by root. Raises InternalConsistencyError if a
    reconstructed point fails its residual check.
    """
    kappa, gamma, g = params.kappa, params.gamma, params.g
    dc, dm_det = params.delta_c, params.delta_m
    denom0 = (0.5 * kappa) ** 2 + dc ** 2
    if drive.eta > 0 and denom0 <= 0.0:
        raise ConditioningError(
            "driven cavity needs kappa > 0 or delta_c != 0")
    if drive.eta == 0.0:
        return [FixedPoint(a0=0.0j, m0=0.0j, omega=0.0, kind="passive",
                           net_gain=0.0, residual=0.0)]
    n_ref = drive.eta ** 2 / denom0

    c = passive_cubic_coefficients(params, drive)
    scale_pow = np.array([n_ref ** 3, n_ref ** 2, n_ref, 1.0])
    x, optional, errors = _real_roots(c * scale_pow, "passive cubic")
    if errors:
        raise errors[0]
    keep = np.isfinite(x[0]) & (x[0] >= -1e-12)
    roots, optional = x[0][keep].tolist(), optional[0][keep].tolist()

    # unit-occupation scaling for reconstruction and polish
    s = math.sqrt(n_ref)
    kerr_s = params.kerr * n_ref
    eta_s = drive.eta / s
    rate = params.rate_scale()
    tol = RESIDUAL_RTOL * rate

    starts = []
    for x1 in roots:
        n_m1 = max(x1, 0.0)  # in units of n_ref
        delta = dm_det + kerr_s * n_m1
        d_m = 0.5 * gamma + 1j * delta
        if abs(d_m) == 0.0:
            raise ConditioningError("magnon response singular (gamma = 0 "
                                    "at zero effective detuning)")
        a = eta_s / ((0.5 * kappa + 1j * dc) + g * g / d_m)
        m = -1j * g * a / d_m
        starts.append([a.real, a.imag, m.real, m.imag])
    z, res = _damped_newton4(np.reshape(starts, (-1, 4)), tol,
                             batch_rates(params, kerr=kerr_s),
                             DriveSpec(eta=eta_s), active=False)

    out = []
    for x1, opt, zk, rk in zip(roots, optional, z, res.tolist()):
        if not rk <= tol:
            if opt:
                continue  # a near-real pair that is no fixed point
            raise InternalConsistencyError(
                f"passive root n_m={max(x1, 0.0) * n_ref:.6e} reconstructed "
                f"with residual {rk:.3e} > {tol:.3e} rad/us")
        out.append(FixedPoint(a0=complex(zk[0] + 1j * zk[1]) * s,
                              m0=complex(zk[2] + 1j * zk[3]) * s,
                              omega=0.0, kind="passive",
                              net_gain=0.0, residual=rk))

    merged: list[FixedPoint] = []
    for fp in sorted(out, key=lambda f: f.n_m):
        if merged and abs(fp.n_m - merged[-1].n_m) <= _DEDUPE_RTOL * max(
                fp.n_m, merged[-1].n_m, 1e-300):
            continue
        merged.append(fp)
    return merged


@dataclass(frozen=True)
class ActiveSolution:
    """Coupled steady states of a batch of active parameter cells.

    One entry per fixed point, in physical units as in ``FixedPoint``;
    ``cell`` is the point's index in the batch. Points are grouped by
    ascending cell and sorted by (omega, n_m) within it. ``errors``
    maps a cell to the exception that stopped its solve; such a cell
    has no points.
    """

    cell: np.ndarray
    a0: np.ndarray
    m0: np.ndarray
    omega: np.ndarray
    net_gain: np.ndarray
    residual: np.ndarray
    errors: dict[int, Exception]


def _coupled_points(c: Rates, rate: np.ndarray):
    """Polynomial route of ``solve_active`` for cells with g > 0.

    Returns the point arrays (cell, a0, m0, omega, net_gain, residual),
    unmerged, and the cells' errors, all indexed into ``c``.
    """
    gamma, g, g_eff = c.gamma, c.g, c.gain_eff
    a_hi = np.minimum(g_eff, 2.0 * g * g / gamma)
    coeffs = active_quintic_coefficients(c) \
        * a_hi[:, None] ** np.arange(5, -1, -1, dtype=float)
    x, optional, errors = _real_roots(coeffs, "active quintic")

    cell, slot = np.nonzero(np.isfinite(x))
    x, optional = x[cell, slot], optional[cell, slot]
    # unit-occupation scaling: with n_ref = G_eff/gamma_sat the scaled
    # saturation equals G_eff, so the photon amplitude is O(1)
    ge = g_eff[cell]
    gamma_c, g_c = gamma[cell], g[cell]
    a_val = np.minimum(x, 1.0) * a_hi[cell]
    n_m1 = 2.0 * a_val * (ge - a_val) / (ge * gamma_c)
    keep = (x > 1e-14) & (x <= 1.0 + 1e-9) & (n_m1 > 0.0)
    cell, optional, ge, gamma_c, g_c, a_val, n_m1 = (
        v[keep] for v in (cell, optional, ge, gamma_c, g_c, a_val, n_m1))
    kerr_s = c.kerr[cell] * (ge / c.gamma_sat[cell])
    p = np.sqrt((ge - a_val) / ge)
    u = c.delta_m[cell] + kerr_s * n_m1
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
    cell, a_val, p, g_c, ge, kerr_s = (
        v[rep] for v in (cell, a_val, p, g_c, ge, kerr_s))
    optional = optional[rep] | doublet[rep]

    tol = RESIDUAL_RTOL * rate[cell]
    start = np.stack([p, w, w * p / g_c, -a_val * p / g_c], axis=-1)
    polish = c.take(cell)._replace(delta_c=0.0, kerr=kerr_s, gamma_sat=ge)
    z, res = _damped_newton4(start, tol, polish, None, active=True)

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
    s = np.sqrt(ge / c.gamma_sat[cell])
    m0 = np.empty(cell.size, dtype=complex)
    m0.real, m0.imag = mr1 * s, mi1 * s
    return ((cell[keep], (p1 * s)[keep] + 0j, m0[keep], w1[keep],
             (ge - ge * p1 * p1)[keep], res[keep]), errors)


def _merge_duplicates(cell: np.ndarray, omega: np.ndarray, n_m: np.ndarray,
                      rate: np.ndarray) -> np.ndarray:
    """Mask keeping the first of each group of coinciding points.

    Points come grouped by cell and sorted by (omega, n_m) within it; a
    point is dropped when its omega and n_m both lie within 1e-7
    (relative) of a point already kept in its cell.
    """
    keep = np.ones(cell.size, dtype=bool)
    if not cell.size:
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


def solve_active(cells: Rates) -> ActiveSolution:
    """Coupled steady states of the gain-driven model, cell by cell.

    ``cells`` gives each batch member's rates (floats broadcast). The
    checks of a single cell run in this order: delta_c must be 0 and
    gamma > 0 (else ValueError); G_eff <= 0 gives no point; gamma_sat
    must be > 0 (else ValueError); g == 0 gives the uncoupled
    oscillator's photon-only limit cycle a0 = sqrt(G_eff/gamma_sat) at
    omega = 0; every other cell is solved through the quintic, with
    all cells' companion roots, Newton polishes and duplicate merging
    done as array operations over the whole batch.
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

    photon = np.flatnonzero(lasing & (c.g == 0.0))
    coupled = np.flatnonzero(lasing & (c.g != 0.0))
    sub = c.take(coupled)
    (cell, a0, m0, omega, net_gain, res), sub_errors = _coupled_points(
        sub, rate[coupled])
    errors.update((int(coupled[i]), e) for i, e in sub_errors.items())
    cell = np.concatenate([photon, coupled[cell]])
    a0 = np.concatenate([np.sqrt(c.gain_eff[photon] / c.gamma_sat[photon])
                         + 0j, a0])
    m0 = np.concatenate([np.zeros(photon.size, dtype=complex), m0])
    omega, net_gain, res = (np.concatenate([np.zeros(photon.size), v])
                            for v in (omega, net_gain, res))

    n_m = np.abs(m0) ** 2
    order = np.lexsort((n_m, omega, cell))
    cell, a0, m0, omega, net_gain, res, n_m = (
        v[order] for v in (cell, a0, m0, omega, net_gain, res, n_m))
    keep = _merge_duplicates(cell, omega, n_m, rate[cell])
    return ActiveSolution(cell=cell[keep], a0=a0[keep], m0=m0[keep],
                          omega=omega[keep], net_gain=net_gain[keep],
                          residual=res[keep], errors=errors)


def active_fixed_points(params: SystemParams) -> list[FixedPoint]:
    """Coupled steady states of the gain-driven model, sorted by omega.

    Only solutions with magnon number > 0 are returned; the origin is
    not counted, and for g > 0 a photon-only state is not a fixed point
    at all (the coupling forces magnon content). An empty list
    therefore means the origin is the only steady state. The single
    exception is the uncoupled oscillator g == 0, whose photon-only
    limit cycle a0 = sqrt(G_eff/gamma_sat) at omega = 0 is returned so
    the decoupled device still reports its lasing state. This is
    ``solve_active`` on one cell; its error is raised.
    """
    sol = solve_active(batch_rates(params))
    if sol.errors:
        raise sol.errors[0]
    return [FixedPoint(a0=complex(a0), m0=complex(m0), omega=float(w),
                       kind="active", net_gain=float(ng), residual=float(r))
            for a0, m0, w, ng, r in zip(sol.a0, sol.m0, sol.omega,
                                        sol.net_gain, sol.residual)]
