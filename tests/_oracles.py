"""Independent reference computations used to check the production routes.

Everything here works directly on the coupled-mode equations with
generic numerics (multi-start damped Newton with finite-difference
Jacobians, direct time integration, the linearization restated from
the equations). Nothing imports the polynomial coefficients,
reconstruction code, or analytic Jacobians under test.
"""

from __future__ import annotations

import numpy as np

from magpol.model import DriveSpec, SystemParams, vector_field


def _newton(f, x0, tol, max_iter=80):
    """Damped Newton iteration with a finite-difference Jacobian.

    Returns the converged point or None. f maps R^n -> R^n.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = f(x)
    if not np.all(np.isfinite(fx)):
        return None
    for _ in range(max_iter):
        nfx = np.linalg.norm(fx)
        if nfx < tol:
            return x
        n = x.size
        jac = np.empty((n, n))
        for j in range(n):
            h = 1e-7 * max(abs(x[j]), 1.0)
            xp = x.copy()
            xp[j] += h
            xm = x.copy()
            xm[j] -= h
            jac[:, j] = (f(xp) - f(xm)) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        for _ in range(30):
            xn = x + lam * step
            fn = f(xn)
            if np.all(np.isfinite(fn)) and np.linalg.norm(fn) < nfx:
                x, fx = xn, fn
                break
            lam *= 0.5
        else:
            return None
    return x if np.linalg.norm(f(x)) < tol else None


def passive_fixed_points_newton(params: SystemParams, drive: DriveSpec,
                                n_starts: int = 64):
    """All steady states of the driven passive model, by multi-start Newton.

    Works in amplitudes rescaled by sqrt(n0) so the unknowns are O(1).
    Returns a list of (a, m) complex pairs in physical units, sorted by
    magnon number; duplicates are merged at 1e-8 relative distance.
    """
    kappa, gamma, g = params.kappa, params.gamma, params.g
    dc, dm_det = params.delta_c, params.delta_m
    n0 = drive.eta ** 2 / ((0.5 * kappa) ** 2 + dc ** 2)
    s = np.sqrt(n0) if n0 > 0 else 1.0
    kerr, eta = params.kerr * s * s, drive.eta / s
    scale = params.rate_scale()

    def f(x):
        a = x[0] + 1j * x[1]
        m = x[2] + 1j * x[3]
        e1 = -(0.5 * kappa + 1j * dc) * a - 1j * g * m + eta
        e2 = -(0.5 * gamma + 1j * (dm_det + kerr * abs(m) ** 2)) * m \
            - 1j * g * a
        return np.array([e1.real, e1.imag, e2.real, e2.imag])

    # Seed over candidate magnon numbers spanning many decades around
    # n0; reconstruct matching seed amplitudes from the linear response
    # at the Kerr-shifted detuning.
    seeds = []
    for nm_rel in np.geomspace(1e-8, 1e8, n_starts - 1):
        delta = dm_det + kerr * nm_rel
        d_mode = 0.5 * gamma + 1j * delta
        denom = (0.5 * kappa + 1j * dc) + g ** 2 / d_mode if abs(d_mode) > 0 \
            else (0.5 * kappa + 1j * dc)
        a = eta / denom
        m = -1j * g * a / d_mode if abs(d_mode) > 0 else 0.0j
        seeds.append([a.real, a.imag, m.real, m.imag])
    seeds.append([0.0, 0.0, 0.0, 0.0])

    found = []
    for x0 in seeds:
        x = _newton(f, x0, tol=1e-12 * max(scale, 1.0))
        if x is None:
            continue
        a = (x[0] + 1j * x[1]) * s
        m = (x[2] + 1j * x[3]) * s
        key = (abs(a) ** 2, abs(m) ** 2)
        ref = max(n0 * s ** 0, abs(a) ** 2, abs(m) ** 2, 1.0)
        dup = False
        for (ka, km), _ in found:
            if abs(ka - key[0]) <= 1e-8 * max(ka, key[0], 1e-300) + 1e-12 \
                    and abs(km - key[1]) <= 1e-8 * max(km, key[1], 1e-300) + 1e-12:
                dup = True
                break
        if not dup:
            found.append((key, (a, m)))
    found.sort(key=lambda it: it[0][1])
    return [am for _, am in found]


def active_fixed_points_newton(params: SystemParams, n_starts: int = 48):
    """Coupled steady states of the gain-driven model, by multi-start Newton.

    The ansatz a = a0 exp(-i W t), m = m0 exp(-i W t) with a0 real > 0
    (phase gauge) turns the steady state into four real unknowns
    (a0, Re m0, Im m0, W). Only coupled solutions with magnon number
    > 0 are returned, as (a0, m0, W) triples sorted by W; the origin
    and the magnon-free state are excluded.
    """
    g_eff = params.gain_eff
    gamma, g = params.gamma, params.g
    dm_det = params.delta_m
    if g_eff <= 0 or g == 0 or params.gamma_sat <= 0:
        return []
    n_ref = g_eff / params.gamma_sat
    s = np.sqrt(n_ref)
    kerr, gsat = params.kerr * s * s, params.gamma_sat * s * s
    scale = params.rate_scale()

    def f(x):
        a0, mr, mi, w = x
        m = mr + 1j * mi
        e1 = (g_eff - gsat * a0 * a0 + 1j * w) * a0 - 1j * g * m
        e2 = -(0.5 * gamma + 1j * (dm_det - w + kerr * abs(m) ** 2)) * m \
            - 1j * g * a0
        return np.array([e1.real, e1.imag, e2.real, e2.imag])

    # Seed A = g_eff - gsat a0^2 over its admissible range; both signs
    # of the frequency candidate from A^2 + W^2 = 2 g^2 A / gamma.
    a_hi = min(g_eff, 2.0 * g ** 2 / gamma)
    seeds = []
    for a_val in np.linspace(a_hi / n_starts, a_hi * 0.999, n_starts // 2):
        na = (g_eff - a_val) / gsat
        if na <= 0:
            continue
        a0 = np.sqrt(na)
        q = 2.0 * g ** 2 * a_val / gamma - a_val ** 2
        w0 = np.sqrt(q) if q > 0 else 0.0
        for w in (w0, -w0) if w0 > 0 else (0.0,):
            m0 = (w - 1j * a_val) * a0 / g
            seeds.append([a0, m0.real, m0.imag, w])

    found = []
    for x0 in seeds:
        x = _newton(f, x0, tol=1e-12 * max(scale, 1.0))
        if x is None:
            continue
        a0, mr, mi, w = x
        if a0 < 0:  # gauge: flip to a0 >= 0
            a0, mr, mi = -a0, -mr, -mi
        nm = mr * mr + mi * mi
        if a0 ** 2 <= 1e-12 or nm <= 1e-12:
            continue  # origin or magnon-free
        key = (a0 * a0, nm, w)
        dup = False
        for (ka, km, kw), _ in found:
            if abs(ka - key[0]) <= 1e-8 * max(ka, key[0]) \
                    and abs(km - key[1]) <= 1e-8 * max(km, key[1]) \
                    and abs(kw - key[2]) <= 1e-8 * max(abs(kw), abs(key[2]), scale * 1e-3):
                dup = True
                break
        if not dup:
            found.append((key, (a0 * s, (mr + 1j * mi) * s, w)))
    found.sort(key=lambda it: it[0][2])
    return [sol for _, sol in found]


def complex_field(params: SystemParams, drive: DriveSpec | None = None):
    """The model right-hand side as ``f(a, m) -> (da/dt, dm/dt)`` on
    complex amplitudes (scalars or arrays), wrapped around the
    real-component ``vector_field``."""
    rhs = vector_field(params, drive)

    def f(a, m):
        dar, dai, dmr, dmi = rhs(np.real(a), np.imag(a), np.real(m),
                                 np.imag(m))
        return dar + 1j * dai, dmr + 1j * dmi
    return f


def jacobian_fd(params: SystemParams, a0: complex, m0: complex,
                omega: float = 0.0, drive: DriveSpec | None = None,
                eps: float | None = None) -> np.ndarray:
    """Finite-difference Jacobian on (Re a, Im a, Re m, Im m).

    Central differences of the model right-hand side (co-rotated by
    omega for the active system) in the real and imaginary parts of
    each amplitude; rows are (Re, Im) of da/dt and dm/dt.
    """
    field = complex_field(params, drive)

    def rhs(a, m):
        da, dm = field(a, m)
        if drive is not None:
            return np.array([da, dm])
        # co-rotating frame: d/dt -> d/dt + i omega
        return np.array([da + 1j * omega * a, dm + 1j * omega * m])

    amp = max(abs(a0), abs(m0), 1.0)
    h = (eps if eps is not None else 1e-6) * amp
    cols = [(rhs(a0 + ua * h, m0 + um * h) - rhs(a0 - ua * h, m0 - um * h))
            / (2.0 * h) for ua, um in ((1, 0), (1j, 0), (0, 1), (0, 1j))]
    return np.array(cols).view(float).T


def doubled_jacobian(params, a, m, omega=0.0, active=False) -> np.ndarray:
    """Complex linearization (..., 4, 4) on (da, da*, dm, dm*).

    Stated from the equations of ``magpol.model`` in a frame
    co-rotating at ``omega`` (d/dt picks up +i omega): row k holds the
    derivatives of the k-th of (da/dt, da*/dt, dm/dt, dm*/dt) with
    respect to (a, a*, m, m*). ``params`` is a ``SystemParams`` or a
    batch of broadcasting rates; a and m are scalars or arrays.
    """
    cg = -1j * params.g  # -i g m in da/dt, -i g a in dm/dt
    if active:
        # (G_eff - gamma_sat a a*) a
        aa = params.gain_eff + 1j * omega \
            - 2.0 * params.gamma_sat * np.abs(a) ** 2
        ab = -params.gamma_sat * a * a
    else:
        # -(kappa/2 + i delta_c) a + eta
        aa = -(0.5 * params.kappa + 1j * (params.delta_c - omega))
        ab = 0j
    # -(gamma/2 + i delta_m) m - i kerr m m* m
    mm = -(0.5 * params.gamma + 1j * (params.delta_m - omega)) \
        - 2j * params.kerr * np.abs(m) ** 2
    mb = -1j * params.kerr * m * m
    rows = ((aa, ab, cg, 0j),
            (np.conj(ab), np.conj(aa), 0j, np.conj(cg)),
            (cg, 0j, mm, mb),
            (0j, np.conj(cg), np.conj(mb), np.conj(mm)))
    entries = [entry for row in rows for entry in row]
    out = np.empty(np.broadcast(*entries).shape + (16,), dtype=complex)
    for k, entry in enumerate(entries):
        out[..., k] = entry
    return out.reshape(out.shape[:-1] + (4, 4))


def integrate_reference(params: SystemParams, a: complex, m: complex,
                        duration: float, dt: float,
                        drive: DriveSpec | None = None):
    """Plain RK4 reference integration, returns the final (a, m).

    Independent re-statement of the stepping rule used to validate the
    production integrator on analytically solvable cases.
    """
    f = complex_field(params, drive)
    n = int(round(duration / dt))
    for _ in range(n):
        k1a, k1m = f(a, m)
        k2a, k2m = f(a + 0.5 * dt * k1a, m + 0.5 * dt * k1m)
        k3a, k3m = f(a + 0.5 * dt * k2a, m + 0.5 * dt * k2m)
        k4a, k4m = f(a + dt * k3a, m + dt * k3m)
        a = a + dt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)
        m = m + dt / 6.0 * (k1m + 2 * k2m + 2 * k3m + k4m)
    return a, m
