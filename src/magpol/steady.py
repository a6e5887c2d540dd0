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
from .model import DriveSpec, ModeState, SystemParams, jacobian_rows, \
    rescale, vector_field

# A polynomial root counts as real when |Im| <= RTOL*|root| + ATOL
# (in the nondimensional variable, which is O(1) by construction).
REAL_ROOT_RTOL = 1e-7
REAL_ROOT_ATOL = 1e-10

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


def active_quintic_coefficients(params: SystemParams) -> np.ndarray:
    """Quintic in the net gain A, descending coefficients (length 6)."""
    gamma, g = params.gamma, params.g
    g_eff = params.gain_eff
    u0 = params.delta_m
    u1 = 2.0 * params.kerr * g_eff / (params.gamma_sat * gamma)
    u2 = -2.0 * params.kerr / (params.gamma_sat * gamma)
    g2 = g * g
    return np.array([
        4.0 * u2 * u2,
        8.0 * u1 * u2,
        4.0 * (u1 * u1 + 2.0 * u0 * u2) + 4.0,
        8.0 * u0 * u1 - 8.0 * g2 / gamma - 4.0 * gamma,
        4.0 * u0 * u0 + 8.0 * g2 + gamma * gamma,
        -2.0 * g2 * gamma,
    ])


def _real_roots(coeffs: np.ndarray, what: str) -> list[float]:
    """Real roots of a polynomial given in a nondimensional variable.

    Coefficients are normalized to unit maximum before the companion
    eigenvalue solve; a couple of Newton steps polish each accepted
    root. Raises ConditioningError when the scaled coefficients are
    not finite.
    """
    c = np.asarray(coeffs, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ConditioningError(f"{what}: non-finite polynomial coefficients")
    cmax = np.max(np.abs(c))
    if cmax == 0.0:
        return []
    c = c / cmax
    roots = np.roots(c)  # handles leading zeros by trimming
    deriv = np.polyder(c)
    out = []
    for r in roots:
        if abs(r.imag) > REAL_ROOT_RTOL * abs(r) + REAL_ROOT_ATOL:
            continue
        x = r.real
        for _ in range(3):
            dp = np.polyval(deriv, x)
            if abs(dp) < 1e-12:
                break
            step = np.polyval(c, x) / dp
            if not math.isfinite(step) or abs(step) > 0.1 * max(abs(x), 1.0):
                break
            x -= step
        out.append(float(x))
    out.sort()
    merged: list[float] = []
    for x in out:
        if merged and abs(x - merged[-1]) <= _DEDUPE_RTOL * max(
                abs(x), abs(merged[-1]), 1e-6):
            continue
        merged.append(x)
    return merged


def _polish_state(z: np.ndarray, active: bool
                  ) -> tuple[complex, complex, float]:
    """(a, m, omega) from the polish unknowns: (Re a, Im a, Re m, Im m)
    for passive points, (p, omega, Re m, Im m) for active ones, whose
    photon amplitude a = p is real (the phase gauge)."""
    x0, x1, mr, mi = z.tolist()
    if active:
        return complex(x0), complex(mr, mi), x1
    return complex(x0, x1), complex(mr, mi), 0.0


def _polish_defect(z: np.ndarray, rhs, active: bool) -> np.ndarray:
    """(Re, Im) of da/dt and dm/dt, active points co-rotating at omega."""
    a, m, w = _polish_state(z, active)
    da, dm = rhs(a, m)
    if active:
        da += 1j * w * a
        dm += 1j * w * m
    return np.array([da.real, da.imag, dm.real, dm.imag])


def _polish_jacobian(z: np.ndarray, params: SystemParams,
                     active: bool) -> np.ndarray:
    """Real Jacobian of ``_polish_defect`` in the polish unknowns.

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
    jac = []
    for row, c1 in zip((row_a, row_m), col1):
        cols = (row[0] + row[1], c1, row[2] + row[3], 1j * (row[2] - row[3]))
        jac.append([c.real for c in cols])
        jac.append([c.imag for c in cols])
    return np.array(jac)


def _damped_newton4(x: np.ndarray, tol: float, rhs, params: SystemParams,
                    active: bool, max_iter: int = 8
                    ) -> tuple[np.ndarray, float]:
    """Refine a root of ``_polish_defect`` with damped Newton steps.

    Polynomial roots carry the companion-matrix accuracy limit, which
    near double roots is far looser than the residual contract; a few
    Newton iterations on the full steady-state system restore machine
    accuracy there. Returns the best iterate seen and its max-norm
    defect; never raises.
    """
    fx = _polish_defect(x, rhs, active)
    best_x, best_r = x, float(np.max(np.abs(fx)))
    for _ in range(max_iter):
        if best_r < 0.01 * tol:
            break
        try:
            step = np.linalg.solve(_polish_jacobian(x, params, active), -fx)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        lam = 1.0
        improved = False
        for _ in range(5):
            xn = x + lam * step
            fn = _polish_defect(xn, rhs, active)
            rn = float(np.max(np.abs(fn)))
            if np.all(np.isfinite(fn)) and rn < best_r:
                x, fx = xn, fn
                best_x, best_r = xn, rn
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    return best_x, best_r


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
    roots = _real_roots(c * scale_pow, "passive cubic")

    # unit-occupation scaling for reconstruction and polish
    s = math.sqrt(n_ref)
    kerr_s = params.kerr * n_ref
    eta_s = drive.eta / s
    rate = params.rate_scale()
    tol = RESIDUAL_RTOL * rate

    sp = params.replace(kerr=kerr_s)
    rhs = vector_field(sp, DriveSpec(eta=eta_s))

    out = []
    for x in roots:
        if x < -1e-12:
            continue
        n_m1 = max(x, 0.0)  # in units of n_ref
        delta = dm_det + kerr_s * n_m1
        d_m = 0.5 * gamma + 1j * delta
        if abs(d_m) == 0.0:
            raise ConditioningError("magnon response singular (gamma = 0 "
                                    "at zero effective detuning)")
        a = eta_s / ((0.5 * kappa + 1j * dc) + g * g / d_m)
        m = -1j * g * a / d_m
        z, res = _damped_newton4(np.array([a.real, a.imag, m.real, m.imag]),
                                 tol, rhs, sp, active=False)
        if res > tol:
            raise InternalConsistencyError(
                f"passive root n_m={n_m1 * n_ref:.6e} reconstructed with "
                f"residual {res:.3e} > {tol:.3e} rad/us")
        out.append(FixedPoint(a0=(z[0] + 1j * z[1]) * s,
                              m0=(z[2] + 1j * z[3]) * s,
                              omega=0.0, kind="passive",
                              net_gain=0.0, residual=res))

    merged: list[FixedPoint] = []
    for fp in sorted(out, key=lambda f: f.n_m):
        if merged and abs(fp.n_m - merged[-1].n_m) <= _DEDUPE_RTOL * max(
                fp.n_m, merged[-1].n_m, 1e-300):
            continue
        merged.append(fp)
    return merged


def active_fixed_points(params: SystemParams) -> list[FixedPoint]:
    """Coupled steady states of the gain-driven model, sorted by omega.

    Only solutions with magnon number > 0 are returned; the origin is
    not counted, and for g > 0 a photon-only state is not a fixed point
    at all (the coupling forces magnon content). An empty list
    therefore means the origin is the only steady state. The single
    exception is the uncoupled oscillator g == 0, whose photon-only
    limit cycle a0 = sqrt(G_eff/gamma_sat) at omega = 0 is returned so
    the decoupled device still reports its lasing state.
    """
    if params.delta_c != 0.0:
        raise ValueError(
            f"active model requires delta_c == 0, got {params.delta_c}")
    if params.gamma <= 0.0:
        raise ValueError("active route requires gamma > 0")
    g_eff = params.gain_eff
    if g_eff <= 0.0:
        return []
    if params.gamma_sat <= 0.0:
        raise ValueError("active model needs gamma_sat > 0 to saturate")
    if params.g == 0.0:
        a0 = math.sqrt(g_eff / params.gamma_sat)
        return [FixedPoint(a0=complex(a0), m0=0j, omega=0.0, kind="active",
                           net_gain=0.0, residual=0.0)]

    gamma, g = params.gamma, params.g
    dm_det = params.delta_m
    a_hi = min(g_eff, 2.0 * g * g / gamma)

    c = active_quintic_coefficients(params)
    scale_pow = a_hi ** np.arange(5, -1, -1, dtype=float)
    roots = _real_roots(c * scale_pow, "active quintic")

    # unit-occupation scaling: with n_ref = G_eff/gamma_sat the scaled
    # saturation equals G_eff, so the photon amplitude is O(1)
    n_ref = g_eff / params.gamma_sat
    s = math.sqrt(n_ref)
    kerr_s = params.kerr * n_ref
    gsat_s = g_eff
    rate = params.rate_scale()
    tol = RESIDUAL_RTOL * rate

    sp = params.replace(kerr=kerr_s, gamma_sat=gsat_s)
    rhs = vector_field(sp)

    out: list[FixedPoint] = []
    for x in roots:
        if x <= 1e-14 or x > 1.0 + 1e-9:
            continue
        a_val = min(x, 1.0) * a_hi
        n_m1 = 2.0 * a_val * (g_eff - a_val) / (gsat_s * gamma)
        if n_m1 <= 0.0:
            continue
        p = math.sqrt((g_eff - a_val) / gsat_s)
        u = dm_det + kerr_s * n_m1
        q = 2.0 * g * g * a_val / gamma - a_val * a_val
        if abs(2.0 * a_val - gamma) > 1e-6 * rate:
            candidates = [2.0 * a_val * u / (2.0 * a_val - gamma)]
        else:
            # near the polariton doublet the ratio above is 0/0; take
            # the frequency from the gain constraint instead, keeping
            # both signs and letting the residual filter decide
            w = math.sqrt(max(q, 0.0))
            candidates = [w, -w] if w > 0 else [0.0]
        for w in candidates:
            m = (w - 1j * a_val) * p / g
            z, res = _damped_newton4(np.array([p, w, m.real, m.imag]), tol,
                                     rhs, sp, active=True)
            if res > tol:
                if len(candidates) > 1:
                    continue  # rejected sign of the doublet branch
                raise InternalConsistencyError(
                    f"active root A={a_val:.6e} reconstructed with "
                    f"residual {res:.3e} > {tol:.3e} rad/us")
            p1, w1, mr1, mi1 = z
            if p1 < 0:  # phase gauge: photon amplitude real positive
                p1, mr1, mi1 = -p1, -mr1, -mi1
            nm1 = mr1 * mr1 + mi1 * mi1
            if p1 * p1 <= 1e-14 or nm1 <= 1e-14:
                continue
            out.append(FixedPoint(
                a0=complex(p1 * s), m0=(mr1 + 1j * mi1) * s, omega=w1,
                kind="active", net_gain=g_eff - gsat_s * p1 * p1,
                residual=res))

    merged: list[FixedPoint] = []
    for fp in sorted(out, key=lambda f: (f.omega, f.n_m)):
        dup = False
        for other in merged:
            if (abs(fp.omega - other.omega) <= 1e-7 * max(
                    abs(fp.omega), abs(other.omega), rate * 1e-3)
                    and abs(fp.n_m - other.n_m) <= 1e-7 * max(
                        fp.n_m, other.n_m)):
                dup = True
                break
        if not dup:
            merged.append(fp)
    return merged
