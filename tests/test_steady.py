"""Steady-state enumeration: polynomial routes against the Newton oracle."""

import collections
import functools
import math
import warnings

import numpy as np
import pytest

from _cases import active_fixed_points, broadline_params, \
    narrowline_params, passive_fixed_points
from _oracles import active_fixed_points_newton, complex_field, \
    passive_fixed_points_newton
from magpol.errors import ConditioningError, InternalConsistencyError
from magpol import steady
from magpol.model import TWO_PI, DriveSpec, Rates, SystemParams, \
    bare_cavity_photons, batch_rates, vector_field
from magpol.phasemap import n0_to_drive_passive
from magpol.steady import Solution, _polish_defect, _polish_jacobian, \
    _real_roots, passive_cubic_coefficients

# Frozen three-solution set of the narrow-line gain system at
# gain/2pi = 15.45 MHz, delta_m/2pi = -46.4 MHz (sorted by omega).
BISTABLE_OMEGA_MHZ = (-37.7297333894, -25.8969630242, 14.6613838649)
BISTABLE_NET_GAIN = (82.6623246945, 36.4659002279, 11.2963720607)
BISTABLE_N_A = (2.8673530218e12, 1.2057839656e13, 1.7065158184e13)
BISTABLE_N_M = (7.3248997097e12, 1.3588432029e13, 5.9574747304e12)

# Frozen broad-line passive bistable cell: delta_c/2pi = 80 MHz,
# delta_m/2pi = -85 MHz, bare photon number 8e14 (sorted by n_m).
PASSIVE_CELL_N_M = (78376560327215.25, 9586610562884810.0, 9977668247679506.0)
PASSIVE_CELL_ETA = 14217850168.792467


def passive_cell_params():
    return broadline_params(delta_c=TWO_PI * 80.0, delta_m=TWO_PI * (-85.0))


def test_undriven_cavity_has_only_origin():
    fps = passive_fixed_points(broadline_params(), DriveSpec(eta=0.0))
    assert len(fps) == 1
    assert fps[0].a0 == 0 and fps[0].m0 == 0 and fps[0].n_m == 0


def test_linear_response_when_kerr_vanishes():
    p = broadline_params(kerr=0.0, delta_c=TWO_PI * 3.0,
                         delta_m=TWO_PI * (-12.0))
    fps = passive_fixed_points(p, DriveSpec(eta=2.0e5))
    assert len(fps) == 1
    fp = fps[0]
    assert fp.n_m == pytest.approx(
        p.g ** 2 * fp.n_a / ((0.5 * p.gamma) ** 2 + p.delta_m ** 2),
        rel=1e-10)
    # and the amplitudes solve the linear system directly
    lhs_a = -(0.5 * p.kappa + 1j * p.delta_c) * fp.a0 - 1j * p.g * fp.m0 + 2.0e5
    assert abs(lhs_a) < 1e-8 * p.rate_scale() * abs(fp.a0)


def test_passive_bistable_cell_frozen():
    p = passive_cell_params()
    drive = DriveSpec(n0_to_drive_passive(8e14, p))
    assert drive.eta == pytest.approx(PASSIVE_CELL_ETA, rel=1e-12)
    fps = passive_fixed_points(p, drive)
    assert len(fps) == 3
    for fp, nm_ref in zip(fps, PASSIVE_CELL_N_M):
        assert fp.n_m == pytest.approx(nm_ref, rel=1e-8)


def _defect(fp, params, drive=None):
    """max(|da/dt|, |dm/dt|) at a fixed point, in its co-rotating frame,
    per unit of amplitude scale sqrt(max(n_a, n_m, 1)), from the oracle
    field."""
    da, dm = complex_field(params, drive)(fp.a0, fp.m0)
    w = 1j * fp.omega
    return max(abs(da + w * fp.a0), abs(dm + w * fp.m0)) / math.sqrt(
        max(fp.n_a, fp.n_m, 1.0))


def test_residual_small_on_returned_roots_and_large_on_perturbed():
    p = passive_cell_params()
    fps = passive_fixed_points(p, DriveSpec(n0_to_drive_passive(8e14, p)))
    drive = DriveSpec(n0_to_drive_passive(8e14, p))
    for fp in fps:
        assert _defect(fp, p, drive) < 1e-8
    bent = fps[1]._replace(m0=fps[1].m0 * math.sqrt(1.01))
    assert _defect(bent, p, drive) > 1e-8


def test_degenerate_cavity_rejected():
    p = SystemParams(kappa=0.0, gamma=TWO_PI * 10.0, g=TWO_PI * 5.0)
    with pytest.raises(ConditioningError):
        passive_fixed_points(p, DriveSpec(eta=1.0))


def test_passive_saddle_node_reports_its_double_root_once():
    # Place drives exactly on saddle-nodes: the cubic is f(n) = g^2 eta^2
    # with f(n) = n ((r0 + r1 n)^2 + (i0 + i1 n)^2), so a fold sits at
    # each positive root n* of f'(n) = 0, with eta = sqrt(f(n*)) / g.
    # Its double root reaches the merge as two polished copies; only
    # copies more than 1e-7 apart (relative) may stay apart.
    rng = np.random.default_rng(0)
    folds, gaps = 0, []
    for _ in range(200):
        p = broadline_params(delta_c=TWO_PI * rng.uniform(20, 120),
                             delta_m=TWO_PI * rng.uniform(-100, 0))
        a3, a2, a1, _ = passive_cubic_coefficients(p, 0.0)
        for n in np.roots([3.0 * a3, 2.0 * a2, a1]):
            if n.imag != 0.0 or n.real <= 0.0:
                continue
            n = n.real
            eta = math.sqrt(n * (a1 + n * (a2 + n * a3))) / p.g
            near = [fp.n_m for fp in passive_fixed_points(p, DriveSpec(eta))
                    if abs(fp.n_m - n) <= 1e-3 * n]
            assert near, "the double root was lost"
            folds += 1
            if len(near) > 1:
                gaps.append((max(near) - min(near)) / max(near))
    assert folds >= 300
    assert len(gaps) <= 0.02 * folds
    assert all(gap > 1e-7 for gap in gaps)


def test_active_below_threshold_is_empty():
    p = narrowline_params(gain=0.0)
    assert active_fixed_points(p) == []
    p = narrowline_params(gain=TWO_PI * 1.0, kappa=TWO_PI * 4.0,
                          gain_absorbed=False)
    assert p.gain_eff < 0
    assert active_fixed_points(p) == []


def test_uncoupled_oscillator_branch():
    p = narrowline_params(g=0.0)
    fps = active_fixed_points(p)
    assert len(fps) == 1
    fp = fps[0]
    assert fp.n_a == pytest.approx(p.gain_eff / p.gamma_sat, rel=1e-12)
    assert fp.m0 == 0 and fp.omega == 0.0 and fp.net_gain == 0.0


def test_zero_detuning_doublet_analytic():
    # K = 0, delta_m = 0, g > gamma/2: the oscillating pair sits at
    # net gain gamma/2 with offsets +-sqrt(g^2 - gamma^2/4).
    p = SystemParams(gamma=TWO_PI * 10.0, g=TWO_PI * 30.0, kerr=0.0,
                     gain=TWO_PI * 15.0, gamma_sat=TWO_PI * 1e-12)
    fps = active_fixed_points(p)
    assert len(fps) == 2
    w_ref = math.sqrt(p.g ** 2 - 0.25 * p.gamma ** 2)
    assert fps[0].omega == pytest.approx(-w_ref, rel=1e-10)
    assert fps[1].omega == pytest.approx(w_ref, rel=1e-10)
    for fp in fps:
        assert fp.net_gain == pytest.approx(0.5 * p.gamma, rel=1e-10)
        assert _defect(fp, p) < 1e-8


def test_kerr_to_zero_limit_converges():
    p0 = narrowline_params(delta_m=TWO_PI * (-20.0))
    ref = active_fixed_points(p0.replace(kerr=0.0))
    small = active_fixed_points(p0.replace(kerr=p0.kerr * 1e-3))
    tiny = active_fixed_points(p0.replace(kerr=p0.kerr * 1e-4))
    assert len(ref) == len(small) == len(tiny) > 0
    for a, b, c in zip(ref, small, tiny):
        err_small = abs(b.omega - a.omega) / abs(a.omega)
        err_tiny = abs(c.omega - a.omega) / abs(a.omega)
        assert err_small < 1e-3
        # first order in the residual Kerr pull
        assert err_tiny < 0.2 * err_small
        assert b.net_gain == pytest.approx(a.net_gain, rel=5e-3)


def test_bistable_point_frozen_values():
    p = narrowline_params(delta_m=TWO_PI * (-46.4))
    fps = active_fixed_points(p)
    assert len(fps) == 3
    for fp, w, a_net, na, nm in zip(fps, BISTABLE_OMEGA_MHZ,
                                    BISTABLE_NET_GAIN, BISTABLE_N_A,
                                    BISTABLE_N_M):
        assert fp.omega / TWO_PI == pytest.approx(w, rel=1e-8)
        assert fp.net_gain == pytest.approx(a_net, rel=1e-8)
        assert fp.n_a == pytest.approx(na, rel=1e-8)
        assert fp.n_m == pytest.approx(nm, rel=1e-8)
        assert fp.a0.imag == 0.0 and fp.a0.real > 0  # phase gauge


def test_branch_continuity_along_detuning_ramp():
    """Inside one phase region, branches move smoothly with delta_m."""
    dm = TWO_PI * (-46.4)
    prev = active_fixed_points(narrowline_params(delta_m=dm))
    for k in range(1, 9):
        cur = active_fixed_points(
            narrowline_params(delta_m=dm * (1 + 1e-3 * k)))
        assert len(cur) == len(prev)
        for a, b in zip(prev, cur):
            assert abs(b.n_m - a.n_m) < 1e-2 * a.n_m
            assert abs(b.omega - a.omega) < 1e-2 * abs(a.omega)
        prev = cur


def _match_sets(pairs_ref, pairs_got, rtol=1e-6):
    """Greedy min-distance pairing of (n_a, n_m) tuples."""
    assert len(pairs_ref) == len(pairs_got)
    used = set()
    for ra, rm in pairs_ref:
        best, best_d = None, np.inf
        for j, (ga, gm) in enumerate(pairs_got):
            if j in used:
                continue
            d = abs(ga - ra) / max(ra, 1e-300) + abs(gm - rm) / max(rm, 1e-300)
            if d < best_d:
                best, best_d = j, d
        assert best is not None and best_d < rtol, \
            f"unmatched root (n_a={ra:.6e}, n_m={rm:.6e}): best {best_d:.2e}"
        used.add(best)


def test_passive_route_matches_newton_oracle():
    rng = np.random.default_rng(71)
    for _ in range(25):
        kappa = TWO_PI * rng.uniform(0.5, 5)
        p = SystemParams(
            kappa=kappa,
            gamma=TWO_PI * rng.uniform(2, 30),
            g=TWO_PI * rng.uniform(1, 40),
            kerr=0.0,
            delta_c=TWO_PI * rng.uniform(-100, 100),
            delta_m=TWO_PI * rng.uniform(-100, 100))
        n0 = 10.0 ** rng.uniform(9, 15)
        # draw the Kerr shift at the working photon number, then back
        # out the per-magnon rate, so every draw is meaningfully bent
        shift = np.sign(rng.normal()) * TWO_PI * 10.0 ** rng.uniform(-2, 2.5)
        p = p.replace(kerr=shift / n0)
        drive = DriveSpec(
            eta=math.sqrt(n0 * ((0.5 * kappa) ** 2 + p.delta_c ** 2)))
        fps = passive_fixed_points(p, drive)
        ref = passive_fixed_points_newton(p, drive, n_starts=128)
        assert len(fps) == len(ref), \
            f"count mismatch {len(fps)} vs oracle {len(ref)} at {p}"
        _match_sets([(abs(a) ** 2, abs(m) ** 2) for a, m in ref],
                    [(fp.n_a, fp.n_m) for fp in fps])


def test_active_route_matches_newton_oracle():
    rng = np.random.default_rng(72)
    for _ in range(25):
        gamma_sat = TWO_PI * 10.0 ** rng.uniform(-13, -11)
        p = SystemParams(
            gamma=TWO_PI * rng.uniform(2, 30),
            g=TWO_PI * rng.uniform(1, 40),
            kerr=np.sign(rng.normal()) * gamma_sat
            * 10.0 ** rng.uniform(-1.5, 1.5),
            delta_m=TWO_PI * rng.uniform(-100, 100),
            gain=TWO_PI * rng.uniform(0.5, 30),
            gamma_sat=gamma_sat)
        fps = active_fixed_points(p)
        ref = active_fixed_points_newton(p)
        assert len(fps) == len(ref), \
            f"count mismatch {len(fps)} vs oracle {len(ref)} at {p}"
        for fp, (a0, m0, w) in zip(fps, ref):
            assert fp.omega == pytest.approx(
                w, rel=1e-6, abs=1e-6 * p.rate_scale())
            assert fp.n_a == pytest.approx(abs(a0) ** 2, rel=1e-6)
            assert fp.n_m == pytest.approx(abs(m0) ** 2, rel=1e-6)


def test_doublet_line_cell_of_the_gain_map():
    # cell (iy=94, ix=70) of configs/active_gain_map.json lies on the
    # polariton doublet line, where the quintic has an exact double
    # root at A = gamma/2; its companion eigenvalues split it into a
    # conjugate pair just off the real axis
    gains = np.linspace(TWO_PI * 10.0, TWO_PI * 22.0, 151)
    detunings = np.linspace(-TWO_PI * 70.0, -TWO_PI * 25.0, 151)
    p = narrowline_params(gain=gains[70], delta_m=detunings[94])
    fps = active_fixed_points(p)
    ref = active_fixed_points_newton(p, n_starts=512)
    assert len(fps) == len(ref) == 3
    for fp, (a0, m0, w) in zip(fps, ref):
        assert fp.omega == pytest.approx(w, rel=1e-6)
        assert fp.n_a == pytest.approx(abs(a0) ** 2, rel=1e-6)
        assert fp.n_m == pytest.approx(abs(m0) ** 2, rel=1e-6)
    doublet = [fp for fp in fps if fp.net_gain == pytest.approx(
        0.5 * p.gamma, rel=1e-6)]
    assert len(doublet) == 2
    assert doublet[0].omega == pytest.approx(-doublet[1].omega, rel=1e-9)


def test_real_roots_batch_matches_rows_and_np_roots():
    rng = np.random.default_rng(75)
    rows = rng.normal(size=(40, 6))
    rows[::5, 0] = 0.0          # quartic
    rows[1::5, :2] = 0.0        # cubic
    rows[2::5, -1] = 0.0        # one root at 0
    rows[3::5, -2:] = 0.0       # double root at 0
    rows[4] = 0.0               # no polynomial at all
    x, optional, errors = _real_roots(rows, "test")
    assert not errors
    for i, row in enumerate(rows):
        xi, oi, _ = _real_roots(row, "test")
        assert np.array_equal(xi[0], x[i], equal_nan=True)
        assert np.array_equal(oi[0], optional[i])
        got = np.sort(x[i][np.isfinite(x[i]) & ~optional[i]])
        if not row.any():
            assert got.size == 0
            continue
        r = np.roots(row / np.max(np.abs(row)))
        want = np.sort(r.real[np.abs(r.imag)
                              <= 1e-7 * np.abs(r) + 1e-10])
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_near_real_pairs_are_optional_candidates():
    split = np.poly([0.5 + 1e-7j, 0.5 - 1e-7j, -2.0]).real
    x, optional, _ = _real_roots(split, "test")
    roots = x[0][np.isfinite(x[0])]
    assert roots == pytest.approx([-2.0, 0.5, 0.5], rel=1e-6)
    assert optional[0][np.isfinite(x[0])].tolist() == [False, True, True]
    wide = np.poly([0.5 + 1e-3j, 0.5 - 1e-3j, -2.0]).real
    x, optional, _ = _real_roots(wide, "test")
    assert x[0][np.isfinite(x[0])] == pytest.approx([-2.0])
    _, _, errors = _real_roots([1.0, np.nan, 1.0], "test")
    assert isinstance(errors[0], ConditioningError)


def test_real_roots_reports_a_leading_coefficient_too_small_to_divide_by():
    """A row whose companion matrix would overflow fails as a row with
    non-finite coefficients does, alone in its batch and with no numpy
    warning; a small leading coefficient that divides keeps its roots."""
    rows = [[1.0, -3.0, 2.0], [1e-310, 1.0, -1.0], [1e-300, 1.0, -1.0],
            [0.0, 0.0, 0.0]]
    x, _, errors = _real_roots(rows, "test")
    assert list(errors) == [1]
    assert str(errors[1]) == "test: non-finite polynomial coefficients"
    assert x[0].tolist() == pytest.approx([1.0, 2.0])
    assert np.isnan(x[1]).all() and np.isnan(x[3]).all()
    assert x[2].tolist() == pytest.approx([-1e300, 1.0])


def test_active_batch_matches_one_cell_calls():
    # one batch mixing quintic and cubic (kerr = 0) cells, uncoupled
    # (g = 0), sub-threshold and unsaturated (error) cells
    rng = np.random.default_rng(76)
    cells = []
    for k in range(60):
        gamma_sat = TWO_PI * 10.0 ** rng.uniform(-13, -11)
        cells.append(SystemParams(
            gamma=TWO_PI * rng.uniform(2, 30),
            g=0.0 if k % 10 == 3 else TWO_PI * rng.uniform(1, 40),
            kerr=0.0 if k % 4 == 1 else np.sign(rng.normal()) * gamma_sat
            * 10.0 ** rng.uniform(-1.5, 1.5),
            delta_m=TWO_PI * rng.uniform(-100, 100),
            gain=TWO_PI * rng.uniform(-5, 30),
            gamma_sat=0.0 if k % 15 == 7 else gamma_sat))
    batch = Rates(*(np.array([getattr(p, f) for p in cells])
                    for f in Rates._fields))
    sol = steady.active_fixed_points(batch)
    solved = set(sol.cell.tolist())
    assert solved & set(range(1, 60, 4))    # cubic cells with points
    assert solved & set(range(3, 60, 10))   # uncoupled cells
    assert sol.errors
    for k, p in enumerate(cells):
        try:
            fps = active_fixed_points(p)
        except ValueError as exc:
            assert str(sol.errors[k]) == str(exc)
            continue
        assert k not in sol.errors
        rows = np.flatnonzero(sol.cell == k)
        assert len(rows) == len(fps)
        for i, fp in zip(rows, fps):
            assert (sol.a0[i], sol.m0[i], sol.omega[i]) == \
                (fp.a0, fp.m0, fp.omega)


def test_solution_take_subsets_a_batch_result():
    p = narrowline_params(delta_m=TWO_PI * (-46.4))
    sol = steady.active_fixed_points(batch_rates(
        p, g=np.array([p.g, 0.0, p.g, p.g]),
        delta_c=np.array([0.0, 0.0, 1.0, 0.0])))
    assert sol.cell.tolist() == [0, 0, 0, 1, 3, 3, 3]
    assert list(sol.errors) == [2]
    for idx in (np.array([4, 0, 3]), sol.cell == 3, slice(1, 3)):
        sub = sol.take(idx)
        assert sub.kind == "active" and sub.errors is sol.errors
        for name in Solution._fields[1:-1]:
            assert np.array_equal(getattr(sub, name), getattr(sol, name)[idx])


def test_undamped_active_cell_is_an_error():
    """The active route needs magnon damping: a gamma = 0 cell records
    a ValueError instead of points."""
    sol = steady.active_fixed_points(batch_rates(
        narrowline_params(delta_m=TWO_PI * (-46.4)),
        gamma=np.array([TWO_PI * 10.3, 0.0])))
    assert set(sol.cell.tolist()) == {0}
    assert list(sol.errors) == [1]
    assert isinstance(sol.errors[1], ValueError)
    assert str(sol.errors[1]) == "active route requires gamma > 0"


def test_singular_polish_row_keeps_its_start():
    """A row whose polish Jacobian is exactly singular (every rate 0,
    drive 1) fails the stacked solve, so the rows are solved one by
    one: the singular row keeps its start and its defect 1, and the
    others polish to the same bits as without it."""
    cells = np.array([[1.0, 2.0, 1.5, 0.3, 0.5, -1.0, 0.0, 0.0],
                      [0.0] * 8,
                      [1.0, 2.0, 1.5, -0.3, 0.5, 0.7, 0.0, 0.0]])
    start = np.full((3, 4), 0.1)
    eta = np.ones(3)

    def polish(rows):
        return steady._damped_newton4(start[rows], 1e-12,
                                      Rates(*cells[rows].T), eta[rows])

    assert not _polish_jacobian(start[1], Rates(*cells[1]), False).any()
    z, res = polish([0, 1, 2])
    z_ref, res_ref = polish([0, 2])
    assert np.array_equal(z[[0, 2]], z_ref)
    assert np.array_equal(res[[0, 2]], res_ref)
    assert np.all(res_ref < 1e-12)
    assert np.array_equal(z[1], start[1]) and res[1] == 1.0


def _extreme_rate(rng, center, spread, signed=False):
    """A rate of 10^(center +- spread) rad/us, of either sign when
    ``signed``, half of them numpy scalars as a map axis hands them over."""
    v = 10.0 ** (center + rng.uniform(-spread, spread))
    if signed and rng.random() < 0.5:
        v = -v
    return np.float64(v) if rng.random() < 0.5 else v


def test_extreme_rates_end_in_points_or_errors_and_warn_about_nothing():
    """2,000 seeded solves, alternating the routes, with log-uniform
    rates from about 1e-100 to 1e250 rad/us: half spread over the whole
    range, half within 20 decades of a common scale. Each ends in points
    or a ConditioningError, or in the InternalConsistencyError of a few
    failed polishes, and none emits a RuntimeWarning. Solved again as
    one batch per model, every cell gets the points of its one-cell
    solve to the bit, or its error in type and text."""
    rng = np.random.default_rng(2026)
    outcomes = collections.Counter()
    draws = {"passive": [], "active": []}  # (params, eta, one-cell solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(2000):
            center, spread = (75.0, 175.0) if k % 4 < 2 \
                else (rng.uniform(-100, 250), 20.0)
            rate = functools.partial(_extreme_rate, rng, center, spread)
            if k % 2:
                route, eta = "active", None
                p = SystemParams(
                    gamma=rate(), g=rate(), kerr=rate(True),
                    delta_m=rate(True), gain=rate(), gamma_sat=rate())
                sol = steady.active_fixed_points(batch_rates(p))
            else:
                route = "passive"
                p = SystemParams(
                    kappa=rate(), gamma=rate(), g=rate(), kerr=rate(True),
                    delta_c=rate(True), delta_m=rate(True))
                eta = DriveSpec(eta=rate()).eta
                sol = steady.passive_fixed_points(batch_rates(p), eta)
            for exc in sol.errors.values():
                assert isinstance(exc, (ConditioningError,
                                        InternalConsistencyError)), exc
                outcomes[route, type(exc).__name__] += 1
            outcomes[route, "points"] += not sol.errors
            draws[route].append((p, eta, sol))

        for route, cells in draws.items():
            batch = Rates(*(np.array([getattr(p, f) for p, _, _ in cells])
                            for f in Rates._fields))
            sol = steady.active_fixed_points(batch) if route == "active" \
                else steady.passive_fixed_points(
                    batch, [eta for _, eta, _ in cells])
            assert len(sol.errors) == sum(bool(one.errors)
                                          for _, _, one in cells)
            for k, (_, _, one) in enumerate(cells):
                if one.errors:
                    assert (type(sol.errors[k]), str(sol.errors[k])) == \
                        (type(one.errors[0]), str(one.errors[0]))
                    continue
                mine = sol.take(sol.cell == k)
                for name in Solution._fields[2:-1]:
                    assert getattr(mine, name).tobytes() == \
                        getattr(one, name).tobytes(), (route, k, name)
    for route in ("passive", "active"):
        assert outcomes[route, "points"] >= 100, outcomes
        assert outcomes[route, "ConditioningError"] >= 100, outcomes


def _assert_row(fp, kind):
    """A one-cell solve's entry is a ``Solution`` row of Python scalars."""
    assert type(fp) is Solution and fp.kind == kind
    assert fp.cell == 0 and fp.errors == {}
    assert type(fp.a0) is complex and type(fp.m0) is complex
    assert all(type(v) is float
               for v in (fp.omega, fp.net_gain, fp.residual))


def test_active_rows_are_the_one_cell_entries():
    for p in (narrowline_params(delta_m=TWO_PI * (-46.4)),
              narrowline_params(g=0.0)):
        sol = steady.active_fixed_points(batch_rates(p))
        fps = active_fixed_points(p)
        assert len(fps) == sol.cell.size and fps
        for i, fp in enumerate(fps):
            _assert_row(fp, "active")
            assert fp == ("active", 0, sol.a0[i], sol.m0[i], sol.omega[i],
                          sol.net_gain[i], sol.residual[i], {})
            assert (fp.n_a, fp.n_m) == (abs(sol.a0[i]) ** 2,
                                        abs(sol.m0[i]) ** 2)


def test_passive_rows_are_the_polished_roots(monkeypatch):
    polished = []

    def spy(*args):
        polished.append(newton(*args))
        return polished[-1]

    newton = steady._damped_newton4
    monkeypatch.setattr(steady, "_damped_newton4", spy)
    p = passive_cell_params()
    drive = DriveSpec(n0_to_drive_passive(8e14, p))
    fps = passive_fixed_points(p, drive)
    (z, res), = polished
    s = math.sqrt(bare_cavity_photons(p, drive.eta)[0])
    assert len(fps) == len(z) == 3
    for fp, zk, rk in zip(fps, z, res):
        _assert_row(fp, "passive")
        assert fp == ("passive", 0, complex(zk[0] + 1j * zk[1]) * s,
                      complex(zk[2] + 1j * zk[3]) * s, 0.0, 0.0, rk, {})

    origin, = passive_fixed_points(p, DriveSpec(eta=0.0))
    _assert_row(origin, "passive")
    assert origin == ("passive", 0, 0j, 0j, 0.0, 0.0, 0.0, {})


def test_solution_count_bounds():
    rng = np.random.default_rng(73)
    for _ in range(40):
        p = SystemParams(
            kappa=TWO_PI * rng.uniform(0.5, 5),
            gamma=TWO_PI * rng.uniform(2, 30),
            g=TWO_PI * rng.uniform(0, 40),
            kerr=np.sign(rng.normal()) * TWO_PI * 10.0 ** rng.uniform(-16, -11),
            delta_c=TWO_PI * rng.uniform(-100, 100),
            delta_m=TWO_PI * rng.uniform(-100, 100))
        n = len(passive_fixed_points(p, DriveSpec(eta=10.0 ** rng.uniform(3, 9))))
        assert 1 <= n <= 3
        pa = SystemParams(
            gamma=TWO_PI * rng.uniform(2, 30),
            g=TWO_PI * rng.uniform(0, 40),
            kerr=np.sign(rng.normal()) * TWO_PI * 10.0 ** rng.uniform(-13, -11),
            delta_m=TWO_PI * rng.uniform(-100, 100),
            gain=TWO_PI * rng.uniform(0.5, 30),
            gamma_sat=TWO_PI * 10.0 ** rng.uniform(-13, -11))
        assert len(active_fixed_points(pa)) <= 5


def _polish_jacobian_error(fp, p, drive=None):
    """Max deviation of the polish Jacobian from central differences of
    the polish defect, relative to the largest entry, at a fixed point
    in unit-occupation scaling."""
    s = math.sqrt(max(fp.n_a, fp.n_m, 1.0))
    sp = batch_rates(p).rescale(s)
    rhs = vector_field(sp, None if drive is None else drive.eta / s)
    a, m = fp.a0 / s, fp.m0 / s
    active = fp.kind == "active"
    if active:
        z = np.array([a.real, fp.omega, m.real, m.imag])
    else:
        z = np.array([a.real, a.imag, m.real, m.imag])
    jac = _polish_jacobian(z, sp, active)
    ref = np.empty((4, 4))
    for k in range(4):
        dz = np.zeros(4)
        dz[k] = 1e-6 * max(abs(z[k]), 1.0)
        up = _polish_defect(z + dz, rhs, active)
        down = _polish_defect(z - dz, rhs, active)
        ref[:, k] = (up - down) / (2.0 * dz[k])
    return np.max(np.abs(jac - ref)) / np.max(np.abs(ref))


def test_polish_jacobian_matches_finite_differences():
    rng = np.random.default_rng(74)
    n_passive = n_active = 0
    while n_passive < 20 or n_active < 20:
        kappa = TWO_PI * rng.uniform(0.5, 5)
        p = SystemParams(
            kappa=kappa, gamma=TWO_PI * rng.uniform(2, 30),
            g=TWO_PI * rng.uniform(1, 40),
            delta_c=TWO_PI * rng.uniform(-100, 100),
            delta_m=TWO_PI * rng.uniform(-100, 100))
        n0 = 10.0 ** rng.uniform(9, 14)
        shift = np.sign(rng.normal()) * TWO_PI * 10.0 ** rng.uniform(-2, 2)
        p = p.replace(kerr=shift / n0)
        drive = DriveSpec(
            eta=math.sqrt(n0 * ((0.5 * kappa) ** 2 + p.delta_c ** 2)))
        for fp in passive_fixed_points(p, drive):
            assert _polish_jacobian_error(fp, p, drive) < 1e-5
            n_passive += 1

        gamma_sat = TWO_PI * 10.0 ** rng.uniform(-13, -11)
        pa = SystemParams(
            gamma=TWO_PI * rng.uniform(2, 30), g=TWO_PI * rng.uniform(1, 40),
            kerr=np.sign(rng.normal()) * gamma_sat * 10.0 ** rng.uniform(-1, 1),
            delta_m=TWO_PI * rng.uniform(-100, 100),
            gain=TWO_PI * rng.uniform(0.5, 30), gamma_sat=gamma_sat)
        for fp in active_fixed_points(pa):
            assert _polish_jacobian_error(fp, pa) < 1e-5
            n_active += 1
