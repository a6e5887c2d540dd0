"""Linearization and classification around fixed points."""

import math
from pathlib import Path

import numpy as np
import pytest

from _cases import broadline_params, narrowline_params
from _oracles import doubled_jacobian, jacobian_fd
from magpol import config, stability
from magpol.dynamics import integrate_segment
from magpol.model import TWO_PI, DriveSpec, ModeState, SystemParams, \
    batch_rates, jacobian
from magpol.phasemap import BLOCK, n0_to_drive_passive, n0_to_gain_active, \
    solve_cells
from magpol.steady import Solution, active_fixed_points, \
    passive_fixed_points, solve_active
from magpol.stability import MARGIN_RTOL, VERDICTS, classify, \
    classify_points, spectrum

ROOT = Path(__file__).resolve().parents[1]


def _random_passive_draw(rng):
    kappa = TWO_PI * rng.uniform(0.5, 5)
    p = SystemParams(kappa=kappa, gamma=TWO_PI * rng.uniform(2, 30),
                     g=TWO_PI * rng.uniform(1, 40), kerr=0.0,
                     delta_c=TWO_PI * rng.uniform(-100, 100),
                     delta_m=TWO_PI * rng.uniform(-100, 100))
    n0 = 10.0 ** rng.uniform(9, 14)
    shift = np.sign(rng.normal()) * TWO_PI * 10.0 ** rng.uniform(-2, 2)
    p = p.replace(kerr=shift / n0)
    drive = DriveSpec(
        eta=math.sqrt(n0 * ((0.5 * kappa) ** 2 + p.delta_c ** 2)))
    return p, drive


def _random_active_draw(rng):
    gamma_sat = TWO_PI * 10.0 ** rng.uniform(-13, -11)
    return SystemParams(
        gamma=TWO_PI * rng.uniform(2, 30), g=TWO_PI * rng.uniform(1, 40),
        kerr=np.sign(rng.normal()) * gamma_sat * 10.0 ** rng.uniform(-1, 1),
        delta_m=TWO_PI * rng.uniform(-100, 100),
        gain=TWO_PI * rng.uniform(0.5, 30), gamma_sat=gamma_sat)


def test_passive_jacobian_matches_finite_differences():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 20:
        p, drive = _random_passive_draw(rng)
        for fp in passive_fixed_points(p, drive):
            jac = jacobian(p, fp.a0, fp.m0)
            ref = jacobian_fd(p, fp.a0, fp.m0, drive=drive)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(jac - ref)) < 1e-5 * scale
            checked += 1


def test_active_jacobian_matches_finite_differences():
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 20:
        p = _random_active_draw(rng)
        for fp in active_fixed_points(p):
            jac = jacobian(p, fp.a0, fp.m0, fp.omega, active=True)
            ref = jacobian_fd(p, fp.a0, fp.m0, omega=fp.omega)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(jac - ref)) < 1e-5 * scale
            checked += 1


def test_real_basis_keeps_the_doubled_basis_spectrum():
    rng = np.random.default_rng(35)
    checked = {False: 0, True: 0}
    while min(checked.values()) < 20:
        p, drive = _random_passive_draw(rng)
        pa = _random_active_draw(rng)
        for params, fps in ((p, passive_fixed_points(p, drive)),
                            (pa, active_fixed_points(pa))):
            tol = 1e-9 * params.rate_scale()
            for fp in fps:
                active = fp.kind == "active"
                args = (params, fp.a0, fp.m0, fp.omega, active)
                ref = np.linalg.eigvals(doubled_jacobian(*args))
                real = jacobian(*args)
                assert real.dtype == float
                eigs = np.linalg.eigvals(real)
                for x, y in ((eigs, ref), (ref, eigs)):
                    assert max(np.min(np.abs(y - e)) for e in x) < tol
                rep = spectrum(fp, params)
                got = np.array(rep.eigenvalues)
                assert np.all((got.imag == 0) | np.isin(np.conj(got), got))
                assert np.all(got[np.abs(got.imag) < tol].imag == 0)
                if active:
                    assert got[rep.discarded].imag == 0.0
                checked[active] += 1


def test_classify_points_fallback_isolates_a_failed_row():
    """A non-finite point fails its own row only; the rest classify as
    in a clean batch. Its eigenvalue report fails as well."""
    cases = []
    p = broadline_params(delta_c=TWO_PI * 80.0, delta_m=TWO_PI * (-85.0))
    cases.append((p, passive_fixed_points(p, n0_to_drive_passive(8e14, p))))
    p = narrowline_params(delta_m=TWO_PI * (-46.4))
    cases.append((p, active_fixed_points(p)))
    for p, fps in cases:
        active = fps[0].kind == "active"
        a0, m0, omega = (np.array([getattr(fp, k) for fp in fps])
                         for k in ("a0", "m0", "omega"))
        clean, clean_errors = classify_points(p, a0, m0, omega, active)
        assert len(fps) == 3 and not clean_errors
        bad = 1
        spoilt, errors = classify_points(p, np.insert(a0, bad, a0[0]),
                                         np.insert(m0, bad, np.nan),
                                         np.insert(omega, bad, omega[0]),
                                         active)
        assert list(errors) == [bad]
        err = errors[bad]
        assert isinstance(err, np.linalg.LinAlgError)
        assert str(err).startswith(
            f"non-finite linearization of {fps[0].kind} fixed point; "
            f"matrix:\n")
        keep = np.arange(len(fps) + 1) != bad
        np.testing.assert_array_equal(spoilt[keep], clean)
        with pytest.raises(np.linalg.LinAlgError):
            classify(fps[0]._replace(m0=complex(np.nan)), p)
        with pytest.raises(np.linalg.LinAlgError):
            spectrum(fps[0]._replace(m0=complex(np.nan)), p)
        for fp, code in zip(fps, clean):
            rep = spectrum(fp, p)
            assert rep.eigenvalues.shape == (4,)
            assert (rep.discarded >= 0) == active
            band = MARGIN_RTOL * p.rate_scale()
            assert _margin_verdicts(rep.margin, band) == code


def test_classify_is_its_row_of_classify_points():
    """A one-point call, which runs on Python floats, gives each point
    the verdict of its row in a batch, which runs on arrays."""
    cases = []
    p = narrowline_params(delta_m=TWO_PI * (-46.4))
    cases.append((p, active_fixed_points(p)))
    p = broadline_params(delta_c=TWO_PI * 80.0, delta_m=TWO_PI * (-85.0))
    cases.append((p, passive_fixed_points(p, n0_to_drive_passive(8e14, p))))
    for p, fps in cases:
        active = fps[0].kind == "active"
        batch, errors = classify_points(
            p, *(np.array([getattr(fp, k) for fp in fps])
                 for k in ("a0", "m0", "omega")), active)
        assert not errors and batch.shape == (len(fps),)
        for fp, code in zip(fps, batch):
            row = classify(fp, p)
            assert type(row) is int and row == code
            single, errors = classify_points(p, fp.a0, fp.m0, fp.omega,
                                             active)
            assert not errors and single.tolist() == [row]


def test_gain_map_verdicts_match_the_doubled_basis():
    """Every fixed point of the shipped 151x151 gain map gets the same
    verdict from the Hurwitz test on the real basis as from the margin
    of complex doubled-basis eigenvalue solves; the eigenvalue report
    of every 7th point has that margin."""
    run = config.parse_run(config.load_config(
        str(ROOT / "configs" / "active_gain_map.json")), "phase-diagram")
    grid = run.grid
    assert grid.x_axis == "gain"
    n_cells = grid.x_count * grid.delta_m_count
    n_points = 0
    for lo in range(0, n_cells, BLOCK):
        iy, ix = np.divmod(np.arange(lo, min(lo + BLOCK, n_cells)),
                           grid.x_count)
        cells = batch_rates(grid.base, delta_c=0.0,
                            delta_m=grid.delta_m_values()[iy],
                            gain_eff=grid.x_values()[ix])
        sol = solve_active(cells)
        assert not sol.errors
        rates = cells.take(sol.cell)
        band = MARGIN_RTOL * rates.rate_scale()
        got, errors = classify_points(rates, sol.a0, sol.m0, sol.omega,
                                      True)
        assert not errors

        eigs = np.linalg.eigvals(
            doubled_jacobian(rates, sol.a0, sol.m0, sol.omega, True))
        neutral = np.abs(eigs).argmin(axis=-1)
        oscillating = np.abs(sol.a0) ** 2 + np.abs(sol.m0) ** 2 > 0
        retained = eigs.real.copy()
        retained[np.flatnonzero(oscillating), neutral[oscillating]] = -np.inf
        margin = retained.max(axis=-1)
        np.testing.assert_array_equal(got, _margin_verdicts(margin, band))
        for i in range(0, len(margin), 7):
            report = spectrum(Solution("active", 0, *(
                v[i].item() for v in sol[2:-1]), {}), rates.take(i))
            assert abs(report.margin - margin[i]) < 1e-3 * band[i]
        n_points += len(margin)
    assert n_points > 2 * n_cells


def _margin_verdicts(margin, band):
    """The eigenvalue rule: indices into ``VERDICTS`` of margins, with a
    margin within ``band`` of zero marginal."""
    return np.where(np.abs(margin) < band, 2, np.where(margin < 0.0, 0, 1))


def test_decoupled_passive_spectrum():
    p = broadline_params(g=0.0, kerr=0.0, delta_c=TWO_PI * 7.0,
                         delta_m=TWO_PI * (-3.0))
    fp = Solution(kind="passive", cell=0, a0=0j, m0=0j, omega=0.0,
                  net_gain=0.0, residual=0.0, errors={})
    rep = spectrum(fp, p)
    expect = {-0.5 * p.kappa + 1j * p.delta_c, -0.5 * p.kappa - 1j * p.delta_c,
              -0.5 * p.gamma + 1j * p.delta_m, -0.5 * p.gamma - 1j * p.delta_m}
    for e in expect:
        assert min(abs(np.array(rep.eigenvalues) - e)) < 1e-9 * p.rate_scale()
    assert VERDICTS[classify(fp, p)] == "stable" and rep.discarded == -1


def test_beam_splitter_spectrum_at_origin():
    # m0 = 0 removes the Kerr blocks; the linear two-mode problem has
    # eigenvalues -(kappa/2 + i dc + gamma/2 + i dm)/2 +- sqrt(...).
    p = broadline_params(delta_c=0.0, delta_m=0.0)
    fp = Solution(kind="passive", cell=0, a0=0j, m0=0j, omega=0.0,
                  net_gain=0.0, residual=0.0, errors={})
    rep = spectrum(fp, p)
    half = 0.5 * (0.5 * p.kappa + 0.5 * p.gamma)
    disc = complex(half - 0.5 * p.kappa) ** 2 - p.g ** 2
    root = np.sqrt(disc + 0j)
    expect = {-half + root, -half - root}
    eigs = np.array(rep.eigenvalues)
    for e in expect:
        assert min(abs(eigs - e)) < 1e-9 * p.rate_scale()


def test_uncoupled_oscillator_spectrum():
    """At the photon-only cycle: a neutral phase mode, amplitude
    relaxation at -2 G_eff, and the bare magnon pair."""
    p = narrowline_params(g=0.0, delta_m=TWO_PI * 5.0)
    fp = active_fixed_points(p)[0]
    rep = spectrum(fp, p)
    eigs = np.array(rep.eigenvalues)
    for e in (0.0, -2.0 * p.gain_eff, -0.5 * p.gamma + 1j * p.delta_m,
              -0.5 * p.gamma - 1j * p.delta_m):
        assert min(abs(eigs - e)) < 1e-8 * p.rate_scale()
    assert rep.discarded >= 0
    assert abs(eigs[rep.discarded]) < 1e-9 * p.rate_scale()
    assert VERDICTS[classify(fp, p)] == "stable"
    assert not rep.neutral_suspect


def test_conjugate_pairing_closure():
    """The spectrum is closed under conjugation."""
    rng = np.random.default_rng(33)
    for _ in range(15):
        p = _random_active_draw(rng)
        for fp in active_fixed_points(p):
            eigs = np.array(spectrum(fp, p).eigenvalues)
            scale = max(np.max(np.abs(eigs)), 1e-300)
            for e in eigs:
                assert min(abs(eigs - np.conj(e))) < 1e-8 * scale


def test_eigenvalues_satisfy_their_matrix():
    rng = np.random.default_rng(34)
    for _ in range(10):
        p, drive = _random_passive_draw(rng)
        for fp in passive_fixed_points(p, drive):
            jac = jacobian(p, fp.a0, fp.m0)
            norm = np.linalg.norm(jac, 2)
            for e in np.linalg.eigvals(jac):
                sv = np.linalg.svd(jac - e * np.eye(4), compute_uv=False)
                assert sv[-1] < 1e-8 * norm


def test_middle_branch_is_a_saddle():
    p = broadline_params(delta_c=TWO_PI * 80.0, delta_m=TWO_PI * (-85.0))
    drive = n0_to_drive_passive(8e14, p)
    fps = passive_fixed_points(p, drive)
    assert len(fps) == 3
    assert [VERDICTS[classify(fp, p)] for fp in fps] == [
        "stable", "unstable", "stable"]
    mid = spectrum(fps[1], p)
    retained = mid.eigenvalues[np.arange(4) != mid.discarded]
    assert sum(1 for e in retained if e.real > 0) == 1

    # time-domain oracle: a kick along any direction leaves the saddle
    fp = fps[1]
    kick = 1e-3
    state = ModeState(a=fp.a0 * (1 + kick), m=fp.m0 * (1 + kick))
    seg = integrate_segment(state, p, duration=2.0, dt=1e-3, drive=drive)
    dev0 = abs(seg.a[0] - fp.a0) ** 2 + abs(seg.m[0] - fp.m0) ** 2
    dev1 = abs(seg.a[-1] - fp.a0) ** 2 + abs(seg.m[-1] - fp.m0) ** 2
    assert dev1 > 100.0 * dev0


def test_coexisting_unstable_pair():
    """A gain-map cell where one stable point coexists with two
    unstable ones (frozen from the broad-line scan)."""
    p = broadline_params(kappa=0.0, delta_m=TWO_PI * (-100.0),
                         gamma_sat=TWO_PI * 2.0e-12)
    p = p.replace(gain=n0_to_gain_active(6.3096e14, p))
    fps = active_fixed_points(p)
    assert len(fps) == 3
    verdicts = [VERDICTS[classify(fp, p)] for fp in fps]
    assert verdicts.count("stable") == 1
    assert verdicts.count("unstable") == 2


def _origin_margin(p):
    # At the origin the linearization splits into a complex-linear
    # (da, dm) block and its conjugate; the 2x2 block sets the growth.
    blk = np.array([[p.gain_eff, -1j * p.g],
                    [-1j * p.g, -(0.5 * p.gamma + 1j * p.delta_m)]])
    return float(np.max(np.linalg.eigvals(blk).real))


def test_active_origin_keeps_full_spectrum():
    """The origin has no phase orbit: nothing is discarded, and its
    margin is the coupled linear growth rate."""
    p = narrowline_params(delta_m=TWO_PI * 5.0)
    origin = Solution(kind="active", cell=0, a0=0j, m0=0j, omega=0.0,
                      net_gain=0.0, residual=0.0, errors={})
    rep = spectrum(origin, p)
    assert rep.discarded == -1
    assert VERDICTS[classify(origin, p)] == "unstable"
    assert rep.margin == pytest.approx(_origin_margin(p), rel=1e-10)

    lossy = narrowline_params(gain=TWO_PI * 2.0, kappa=TWO_PI * 8.0,
                              gain_absorbed=False, delta_m=TWO_PI * 5.0)
    assert lossy.gain_eff < 0
    rep = spectrum(origin, lossy)
    assert rep.discarded == -1
    assert VERDICTS[classify(origin, lossy)] == "stable"
    assert rep.margin == pytest.approx(_origin_margin(lossy), rel=1e-10)


def test_marginal_band(monkeypatch):
    p = narrowline_params(delta_m=TWO_PI * (-46.4))
    fp = active_fixed_points(p)[1]
    assert VERDICTS[classify(fp, p)] != "marginal"
    # the band is read at call time: |margin| << rate scale once it is 1x
    monkeypatch.setattr(stability, "MARGIN_RTOL", 1.0)
    wide, _ = classify_points(p, fp.a0, fp.m0, fp.omega, True)
    assert VERDICTS[wide[0]] == "marginal"
    assert VERDICTS[classify(fp, p)] == "marginal"


def test_neutral_suspect_flags_wrong_frame():
    """Linearizing in a frame that does not co-rotate with the point
    leaves no small eigenvalue, which must be flagged, not hidden."""
    p = narrowline_params(delta_m=TWO_PI * (-46.4))
    fp = active_fixed_points(p)[2]
    assert not spectrum(fp, p).neutral_suspect
    skewed = fp._replace(omega=fp.omega + 0.3 * p.rate_scale())
    assert spectrum(skewed, p).neutral_suspect


# Knife-edge margins, as multiples of the marginal band: each lies
# 1e-3 of the band inside or outside one of its edges.
KNIFE = (-1.001, -0.999, 0.999, 1.001)


def _bisect(f, lo, hi):
    """Bracket [lo, hi] of a sign change of f, shrunk to rounding."""
    below = f(lo) < 0.0
    assert below != (f(hi) < 0.0)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == below:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _knife_cases(at, lo, hi):
    """One case per ``KNIFE``, placed by bisection on a path s in
    [lo, hi] across a stability change.

    ``at(s)`` gives (params, points, row): Solution rows and the index
    of the one whose margin crosses on the path. A case is (params,
    points, reports, row, knife), with each point's ``spectrum``, at
    the bracket end whose margin is nearer the knife; that margin must
    lie within 1e-4 of the band of it.
    """
    def case(s, knife):
        params, fps, row = at(s)
        reports = [spectrum(fp, params) for fp in fps]
        band = MARGIN_RTOL * params.rate_scale()
        miss = reports[row].margin / band - knife
        return miss, (params, fps, reports, row, knife)

    cases = []
    for knife in KNIFE:
        ends = _bisect(lambda s: case(s, knife)[0], lo, hi)
        miss, best = min((case(s, knife) for s in ends),
                         key=lambda c: abs(c[0]))
        assert abs(miss) < 1e-4, (knife, miss)
        cases.append(best)
    return cases


def _assert_knife_edge_verdicts(cases):
    """classify_points gives every point of each case the verdict of
    the eigenvalue margin, and the knife's point the verdict its
    margin was placed for. A disagreement would be allowed only on a
    point whose report flags its neutral-mode discard as suspect;
    returns how many such points there were."""
    suspects = 0
    for params, fps, reports, row, knife in cases:
        active = fps[0].kind == "active"
        got, errors = classify_points(
            params, *(np.array([getattr(fp, k) for fp in fps])
                      for k in ("a0", "m0", "omega")), active)
        assert not errors
        band = MARGIN_RTOL * params.rate_scale()
        want = _margin_verdicts(np.array([r.margin for r in reports]), band)
        assert VERDICTS[want[row]] == (
            "marginal" if abs(knife) < 1.0
            else "stable" if knife < 0.0 else "unstable")
        for code, ref, report in zip(got, want, reports):
            assert code == ref or report.neutral_suspect, (
                VERDICTS[code], VERDICTS[ref], report.margin / band)
            suspects += report.neutral_suspect
    return suspects


def _map_edges(name, rows, changed):
    """(grid, [(delta_m, x0, x1)]) of about 10 gain- or n0-direction
    edges of the shipped map ``name``, among its detuning ``rows``,
    where ``changed(stable, total)`` (arrays over the edges) holds."""
    run = config.parse_run(config.load_config(
        str(ROOT / "configs" / f"{name}.json")), "phase-diagram")
    grid = run.grid
    xs, dms = grid.x_values(), grid.delta_m_values()[rows]
    counts, errors = solve_cells(grid, np.tile(xs, len(dms)),
                                 np.repeat(dms, len(xs)))
    assert not errors
    stable, total = (c.reshape(len(dms), len(xs)) for c in counts[[0, 3]])
    found = np.argwhere(changed(np.stack([stable[:, :-1], stable[:, 1:]]),
                                np.stack([total[:, :-1], total[:, 1:]])))
    assert len(found) >= 10
    return grid, [(dms[iy], xs[ix], xs[ix + 1])
                  for iy, ix in found[::len(found) // 10]]


def test_knife_edge_hopf_points_of_the_gain_map():
    """Fixed points placed 1e-3 of the band inside and outside both
    band edges, on Hopf crossings of the shipped gain map (label
    changes along gain that keep the count), get the verdicts of the
    eigenvalue margin. The bisection runs on the gain, through the
    solver, and follows the point of smallest |margin|."""
    grid, edges = _map_edges(
        "active_gain_map", slice(None),
        lambda stable, total: ((total[0] == total[1]) & (total[0] > 0)
                               & (stable[0] != stable[1])))
    cases = []
    for dm, g0, g1 in edges:
        def at(g_eff):
            params = grid.base.replace(delta_m=dm, gain=g_eff,
                                       gain_absorbed=True, delta_c=0.0)
            fps = active_fixed_points(params)
            margins = [abs(spectrum(fp, params).margin) for fp in fps]
            return params, fps, int(np.argmin(margins))

        cases += _knife_cases(at, g0, g1)
    assert len(cases) == 4 * len(edges)
    assert _assert_knife_edge_verdicts(cases) == 0


def test_knife_edge_fold_points_of_the_passive_map():
    """The same at the stability changes of the shipped passive
    detuned map, its folds. Each fold is found by bisection on the
    point count in n0, and taken 1e-10 (relative) into its three-point
    side. The margin there is too noisy in n0 to place to 1e-4 of the
    band, so each knife is placed on the segment of states between the
    saddle and the node it merges with, whose linearizations the
    classification reads like any other."""
    grid, edges = _map_edges(
        "passive_detuned_map", slice(None, None, 10),
        lambda stable, total: total[0] != total[1])
    cases = []
    for dm, n0_lo, n0_hi in edges:
        params = grid.base.replace(delta_m=dm)

        def points(n0):
            return passive_fixed_points(params,
                                        n0_to_drive_passive(n0, params))

        three = len(points(n0_hi)) == 3
        ends = _bisect(lambda n0: (len(points(n0)) == 3) - 0.5,
                       n0_lo, n0_hi)
        fps = points(ends[three] * (1.0 + (1e-10 if three else -1e-10)))
        assert len(fps) == 3
        margins = [spectrum(fp, params).margin for fp in fps]
        node, saddle = (fps[k] for k in np.argsort(margins)[-2:])

        def at(t):
            state = node._replace(a0=node.a0 + t * (saddle.a0 - node.a0),
                                  m0=node.m0 + t * (saddle.m0 - node.m0))
            return params, [*fps, state], 3

        cases += _knife_cases(at, 0.0, 1.0)
    assert len(cases) == 4 * len(edges)
    assert _assert_knife_edge_verdicts(cases) == 0
