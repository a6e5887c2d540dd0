"""Grid scans, drive mappings, and phase-count bookkeeping."""

import numpy as np
import pytest

from _cases import broadline_params, narrowline_params
from _oracles import active_fixed_points_newton
from magpol import phasemap
from magpol.model import TWO_PI, SystemParams, eta_from_power
from magpol.phasemap import (GridSpec, PhaseDiagram, bistable_onset,
                             n0_to_drive_passive, n0_to_gain_active,
                             onset_monotonicity_flags, scan)
from magpol.stability import classify
from magpol.steady import active_fixed_points


def test_n0_mapping_inverts_the_bare_occupation():
    p = broadline_params(delta_c=TWO_PI * 40.0)
    rng = np.random.default_rng(41)
    for _ in range(15):
        n0 = 10.0 ** rng.uniform(6, 15)
        drive = n0_to_drive_passive(n0, p)
        denom = (0.5 * p.kappa) ** 2 + p.delta_c ** 2
        assert drive.eta ** 2 / denom == pytest.approx(n0, rel=1e-12)


def test_n0_quadruples_when_detuning_is_removed():
    # at fixed input power, n0(dc=0)/n0(dc) = ((k/2)^2 + dc^2)/(k/2)^2;
    # dc = (k/2) sqrt(3) makes the ratio exactly 4
    p0 = broadline_params(kappa_ext=TWO_PI * 0.75, omega_d=TWO_PI * 3.0e3)
    pd = p0.replace(delta_c=0.5 * p0.kappa * np.sqrt(3.0))
    eta = eta_from_power(1e-6, p0).eta

    def n0_of(p):
        return eta ** 2 / ((0.5 * p.kappa) ** 2 + p.delta_c ** 2)

    assert n0_of(p0) / n0_of(pd) == pytest.approx(4.0, rel=1e-12)


def test_n0_power_round_trip():
    p = broadline_params(kappa_ext=TWO_PI * 0.75, omega_d=TWO_PI * 3.0e3)
    for n0 in (1e9, 3.7e11, 1e15):
        drive = n0_to_drive_passive(n0, p)
        assert drive.power_w is not None
        back = eta_from_power(drive.power_w, p)
        denom = (0.5 * p.kappa) ** 2 + p.delta_c ** 2
        assert back.eta ** 2 / denom == pytest.approx(n0, rel=1e-12)


def test_n0_mapping_without_a_port_skips_power():
    drive = n0_to_drive_passive(1e12, broadline_params())
    assert drive.eta > 0
    assert drive.s_in is None and drive.power_w is None


def test_degenerate_mapping_errors():
    dead = SystemParams(kappa=0.0, gamma=TWO_PI * 10.0, g=TWO_PI * 5.0)
    with pytest.raises(ValueError, match="degenerate"):
        n0_to_drive_passive(1e12, dead)
    with pytest.raises(ValueError):
        n0_to_drive_passive(-1.0, broadline_params())
    with pytest.raises(ValueError, match="degenerate"):
        n0_to_gain_active(1e12, broadline_params(gamma_sat=0.0))


def test_gain_mapping_spot_values():
    p = broadline_params(gamma_sat=TWO_PI * 2.0e-12)
    assert n0_to_gain_active(1e12, p) == pytest.approx(TWO_PI * 2.0,
                                                       rel=1e-12)
    assert n0_to_gain_active(0.0, p) == 0.0
    p = narrowline_params()
    n0 = p.gain_eff / p.gamma_sat
    assert n0 == pytest.approx(1.93125e13, rel=1e-6)
    assert n0_to_gain_active(n0, p) == pytest.approx(p.gain_eff, rel=1e-12)


def test_grid_validation():
    base = broadline_params()
    good = dict(system="passive", x_axis="n0", x_min=1e9, x_max=1e12,
                x_count=5, delta_m_min=-TWO_PI * 50, delta_m_max=TWO_PI * 50,
                delta_m_count=5, base=base)
    GridSpec(**good)
    with pytest.raises(ValueError):
        GridSpec(**{**good, "x_count": 1})
    with pytest.raises(ValueError):
        GridSpec(**{**good, "x_min": 0.0})  # log axis
    with pytest.raises(ValueError):
        GridSpec(**{**good, "x_axis": "gain"})  # passive scans drive, not gain
    with pytest.raises(ValueError):
        GridSpec(**{**good, "delta_m_min": TWO_PI * 60})
    with pytest.raises(ValueError):
        GridSpec(**{**good, "system": "hybrid"})


def test_axis_sampling():
    grid = GridSpec(system="passive", x_axis="n0", x_min=1e9, x_max=1e13,
                    x_count=5, delta_m_min=-1.0, delta_m_max=1.0,
                    delta_m_count=3, base=broadline_params())
    assert np.allclose(grid.x_values(),
                       [1e9, 1e10, 1e11, 1e12, 1e13], rtol=1e-12)
    assert np.allclose(grid.delta_m_values(), [-1.0, 0.0, 1.0])


def active_gain_grid(n=9, kerr_sign=1.0, dm_lo=-70.0, dm_hi=-25.0):
    base = narrowline_params(kerr=kerr_sign * TWO_PI * 3.2e-12, gain=0.0)
    return GridSpec(system="active", x_axis="gain",
                    x_min=TWO_PI * 10.0, x_max=TWO_PI * 22.0, x_count=n,
                    delta_m_min=TWO_PI * dm_lo, delta_m_max=TWO_PI * dm_hi,
                    delta_m_count=n, base=base)


def test_scan_deterministic_and_worker_invariant():
    grid = active_gain_grid(n=9)
    one = scan(grid, workers=1)
    two = scan(grid, workers=1)
    par = scan(grid, workers=3)
    for field in ("stable", "unstable", "marginal", "blank", "errors"):
        assert np.array_equal(getattr(one, field), getattr(two, field))
        assert np.array_equal(getattr(one, field), getattr(par, field))
    assert not one.errors.any()
    assert one.region_summary()  # non-empty


def test_kerr_detuning_mirror_symmetry():
    """Flipping the Kerr sign and the detuning axis flips the maps."""
    plus = scan(active_gain_grid(n=11, kerr_sign=1.0, dm_lo=-70, dm_hi=-25))
    minus = scan(active_gain_grid(n=11, kerr_sign=-1.0, dm_lo=25, dm_hi=70))
    assert np.array_equal(plus.stable, np.flipud(minus.stable))
    assert np.array_equal(plus.unstable, np.flipud(minus.unstable))
    assert np.array_equal(plus.blank, np.flipud(minus.blank))


def test_cell_errors_are_recorded_not_raised():
    dead = SystemParams(kappa=0.0, gamma=TWO_PI * 10.0, g=TWO_PI * 5.0)
    grid = GridSpec(system="passive", x_axis="n0", x_min=1e9, x_max=1e10,
                    x_count=2, delta_m_min=-1.0, delta_m_max=1.0,
                    delta_m_count=2, base=dead)
    diagram = scan(grid)
    assert diagram.errors.all()
    assert diagram.error_messages[(0, 0)].startswith("ValueError")
    assert diagram.phase_label(0, 0) == "error"


def test_phase_labels_and_summary():
    grid = GridSpec(system="passive", x_axis="n0", x_min=1e9, x_max=1e10,
                    x_count=2, delta_m_min=-1.0, delta_m_max=1.0,
                    delta_m_count=2, base=broadline_params())
    diagram = PhaseDiagram(
        grid=grid,
        stable=np.array([[1, 2], [0, 1]], dtype=np.int16),
        unstable=np.array([[0, 1], [0, 0]], dtype=np.int16),
        marginal=np.array([[0, 0], [0, 1]], dtype=np.int16),
        blank=np.array([[False, False], [True, False]]),
        errors=np.zeros((2, 2), dtype=bool))
    assert diagram.phase_label(0, 0) == "1S+0U"
    assert diagram.phase_label(0, 1) == "2S+1U"
    assert diagram.phase_label(1, 0) == "blank"
    assert diagram.phase_label(1, 1) == "1S+0U+1M"
    assert diagram.region_summary() == {"1S+0U": 1, "1S+0U+1M": 1,
                                        "2S+1U": 1, "blank": 1}


def test_bistable_onset_and_monotonicity():
    base = broadline_params(delta_c=TWO_PI * 80.0)
    grid = GridSpec(system="passive", x_axis="n0", x_min=1e13, x_max=1e15,
                    x_count=25, delta_m_min=TWO_PI * (-100.0),
                    delta_m_max=TWO_PI * (-60.0), delta_m_count=21,
                    base=base)
    diagram = scan(grid, workers=4)
    onset = bistable_onset(diagram)
    assert onset.shape == (21,)
    assert (onset >= 0).any(), "no bistable cells in the scanned window"
    # rows without bistability stay -1
    wide = scan(GridSpec(system="passive", x_axis="n0", x_min=1e9,
                         x_max=1e10, x_count=3, delta_m_min=-1.0,
                         delta_m_max=1.0, delta_m_count=3,
                         base=broadline_params()))
    assert (bistable_onset(wide) == -1).all()
    # the single-tongue profile at this resolution is clean
    assert onset_monotonicity_flags(diagram) == []


def _cell_params(grid, iy, ix):
    """The parameters of one active cell, built the way a per-cell scan
    builds them."""
    params = grid.base.replace(delta_m=grid.delta_m_values()[iy])
    x = grid.x_values()[ix]
    g_eff = x if grid.x_axis == "gain" else n0_to_gain_active(x, params)
    return params.replace(gain=g_eff, gain_absorbed=True, delta_c=0.0)


def _enumerate_cell(grid, iy, ix):
    """(stable, unstable, marginal, total, error text) of one active
    cell from one-cell ``active_fixed_points`` and ``classify`` calls."""
    try:
        p = _cell_params(grid, iy, ix)
        reps = [classify(fp, p) for fp in active_fixed_points(p)]
    except Exception as exc:
        return 0, 0, 0, 0, f"{type(exc).__name__}: {exc}"
    nm = sum(r.is_marginal for r in reps)
    ns = sum(r.is_stable and not r.is_marginal for r in reps)
    return ns, len(reps) - ns - nm, nm, len(reps), None


def _assert_scan_matches_cells(grid):
    diagram = scan(grid)
    for iy in range(grid.delta_m_count):
        for ix in range(grid.x_count):
            ns, nu, nm, total, err = _enumerate_cell(grid, iy, ix)
            where = f"cell ({iy}, {ix})"
            assert diagram.error_messages.get((iy, ix)) == err, where
            assert diagram.errors[iy, ix] == (err is not None), where
            assert (diagram.stable[iy, ix], diagram.unstable[iy, ix],
                    diagram.marginal[iy, ix]) == (ns, nu, nm), where
            assert diagram.blank[iy, ix] == (err is None and total == 0), \
                where
    return diagram


def test_scan_counts_match_direct_enumeration():
    _assert_scan_matches_cells(active_gain_grid(n=7))


def _doublet_grid():
    # narrow-line base: the polariton doublet line delta_m = -K (G -
    # gamma/2) / gamma_sat = -4 (G - 2pi 5.15 MHz) passes through the
    # cells (5, 5) and (1, 8) of this grid
    return GridSpec(system="active", x_axis="gain", x_min=TWO_PI * 14.6,
                    x_max=TWO_PI * 16.6, x_count=11,
                    delta_m_min=-TWO_PI * 44.8, delta_m_max=-TWO_PI * 38.8,
                    delta_m_count=11, base=narrowline_params(gain=0.0))


ACTIVE_GRIDS = {
    "gain_axis_through_threshold": lambda: GridSpec(
        system="active", x_axis="gain", x_min=-TWO_PI * 6.0,
        x_max=TWO_PI * 20.0, x_count=9, delta_m_min=-TWO_PI * 70.0,
        delta_m_max=TWO_PI * 10.0, delta_m_count=9,
        base=narrowline_params(gain=0.0)),
    "n0_axis": lambda: GridSpec(
        system="active", x_axis="n0", x_min=1e9, x_max=1e15, x_count=9,
        delta_m_min=-TWO_PI * 100.0, delta_m_max=TWO_PI * 100.0,
        delta_m_count=9,
        base=broadline_params(gamma_sat=TWO_PI * 2.0e-12, gain=0.0)),
    "doublet_line": _doublet_grid,
    "kerr_zero_cubic": lambda: GridSpec(
        system="active", x_axis="gain", x_min=TWO_PI * 2.0,
        x_max=TWO_PI * 22.0, x_count=9, delta_m_min=-TWO_PI * 60.0,
        delta_m_max=TWO_PI * 60.0, delta_m_count=9,
        base=narrowline_params(kerr=0.0, gain=0.0)),
    "uncoupled_g_zero": lambda: GridSpec(
        system="active", x_axis="gain", x_min=-TWO_PI * 2.0,
        x_max=TWO_PI * 22.0, x_count=5, delta_m_min=-TWO_PI * 60.0,
        delta_m_max=TWO_PI * 60.0, delta_m_count=4,
        base=narrowline_params(g=0.0, gain=0.0)),
    "no_saturation": lambda: GridSpec(
        system="active", x_axis="gain", x_min=TWO_PI * 10.0,
        x_max=TWO_PI * 22.0, x_count=4, delta_m_min=-TWO_PI * 60.0,
        delta_m_max=TWO_PI * 60.0, delta_m_count=3,
        base=narrowline_params(gamma_sat=0.0, gain=0.0)),
}


@pytest.mark.parametrize("name", sorted(ACTIVE_GRIDS))
def test_batched_scan_matches_per_cell_enumeration(name, monkeypatch):
    # blocks of 7 cells: every grid spans several, the last one ragged
    monkeypatch.setattr(phasemap, "ACTIVE_BLOCK", 7)
    grid = ACTIVE_GRIDS[name]()
    diagram = _assert_scan_matches_cells(grid)
    total = diagram.stable + diagram.unstable + diagram.marginal
    if name == "no_saturation":
        assert diagram.errors.all()
        assert set(diagram.error_messages.values()) == {
            "ValueError: active model needs gamma_sat > 0 to saturate"}
        return
    assert not diagram.errors.any()
    if name == "gain_axis_through_threshold":
        gains = grid.x_values()
        assert diagram.blank[:, gains <= 0].all()
        assert not diagram.blank[:, gains > TWO_PI * 10.0].any()
    if name == "uncoupled_g_zero":
        assert (total == (grid.x_values() > 0)).all()
        return
    # the counts agree with the multi-start Newton oracle
    rng = np.random.default_rng(43)
    cells = [(int(rng.integers(grid.delta_m_count)),
              int(rng.integers(grid.x_count))) for _ in range(4)]
    if name == "doublet_line":
        cells += [(5, 5), (1, 8)]
    for iy, ix in cells:
        p = _cell_params(grid, iy, ix)
        for n_starts in (48, 512):
            ref = active_fixed_points_newton(p, n_starts=n_starts)
            if len(ref) == total[iy, ix]:
                break
        assert len(ref) == total[iy, ix], f"cell ({iy}, {ix})"


def test_every_passive_cell_has_one_or_three_fixed_points():
    grid = GridSpec(system="passive", x_axis="n0", x_min=1e13, x_max=1e15,
                    x_count=25, delta_m_min=TWO_PI * (-100.0),
                    delta_m_max=TWO_PI * (-60.0), delta_m_count=21,
                    base=broadline_params(delta_c=TWO_PI * 80.0))
    diagram = scan(grid)
    assert not diagram.errors.any()
    total = diagram.stable + diagram.unstable + diagram.marginal
    assert set(np.unique(total)) == {1, 3}


def test_region_summary_matches_per_cell_labels():
    rng = np.random.default_rng(44)
    shape = (37, 23)
    grid = GridSpec(system="active", x_axis="gain", x_min=1.0, x_max=2.0,
                    x_count=shape[1], delta_m_min=-1.0, delta_m_max=1.0,
                    delta_m_count=shape[0], base=narrowline_params())
    diagram = PhaseDiagram(
        grid=grid,
        stable=rng.integers(0, 4, shape).astype(np.int16),
        unstable=rng.integers(0, 4, shape).astype(np.int16),
        marginal=(rng.random(shape) < 0.2) * rng.integers(1, 3, shape)
        .astype(np.int16),
        blank=rng.random(shape) < 0.15,
        errors=rng.random(shape) < 0.1)
    want: dict[str, int] = {}
    for iy in range(shape[0]):
        for ix in range(shape[1]):
            lab = diagram.phase_label(iy, ix)
            want[lab] = want.get(lab, 0) + 1
    got = diagram.region_summary()
    assert list(got) == sorted(want)
    assert got == want
    assert {"error", "blank"} <= set(got)
    assert any(lab.endswith("M") for lab in got)
