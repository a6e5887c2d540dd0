"""Grid scans, drive mappings, and phase-count bookkeeping."""

import sys
import warnings

import numpy as np
import pytest

from _cases import active_fixed_points, broadline_params, \
    narrowline_params, rows, verdict_of
from _oracles import active_fixed_points_newton
from magpol import phasemap, steady
from magpol.model import TWO_PI, DriveSpec, SystemParams, batch_rates, \
    eta_from_power, power_from_drive
from magpol.phasemap import (GridSpec, PhaseDiagram, bistable_onset,
                             n0_to_drive_passive, n0_to_gain_active,
                             onset_monotonicity_flags, scan)
from magpol.stability import VERDICTS, classify, spectrum


def test_n0_mapping_inverts_the_bare_occupation():
    p = broadline_params(delta_c=TWO_PI * 40.0)
    rng = np.random.default_rng(41)
    for _ in range(15):
        n0 = 10.0 ** rng.uniform(6, 15)
        eta = n0_to_drive_passive(n0, p)
        denom = (0.5 * p.kappa) ** 2 + p.delta_c ** 2
        assert eta ** 2 / denom == pytest.approx(n0, rel=1e-12)


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
        back = eta_from_power(
            power_from_drive(DriveSpec(n0_to_drive_passive(n0, p)), p), p)
        denom = (0.5 * p.kappa) ** 2 + p.delta_c ** 2
        assert back.eta ** 2 / denom == pytest.approx(n0, rel=1e-12)


def test_n0_mapping_without_a_port_skips_power():
    assert n0_to_drive_passive(1e12, broadline_params()) > 0


def test_degenerate_mapping_errors():
    dead = SystemParams(kappa=0.0, gamma=TWO_PI * 10.0, g=TWO_PI * 5.0)
    with pytest.raises(ValueError, match="degenerate"):
        n0_to_drive_passive(1e12, dead)
    with pytest.raises(ValueError):
        n0_to_drive_passive(-1.0, broadline_params())
    with pytest.raises(ValueError, match="degenerate"):
        n0_to_gain_active(1e12, broadline_params(gamma_sat=0.0))
    with pytest.raises(ValueError, match="n0 must be >= 0"):
        n0_to_gain_active(np.array([1e12, -1.0]), narrowline_params())


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
    with pytest.raises(ValueError, match="x_axis must be one of"):
        GridSpec(**{**good, "x_axis": "power"})


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


WORKER_GRIDS = {
    "active": lambda: active_gain_grid(n=9),
    "passive": lambda: GridSpec(
        system="passive", x_axis="n0", x_min=1e13, x_max=1e15, x_count=13,
        delta_m_min=TWO_PI * (-100.0), delta_m_max=TWO_PI * (-60.0),
        delta_m_count=11, base=broadline_params(delta_c=TWO_PI * 80.0)),
    # gain <= 0 cells are blank, gain > 0 cells fail: nothing saturates
    "active_with_errors": lambda: GridSpec(
        system="active", x_axis="gain", x_min=-TWO_PI * 6.0,
        x_max=TWO_PI * 20.0, x_count=9, delta_m_min=-TWO_PI * 60.0,
        delta_m_max=TWO_PI * 60.0, delta_m_count=7,
        base=narrowline_params(gamma_sat=0.0, gain=0.0)),
}


@pytest.mark.parametrize("name", sorted(WORKER_GRIDS))
def test_scan_deterministic_and_worker_invariant(name, monkeypatch):
    """Any worker count gives the same scan, and worker threads, which
    share the process's warning filters, warn about nothing, on the
    error grid too."""
    monkeypatch.setattr(phasemap, "_usable_cpus", lambda: 3)
    grid = WORKER_GRIDS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = scan(grid, workers=1)
        others = {w: scan(grid, workers=w) for w in (1, 2, 3)}
    for workers, other in others.items():
        for field in ("stable", "unstable", "marginal", "blank", "errors"):
            assert np.array_equal(getattr(one, field),
                                  getattr(other, field)), (workers, field)
        assert other.error_messages == one.error_messages, workers
    assert len(one.region_summary()) > 1
    if name == "active_with_errors":
        assert one.errors[:, grid.x_values() > 0].all()
        assert one.blank[:, grid.x_values() <= 0].all()
    else:
        assert not one.errors.any()


def test_pool_is_capped_at_cpus_and_ranges(monkeypatch):
    """``workers`` never starts more threads than usable CPUs or cell
    ranges, the ranges are cut for the capped count, and no range holds
    more than its share of ``BLOCK``, so the cells in flight stay within
    ``BLOCK`` for any count. A stand-in executor records its size and
    its ranges and maps in the calling thread."""
    import concurrent.futures

    sizes, ranges = [], []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, grids, xs, delta_ms):
            xs = list(xs)
            ranges.extend(len(x) for x in xs)
            return map(fn, grids, xs, delta_ms)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(phasemap, "BLOCK", 4)
    small, grid = active_gain_grid(n=2), active_gain_grid(n=9)
    one = scan(grid, workers=1)
    for cpus, workers, case, pool in ((2, 8, grid, 2), (64, 8, grid, 8),
                                      (64, 8, small, 4), (1, 8, grid, 1)):
        monkeypatch.setattr(phasemap, "_usable_cpus", lambda: cpus)
        sizes.clear()
        ranges.clear()
        other = scan(case, workers=workers)
        assert sizes == [pool], (cpus, workers)
        cells = case.x_count * case.delta_m_count
        assert sum(ranges) == cells, (cpus, workers)
        assert max(ranges) <= max(1, phasemap.BLOCK // pool), \
            (cpus, workers, max(ranges))
        if case is grid:
            for field in ("stable", "unstable", "marginal", "blank"):
                assert np.array_equal(getattr(one, field),
                                      getattr(other, field)), (cpus, field)


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    """Where the platform has no affinity mask the CPU count stands in
    for it, and 1 where that is unknown too."""
    monkeypatch.delattr(phasemap.os, "sched_getaffinity", raising=False)
    for count, usable in ((6, 6), (None, 1)):
        monkeypatch.setattr(phasemap.os, "cpu_count", lambda: count)
        assert phasemap._usable_cpus() == usable


def test_kerr_detuning_mirror_symmetry():
    """Flipping the Kerr sign and the detuning axis flips the maps."""
    plus = scan(active_gain_grid(n=11, kerr_sign=1.0, dm_lo=-70, dm_hi=-25))
    minus = scan(active_gain_grid(n=11, kerr_sign=-1.0, dm_lo=25, dm_hi=70))
    assert np.array_equal(plus.stable, np.flipud(minus.stable))
    assert np.array_equal(plus.unstable, np.flipud(minus.unstable))
    assert np.array_equal(plus.blank, np.flipud(minus.blank))


def test_cell_errors_are_recorded_not_raised():
    """No n0 maps to a drive of a cavity without loss or detuning, and
    the active model is solved only in the gain center's frame: each
    cell of either grid records its ValueError."""
    dead = SystemParams(kappa=0.0, gamma=TWO_PI * 10.0, g=TWO_PI * 5.0)
    passive = GridSpec(system="passive", x_axis="n0", x_min=1e9,
                       x_max=1e10, x_count=2, delta_m_min=-1.0,
                       delta_m_max=1.0, delta_m_count=2, base=dead)
    off_frame = GridSpec(system="active", x_axis="gain",
                         x_min=TWO_PI * 10.0, x_max=TWO_PI * 22.0,
                         x_count=2, delta_m_min=-TWO_PI * 70.0,
                         delta_m_max=-TWO_PI * 25.0, delta_m_count=2,
                         base=narrowline_params(gain=0.0, delta_c=1.0))
    for grid, message in (
            (passive, "ValueError: degenerate mapping"),
            (off_frame, "ValueError: active model requires delta_c == 0, "
                        "got 1.0")):
        diagram = scan(grid)
        assert diagram.errors.all()
        assert sorted(diagram.error_messages) == [(0, 0), (0, 1), (1, 0),
                                                  (1, 1)]
        for msg in diagram.error_messages.values():
            assert msg.startswith(message), msg
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


def _onset_reference(diagram):
    """Per-row loops: each row's first 2S+1U column, and the rows whose
    onset falls while walking away from the earliest onset."""
    ny = diagram.stable.shape[0]
    onset = np.full(ny, -1)
    for iy in range(ny):
        hits = np.flatnonzero(
            (diagram.stable[iy] == 2) & (diagram.unstable[iy] == 1)
            & ~diagram.blank[iy] & ~diagram.errors[iy])
        if hits.size:
            onset[iy] = hits[0]
    present = np.flatnonzero(onset >= 0)
    if present.size == 0:
        return onset, []
    opt = present[np.argmin(onset[present])]
    flags = set()
    for rows in (range(opt, -1, -1), range(opt, ny)):
        last = None
        for iy in rows:
            if onset[iy] < 0:
                continue
            if last is not None and onset[iy] < last:
                flags.add(iy)
            last = onset[iy]
    return onset, sorted(flags)


def test_onsets_match_per_row_reference():
    rng = np.random.default_rng(46)
    grid = WORKER_GRIDS["passive"]()  # only stored: the counts are drawn
    flagged = 0
    for _ in range(300):
        shape = (int(rng.integers(1, 30)), int(rng.integers(1, 20)))
        bistable = rng.random(shape) < rng.uniform(0.0, 0.4)
        diagram = PhaseDiagram(
            grid=grid,
            stable=np.where(bistable, 2, rng.integers(0, 4, shape))
            .astype(np.int16),
            unstable=np.where(bistable, 1, rng.integers(0, 3, shape))
            .astype(np.int16),
            marginal=np.zeros(shape, dtype=np.int16),
            blank=rng.random(shape) < 0.1, errors=rng.random(shape) < 0.05)
        onset, flags = _onset_reference(diagram)
        assert np.array_equal(bistable_onset(diagram), onset)
        got = onset_monotonicity_flags(diagram)
        assert got == flags
        assert all(type(row) is int for row in got)  # the sidecar is JSON
        flagged += bool(flags)
    assert flagged > 100


def _point_params(grid, x, delta_m):
    """The parameters of one point, built the way a one-point solve
    builds them."""
    params = grid.base.replace(delta_m=delta_m)
    if grid.system == "passive":
        return params
    g_eff = x if grid.x_axis == "gain" else n0_to_gain_active(x, params)
    return params.replace(gain=g_eff, gain_absorbed=True, delta_c=0.0)


def _enumerate_point(grid, x, delta_m):
    """(stable, unstable, marginal, total, error text) of one point from
    one-cell ``steady.passive_fixed_points`` or ``active_fixed_points``
    and one-point ``classify`` calls."""
    try:
        p = _point_params(grid, x, delta_m)
        fps = (rows(steady.passive_fixed_points(
                   batch_rates(p), n0_to_drive_passive(x, p)))
               if grid.system == "passive" else active_fixed_points(p))
        verdicts = [verdict_of(fp, p) for fp in fps]
    except Exception as exc:
        return 0, 0, 0, 0, f"{type(exc).__name__}: {exc}"
    return (*(verdicts.count(v) for v in VERDICTS), len(verdicts), None)


def _assert_scan_matches_cells(grid):
    diagram = scan(grid)
    xs, dms = grid.x_values(), grid.delta_m_values()
    for iy in range(grid.delta_m_count):
        for ix in range(grid.x_count):
            ns, nu, nm, total, err = _enumerate_point(grid, xs[ix], dms[iy])
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
    _assert_scan_matches_cells(WORKER_GRIDS["passive"]())


@pytest.mark.parametrize("name", ["active", "passive"])
def test_scan_builds_each_axis_once(name, monkeypatch):
    # blocks of 7 cells: the grid spans a dozen ranges or more
    monkeypatch.setattr(phasemap, "BLOCK", 7)
    calls = []
    for axis in ("x_values", "delta_m_values"):
        def counted(self, build=getattr(GridSpec, axis), axis=axis):
            calls.append(axis)
            return build(self)
        monkeypatch.setattr(GridSpec, axis, counted)
    scan(WORKER_GRIDS[name]())
    assert sorted(calls) == ["delta_m_values", "x_values"]


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
    monkeypatch.setattr(phasemap, "BLOCK", 7)
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
        p = _point_params(grid, grid.x_values()[ix],
                          grid.delta_m_values()[iy])
        for n_starts in (48, 512):
            ref = active_fixed_points_newton(p, n_starts=n_starts)
            if len(ref) == total[iy, ix]:
                break
        assert len(ref) == total[iy, ix], f"cell ({iy}, {ix})"


PASSIVE_GRIDS = {
    "bistable_tongue": WORKER_GRIDS["passive"],
    # past its first column every cell overflows the scaled cubic
    "n0_overflow": lambda: GridSpec(
        system="passive", x_axis="n0", x_min=1e14, x_max=1e301, x_count=4,
        delta_m_min=TWO_PI * (-100.0), delta_m_max=TWO_PI * (-60.0),
        delta_m_count=5, base=broadline_params(delta_c=TWO_PI * 80.0)),
    "bare_cavity_overflow": lambda: GridSpec(
        system="passive", x_axis="n0", x_min=1e9, x_max=1e12, x_count=3,
        delta_m_min=-1.0, delta_m_max=1.0, delta_m_count=3,
        base=broadline_params(kappa=1e200)),
}


@pytest.mark.parametrize("name", sorted(PASSIVE_GRIDS))
def test_batched_passive_scan_matches_per_cell_enumeration(name,
                                                           monkeypatch):
    """The passive twin: a range solved and classified in one call each
    gives the counts and error texts of one-cell calls."""
    monkeypatch.setattr(phasemap, "BLOCK", 7)
    diagram = _assert_scan_matches_cells(PASSIVE_GRIDS[name]())
    messages = set(diagram.error_messages.values())
    if name == "bistable_tongue":
        assert not messages and (diagram.stable == 2).any()
    elif name == "n0_overflow":
        assert not diagram.errors[:, 0].any() and diagram.errors[:, 1:].all()
        assert messages == {"ConditioningError: passive cubic: non-finite "
                            "polynomial coefficients"}
    else:
        assert diagram.errors.all()
        assert all(m.startswith("ConditioningError: bare cavity: ")
                   for m in messages)


def test_non_finite_passive_point_fails_only_its_cell(monkeypatch):
    """A passive point whose linearization is not finite turns its cell
    into an error cell with the LinAlgError text of its row; every
    other cell, its range's included, keeps its counts."""
    monkeypatch.setattr(phasemap, "BLOCK", 7)
    grid = WORKER_GRIDS["passive"]()
    clean = scan(grid)
    iy, ix = np.argwhere(clean.stable == 2)[0]
    target = iy * grid.x_count + ix
    solve, done, spoilt = phasemap.passive_fixed_points, [0], []

    def range_spoilt(cells, eta):
        sol = solve(cells, eta)
        k = target - done[0]  # the target's index in this range
        done[0] += len(eta)
        if 0 <= k < len(eta):
            i = np.flatnonzero(sol.cell == k)[1]
            m0 = sol.m0.copy()
            m0[i] = complex(np.nan)
            sol = sol._replace(m0=m0)
            spoilt.append((sol.take([i]), cells.take([k])))
        return sol

    monkeypatch.setattr(phasemap, "passive_fixed_points", range_spoilt)
    diagram = scan(grid)
    (row, params), = spoilt
    _, errors = classify(row, params)
    assert diagram.error_messages == {
        (iy, ix): f"LinAlgError: {errors[0]}"}
    assert str(errors[0]).startswith(
        "non-finite linearization of passive fixed point; matrix:\n")
    other = np.ones(clean.errors.shape, dtype=bool)
    other[iy, ix] = False
    assert diagram.errors[iy, ix] and not diagram.blank[iy, ix]
    for field in ("stable", "unstable", "marginal", "blank", "errors"):
        assert np.array_equal(getattr(diagram, field)[other],
                              getattr(clean, field)[other]), field


@pytest.mark.parametrize("name", ["active", "passive"])
def test_scan_classifies_once_per_range(name, monkeypatch):
    """Both systems solve a range's cells in one call of their solver,
    and classify its points in one ``classify`` call."""
    monkeypatch.setattr(phasemap, "BLOCK", 7)
    calls = dict.fromkeys(
        ("classify", "passive_fixed_points", "active_fixed_points"), 0)
    for fn in calls:
        def counted(*args, fn=fn, call=getattr(phasemap, fn)):
            calls[fn] += 1
            return call(*args)
        monkeypatch.setattr(phasemap, fn, counted)
    grid = WORKER_GRIDS[name]()
    scan(grid)
    n = grid.x_count * grid.delta_m_count
    assert n > 4 * 7  # so every range holds BLOCK cells but the last
    ranges = -(-n // 7)
    other = "active" if name == "passive" else "passive"
    assert calls == {"classify": ranges, f"{name}_fixed_points": ranges,
                     f"{other}_fixed_points": 0}


def _saturation_overflow_grid(g):
    """Active gain grid whose G_eff / gamma_sat overflows in every cell."""
    return GridSpec(
        system="active", x_axis="gain", x_min=TWO_PI * 1e4,
        x_max=TWO_PI * 2e4, x_count=2, delta_m_min=-TWO_PI * 70.0,
        delta_m_max=-TWO_PI * 25.0, delta_m_count=2,
        base=narrowline_params(g=g, kerr=0.0, gamma_sat=TWO_PI * 1e-305))


SOLVE_GRIDS = {
    **ACTIVE_GRIDS,
    "n0_axis_no_saturation": lambda: GridSpec(
        system="active", x_axis="n0", x_min=1e9, x_max=1e15, x_count=2,
        delta_m_min=-TWO_PI * 100.0, delta_m_max=TWO_PI * 100.0,
        delta_m_count=2, base=broadline_params(gamma_sat=0.0, gain=0.0)),
    "passive": WORKER_GRIDS["passive"],
    "passive_degenerate": lambda: GridSpec(
        system="passive", x_axis="n0", x_min=1e9, x_max=1e12, x_count=2,
        delta_m_min=-1.0, delta_m_max=1.0, delta_m_count=2,
        base=SystemParams(kappa=0.0, gamma=TWO_PI * 10.0, g=TWO_PI * 5.0)),
    "saturation_overflow": lambda: _saturation_overflow_grid(TWO_PI * 25.0),
    "saturation_overflow_uncoupled": lambda: _saturation_overflow_grid(0.0),
    "passive_overflowing": lambda: GridSpec(
        system="passive", x_axis="n0", x_min=1e9, x_max=1e12, x_count=2,
        delta_m_min=-1.0, delta_m_max=1.0, delta_m_count=2,
        base=broadline_params(kappa=1e200)),
}

SOLVE_ERRORS = {
    "no_saturation":
        "ValueError: active model needs gamma_sat > 0 to saturate",
    "n0_axis_no_saturation":
        "ValueError: degenerate mapping: gamma_sat must be > 0",
    "passive_degenerate": "ValueError: degenerate mapping: kappa and "
                          "delta_c both zero, so n0 sets no drive",
    "passive_overflowing": "ConditioningError: bare cavity: ",
    "saturation_overflow": "ConditioningError: saturated cavity: G_eff / "
                           "gamma_sat overflows (G_eff = ",
    "saturation_overflow_uncoupled": "ConditioningError: saturated cavity: "
                                     "G_eff / gamma_sat overflows (G_eff = ",
}


@pytest.mark.parametrize("name", sorted(SOLVE_GRIDS))
def test_solve_cells_matches_one_point_solves(name):
    """Points off the grid get the counts and error texts of one-point
    solves with the grid's system, axis and base parameters."""
    grid = SOLVE_GRIDS[name]()
    rng = np.random.default_rng(45)
    u, v = rng.random((2, 40))
    if grid.x_axis == "n0":
        x = grid.x_min * (grid.x_max / grid.x_min) ** u
    else:
        x = grid.x_min + (grid.x_max - grid.x_min) * u
    delta_m = grid.delta_m_min + (grid.delta_m_max - grid.delta_m_min) * v
    counts, errors = phasemap.solve_cells(grid, x, delta_m)
    assert counts.shape == (4, x.size)
    for k in range(x.size):
        ns, nu, nm, total, err = _enumerate_point(grid, x[k], delta_m[k])
        assert errors.get(k) == err, f"point {k}"
        assert tuple(counts[:, k]) == (ns, nu, nm, total), f"point {k}"
    if name in SOLVE_ERRORS:
        assert len(errors) == x.size
        assert all(e.startswith(SOLVE_ERRORS[name]) for e in errors.values())
    else:
        assert not errors and counts[3].any()


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


@pytest.mark.parametrize("name", ["active", "passive"])
def test_map_verdicts_solve_no_eigenvalues(name, monkeypatch):
    """Map cells are classified by the Hurwitz test alone: an
    eigenvalue solve anywhere but the root finder's companion matrices
    fails the run. Passive point errors are caught per point, so they
    show as error texts."""
    eigvals = np.linalg.eigvals
    roots = steady._real_roots.__code__

    def roots_only(mat):
        if sys._getframe(1).f_code is not roots:
            raise AssertionError("eigenvalue solve outside the root finder")
        return eigvals(mat)

    monkeypatch.setattr(np.linalg, "eigvals", roots_only)
    fp = active_fixed_points(narrowline_params())[0]
    with pytest.raises(AssertionError, match="outside the root finder"):
        spectrum(fp, narrowline_params())  # the guard is live
    grid = WORKER_GRIDS[name]()
    x = np.tile(grid.x_values(), grid.delta_m_count)
    delta_m = np.repeat(grid.delta_m_values(), grid.x_count)
    counts, errors = phasemap.solve_cells(grid, x, delta_m)
    assert errors == {}
    assert counts[0].any() and counts[1].any()
