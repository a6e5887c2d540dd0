"""Exact symmetries of the steady-state solves, on the acceptance maps.

Both are exact in floating point, so they pin the solvers' arithmetic
without a tolerance, map by map (active maps in full, passive maps on
every 5th detuning row, in ranges of ``phasemap.BLOCK`` cells):

- *Rate scaling* is a change of time unit. With every rate, the drive
  and the gain times 2^k, the counts, verdicts and amplitudes a0 and m0
  stay bit for bit, and omega and the residual scale by exactly 2^k.
- *Conjugation.* Negating delta_m, kerr and (passive) delta_c maps a
  fixed point (a0, m0, omega) to (a0*, -m0*, -omega): the conjugate of
  the equations with m -> -m. Counts and verdicts stay. Passive images
  are exact. Active images agree to the 1e-7 of ``_merge_duplicates``:
  of two copies of one point within that tolerance it keeps the first
  in omega order, which the mirror reverses. Measured, they agree to
  2e-15 relative on the gain map and 1.7e-9 on the photon-number map.
"""

import numpy as np
import pytest

from _cases import ACCEPTANCE_GRIDS
from magpol.model import Rates, batch_rates
from magpol.phasemap import BLOCK, n0_to_drive_passive, n0_to_gain_active
from magpol.stability import classify
from magpol.steady import active_fixed_points, passive_fixed_points


def _ranges(name):
    """(rates, eta) of the map's cells as ``phasemap.solve_cells``
    builds them, range by range; ``eta`` is None for active maps."""
    grid = ACCEPTANCE_GRIDS[name]
    step = 5 if grid.system == "passive" else 1
    delta_m = np.repeat(grid.delta_m_values()[::step], grid.x_count)
    x = np.tile(grid.x_values(), delta_m.size // grid.x_count)
    base = grid.base
    for lo in range(0, x.size, BLOCK):
        dm, xs = delta_m[lo:lo + BLOCK], x[lo:lo + BLOCK]
        if grid.system == "passive":
            yield (batch_rates(base, delta_m=dm),
                   n0_to_drive_passive(xs, base))
        else:
            gain = xs if grid.x_axis == "gain" else n0_to_gain_active(xs,
                                                                      base)
            yield batch_rates(base, delta_c=0.0, delta_m=dm,
                              gain_eff=gain), None


def _solve(cells, eta):
    """A range's points and their verdicts; no cell may fail."""
    sol = active_fixed_points(cells) if eta is None \
        else passive_fixed_points(cells, eta)
    code, errors = classify(sol, cells.take(sol.cell))
    assert not sol.errors and not errors
    return sol, code


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_GRIDS))
def test_rate_scaling_and_conjugation_are_exact(name):
    for cells, eta in _ranges(name):
        ref, code = _solve(cells, eta)
        assert ref.cell.size > 0
        for k in (-200, -60, -30, 30, 60, 200):
            f = 2.0 ** k
            sol, verdicts = _solve(Rates(*(v * f for v in cells)),
                                   None if eta is None else eta * f)
            assert np.array_equal(sol.cell, ref.cell), k
            assert np.array_equal(verdicts, code), k
            for field in ("a0", "m0"):
                assert getattr(sol, field).tobytes() == \
                    getattr(ref, field).tobytes(), (k, field)
            for field in ("omega", "residual"):
                assert getattr(sol, field).tobytes() == \
                    (getattr(ref, field) * f).tobytes(), (k, field)

        mirror = cells._replace(
            delta_m=-cells.delta_m, kerr=-cells.kerr,
            delta_c=cells.delta_c if eta is None else -cells.delta_c)
        sol, verdicts = _solve(mirror, eta)
        a0, m0, omega = ref.a0.conj(), -ref.m0.conj(), -ref.omega
        order = np.lexsort((np.abs(m0) ** 2, omega, ref.cell))
        a0, m0, omega = a0[order], m0[order], omega[order]
        assert np.array_equal(sol.cell, ref.cell[order])
        assert np.array_equal(verdicts, code[order])
        if eta is not None:
            assert sol.a0.tobytes() == a0.tobytes()
            assert sol.m0.tobytes() == m0.tobytes()
            assert np.array_equal(sol.omega, omega)  # 0 and -0
        else:
            rate = cells.take(sol.cell).rate_scale()
            assert np.all(np.abs(sol.a0 - a0) <= 1e-7 * np.abs(a0))
            assert np.all(np.abs(sol.m0 - m0) <= 1e-7 * np.abs(m0))
            assert np.all(np.abs(sol.omega - omega) <= 1e-7 * np.maximum(
                np.abs(omega), 1e-3 * rate))
