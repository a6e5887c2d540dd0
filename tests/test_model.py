"""Equations of motion, drive conversion, and amplitude rescaling."""

import math
import warnings

import numpy as np
import pytest

from _cases import broadline_params, narrowline_params
from _oracles import complex_field
from magpol.errors import ConditioningError
from magpol.model import (TWO_PI, DriveSpec, SystemParams,
                          bare_cavity_photons, batch_rates, eta_from_power,
                          power_from_drive, saturated_photons,
                          vector_field)

# Frozen conversion at P = 1 uW, omega_d = 2pi x 3 GHz, critical
# coupling kappa_ext = kappa/2 with kappa = 2pi x 1.5 MHz.
FLUX_PER_US = 503063393522.28723
ETA_1UW = 1539685.160047129
N0_1UW = 106753367690.20717


def drive_port_params(**over):
    kw = dict(kappa_ext=TWO_PI * 0.75, omega_d=TWO_PI * 3.0e3)
    kw.update(over)
    return broadline_params(**kw)


def test_quiescent_system_stays_quiescent():
    da, dm = complex_field(broadline_params(), DriveSpec(eta=0.0))(0j, 0j)
    assert da == 0 and dm == 0


def test_drive_enters_photon_mode_only():
    da, dm = complex_field(broadline_params(), DriveSpec(eta=3.5))(0j, 0j)
    assert da == 3.5 + 0j
    assert dm == 0


def test_decoupled_linear_cavity():
    p = broadline_params(g=0.0, kerr=0.0, delta_c=TWO_PI * 2.0)
    a = 0.3 - 0.7j
    da, dm = complex_field(p, DriveSpec(eta=1.1))(a, 0j)
    assert da == pytest.approx(-(0.5 * p.kappa + 1j * p.delta_c) * a + 1.1)
    assert dm == 0


def test_passive_kerr_term():
    p = broadline_params(kerr=TWO_PI * 0.25, delta_m=TWO_PI * 4.0)
    m = 1.5 + 0.5j
    _, dm = complex_field(p, DriveSpec(eta=0.0))(0j, m)
    shift = p.delta_m + p.kerr * abs(m) ** 2
    assert dm == pytest.approx(-(0.5 * p.gamma + 1j * shift) * m)


def test_vdp_limit_cycle_amplitude_is_stationary():
    p = narrowline_params(g=0.0)
    a = math.sqrt(p.gain_eff / p.gamma_sat) * np.exp(0.37j)
    da, _ = complex_field(p)(a, 0j)
    assert abs(da) < 1e-9 * abs(a) * p.rate_scale()


def test_coupling_pulls_photon_mode():
    p = narrowline_params()
    m0 = 0.8 - 0.2j
    da, _ = complex_field(p)(0j, m0)
    assert da == pytest.approx(-1j * p.g * m0)


def test_gain_absorbed_flag():
    raw = narrowline_params(kappa=TWO_PI * 1.5, gain_absorbed=False)
    assert raw.gain_eff == pytest.approx(raw.gain - 0.5 * raw.kappa)
    eff = narrowline_params()
    assert eff.gain_eff == eff.gain


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(kappa=-1.0)
    with pytest.raises(ValueError):
        SystemParams(gamma=np.inf)
    with pytest.raises(ValueError):
        SystemParams(g=-2.0)
    with pytest.raises(ValueError):
        SystemParams(kappa=1.0, kappa_ext=2.0)
    with pytest.raises(ValueError):
        DriveSpec(eta=-1.0)


def test_power_conversion_frozen_values():
    p = drive_port_params()
    drive = eta_from_power(1e-6, p)
    assert drive.eta ** 2 / p.kappa_ext == pytest.approx(FLUX_PER_US,
                                                         rel=1e-12)
    assert drive.eta == pytest.approx(ETA_1UW, rel=1e-12)
    kappa = TWO_PI * 1.5
    n0 = drive.eta ** 2 / (0.5 * kappa) ** 2
    assert n0 == pytest.approx(N0_1UW, rel=1e-12)


def test_power_conversion_edge_cases():
    p = drive_port_params()
    assert eta_from_power(0.0, p).eta == 0.0
    d1 = eta_from_power(1e-6, p)
    d2 = eta_from_power(2e-6, p)
    assert d2.eta == pytest.approx(math.sqrt(2.0) * d1.eta, rel=1e-14)
    with pytest.raises(ValueError):
        eta_from_power(-1e-6, p)
    with pytest.raises(ValueError):
        eta_from_power(1e-6, broadline_params())  # no port configured


def test_power_round_trip():
    p = drive_port_params()
    rng = np.random.default_rng(11)
    for _ in range(20):
        power = 10.0 ** rng.uniform(-9, -3)
        drive = eta_from_power(power, p)
        assert power_from_drive(drive, p) == pytest.approx(power, rel=1e-12)


def test_rhs_gives_the_same_bits_on_floats_and_arrays():
    """The integrator calls the rhs on floats, the Newton polish on
    arrays; both must see the same equations to the last bit."""
    rng = np.random.default_rng(75)
    x = 10.0 ** rng.uniform(-3, 3, size=(4, 32)) * rng.normal(size=(4, 32))
    for p, drive in ((broadline_params(delta_c=TWO_PI * 3.0,
                                       delta_m=TWO_PI * (-7.0)),
                      DriveSpec(eta=2.5)),
                     (narrowline_params(delta_m=TWO_PI * (-30.0)), None)):
        rhs = vector_field(p, drive)
        got = rhs(*x)
        for k in range(x.shape[1]):
            ref = rhs(*(float(v) for v in x[:, k]))
            assert all(type(r) is float for r in ref)
            assert [float(c[k]) for c in got] == list(ref)


def test_active_rhs_checks_every_delta_c_of_a_batch():
    """The active frame is pinned to the gain center: a batch whose
    delta_c are all 0 evaluates as the float rates do, and a nonzero
    delta_c anywhere in it is rejected."""
    p = narrowline_params(delta_m=TWO_PI * (-30.0))
    x = (0.3, -0.2, 0.1, 0.4)
    zero = batch_rates(p, delta_c=np.zeros(3))
    assert vector_field(zero)(*x) == vector_field(p)(*x)
    for dc in (1.0, np.array([0.0, 1.0, 0.0])):
        with pytest.raises(ValueError,
                           match="active model requires delta_c == 0"):
            vector_field(batch_rates(p, delta_c=dc))


def test_rescaled_rhs_is_original_over_s():
    """rhs at (a/s, m/s) with ``Rates.rescale(s)`` and drive eta/s equals
    1/s times the original rhs at (a, m); 40 draws, then one batch of
    array-valued rates with one scale per member."""
    rng = np.random.default_rng(23)
    for _ in range(40):
        active = rng.random() < 0.5
        if active:
            p = SystemParams(
                gamma=TWO_PI * rng.uniform(2, 30),
                g=TWO_PI * rng.uniform(0, 40),
                kerr=TWO_PI * rng.uniform(-1, 1) * 10.0 ** rng.uniform(-13, -11),
                delta_m=TWO_PI * rng.uniform(-100, 100),
                gain=TWO_PI * rng.uniform(0.5, 30),
                gamma_sat=TWO_PI * 10.0 ** rng.uniform(-13, -11))
            drive = None
        else:
            p = SystemParams(
                kappa=TWO_PI * rng.uniform(0.5, 5),
                gamma=TWO_PI * rng.uniform(2, 30),
                g=TWO_PI * rng.uniform(0, 40),
                kerr=TWO_PI * rng.uniform(-1, 1) * 10.0 ** rng.uniform(-15, -12),
                delta_c=TWO_PI * rng.uniform(-100, 100),
                delta_m=TWO_PI * rng.uniform(-100, 100))
            drive = DriveSpec(eta=10.0 ** rng.uniform(3, 8))
        amp = 10.0 ** rng.uniform(2, 7)
        a = amp * complex(rng.normal(), rng.normal())
        m = amp * complex(rng.normal(), rng.normal())
        s = 10.0 ** rng.uniform(-3, 6)
        drive_s = None if active else DriveSpec(eta=drive.eta / s)
        ref = complex_field(p, drive)(a, m)
        got = complex_field(batch_rates(p).rescale(s), drive_s)(a / s, m / s)
        for r, q in zip(ref, got):
            assert q == pytest.approx(r / s, rel=1e-12, abs=1e-300)

    p = narrowline_params()
    s = 10.0 ** rng.uniform(-3, 6, size=8)
    rates = batch_rates(p, delta_m=TWO_PI * rng.uniform(-100, 100, size=8))
    a = 1e5 * (rng.normal(size=8) + 1j * rng.normal(size=8))
    m = 1e5 * (rng.normal(size=8) + 1j * rng.normal(size=8))
    scaled = rates.rescale(s)
    assert np.array_equal(scaled.kerr, p.kerr * s * s)
    assert np.array_equal(scaled.gamma_sat, p.gamma_sat * s * s)
    ref = complex_field(rates)(a, m)
    got = complex_field(scaled)(a / s, m / s)
    for r, q in zip(ref, got):
        np.testing.assert_allclose(q, r / s, rtol=1e-12, atol=1e-300)


def test_rate_scale_covers_dominant_rate():
    p = broadline_params(delta_m=TWO_PI * 500.0)
    assert p.rate_scale() == TWO_PI * 500.0
    assert type(p.rate_scale()) is float
    assert SystemParams().rate_scale() > 0


def test_bare_cavity_photons():
    p = broadline_params(delta_c=TWO_PI * 2.0)
    denom = (0.5 * p.kappa) ** 2 + p.delta_c ** 2
    assert bare_cavity_photons(p, 3.0e6) == (3.0e6 ** 2 / denom, denom)
    assert bare_cavity_photons(p) == (0.0, denom)
    # undamped resonant cavity: no photon number, the callers decide
    assert bare_cavity_photons(SystemParams(), 1.0) == (0.0, 0.0)
    # underflow is not an error; the passive solve rejects it itself
    assert bare_cavity_photons(p, 1e-200) == (0.0, denom)
    for params, eta in ((broadline_params(kappa=1e200), 1e3),
                        (p, 1e300), (broadline_params(kappa=1e-160), 1e3),
                        (broadline_params(delta_c=1e155), 0.0)):
        with pytest.raises(ConditioningError, match="overflows"):
            bare_cavity_photons(params, eta)


def test_occupation_scales_of_numpy_scalars_do_not_warn():
    """numpy-scalar rates, as a map axis hands them over, overflow into
    the same ConditioningError as Python floats, with no numpy warning."""
    cases = ((bare_cavity_photons, SystemParams(kappa=1.0, gamma=1.0, g=1.0,
                                                delta_c=-3e171), (1.0,)),
             (bare_cavity_photons, SystemParams(kappa=1e200), (1.0,)),
             (bare_cavity_photons, SystemParams(kappa=1e-160), (1e3,)),
             (saturated_photons, SystemParams(gain=1e20, gamma_sat=1e-305),
              ()))
    for scale, params, args in cases:
        with pytest.raises(ConditioningError) as floats:
            scale(params, *args)
        scalars = SystemParams(**{
            k: np.float64(v) if type(v) is float else v
            for k, v in vars(params).items()})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError) as numpy_scalars:
                scale(scalars, *map(np.float64, args))
        assert str(numpy_scalars.value) == str(floats.value)


def test_saturated_photons():
    p = narrowline_params()
    assert saturated_photons(p) == p.gain_eff / p.gamma_sat
    assert saturated_photons(p.replace(gain=-p.gain)) < 0  # below threshold
    assert saturated_photons(p.replace(gamma_sat=0.0)) == 0.0
    for over in (dict(gain=1e20, gamma_sat=1e-305),
                 dict(gain=-1.5e308, kappa=1.5e308, gain_absorbed=False)):
        with pytest.raises(ConditioningError, match="G_eff / gamma_sat "
                                                    "overflows"):
            saturated_photons(p.replace(**over))


def test_saturated_photons_of_a_batch():
    """Elementwise over a ``Rates`` of arrays: an overflowing member is
    recorded with the text a one-point call raises, the others get
    their one-point values, and numpy warns about nothing. A one-point
    value has the type of ``bare_cavity_photons``' n0. (That the RK4
    loop still steps in Python floats is checked in test_dynamics: the
    runaway of the numpy-scalar dt test takes its scale from here.)"""
    p = narrowline_params()
    points = [p, p.replace(gain=1e20, gamma_sat=1e-305),
              p.replace(gain=-p.gain), p.replace(gamma_sat=0.0)]
    batch = batch_rates(p, gain_eff=np.array([q.gain_eff for q in points]),
                        gamma_sat=np.array([q.gamma_sat for q in points]))
    errors = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n_sat = saturated_photons(batch, errors)
    assert list(errors) == [1]
    assert str(errors[1]) == (
        "saturated cavity: G_eff / gamma_sat overflows (G_eff = "
        "1.000000e+20, gamma_sat = 1.000000e-305 rad/us)")
    with pytest.raises(ConditioningError) as one:
        saturated_photons(points[1])
    assert str(one.value) == str(errors[1])
    assert np.isfinite(n_sat[[0, 2, 3]]).all()
    for k in (0, 2, 3):
        assert n_sat[k] == saturated_photons(points[k])
    assert type(saturated_photons(p)) is type(bare_cavity_photons(p, 1.0)[0])
