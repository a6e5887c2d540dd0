"""Config parsing: every rejection names its JSON path and its rule."""

import copy
import json

import pytest

from magpol.config import load_config, parse_run
from magpol.errors import ConfigError

SWEEP = {
    "format_version": 1,
    "system": {
        "kind": "active",
        "gamma_mhz_over_2pi": 10.3,
        "g_mhz_over_2pi": 25.0,
        "kerr_uhz_over_2pi": 3.2,
        "gamma_sat_uhz_over_2pi": 0.8,
        "gain_mhz_over_2pi": 15.45,
    },
    "sweep": {
        "detuning_start_mhz_over_2pi": -60.0,
        "detuning_stop_mhz_over_2pi": -50.0,
        "steps": 4,
        "t_total_us": 1.0,
        "t_drop_us": 0.25,
    },
}

PASSIVE_POINT = {
    "format_version": 1,
    "system": {
        "kind": "passive",
        "kappa_mhz_over_2pi": 1.5,
        "gamma_mhz_over_2pi": 16.5,
        "g_mhz_over_2pi": 30.0,
        "kerr_nhz_over_2pi": 9.8,
        "delta_c_mhz_over_2pi": 80.0,
    },
    "drive": {"n0": 1e14},
}

N0_GRID = {
    "format_version": 1,
    "system": PASSIVE_POINT["system"],
    "grid": {
        "x_axis": "n0",
        "n0_min": 1e13,
        "n0_max": 1e15,
        "x_count": 3,
        "delta_m_min_mhz_over_2pi": -100.0,
        "delta_m_max_mhz_over_2pi": -60.0,
        "delta_m_count": 3,
    },
}

GAIN_GRID = {
    "format_version": 1,
    "system": {k: v for k, v in SWEEP["system"].items()
               if k != "gain_mhz_over_2pi"},
    "grid": {
        "x_axis": "gain",
        "gain_min_mhz_over_2pi": 10.0,
        "gain_max_mhz_over_2pi": 20.0,
        "x_count": 3,
        "delta_m_min_mhz_over_2pi": -100.0,
        "delta_m_max_mhz_over_2pi": -60.0,
        "delta_m_count": 3,
    },
}


def _command(doc):
    if "grid" in doc:
        return "phase-diagram"
    return "sweep" if "sweep" in doc else "fixed-points"


def _set(doc, path, value):
    """A deep copy of ``doc`` with ``path`` ('block.key') set."""
    doc = copy.deepcopy(doc)
    *blocks, key = path.split(".")
    target = doc
    for name in blocks:
        target = target[name]
    target[key] = value
    return doc


# (base document, key to set, value, JSON path, message fragment)
REJECTIONS = {
    "number": (SWEEP, "system.gamma_mhz_over_2pi", "10",
               "$.system.gamma_mhz_over_2pi", "expected a number, got str"),
    "integer": (SWEEP, "sweep.steps", 2.5, "$.sweep.steps",
                "expected an integer, got float"),
    "boolean": (SWEEP, "sweep.memory_state", "yes", "$.sweep.memory_state",
                "expected true/false, got str"),
    "string": (SWEEP, "system.kind", 5, "$.system.kind",
               "expected a string, got int"),
    "infinite": (SWEEP, "system.g_mhz_over_2pi", float("inf"),
                 "$.system.g_mhz_over_2pi", "must be finite, got inf"),
    "integer_beyond_float": (SWEEP, "system.gamma_mhz_over_2pi", 10 ** 400,
                             "$.system.gamma_mhz_over_2pi",
                             "must be finite, got an integer too large"),
    "choice": (SWEEP, "system.kind", "hybrid", "$.system.kind",
               "must be one of ['active', 'passive'], got 'hybrid'"),
    "upper_bound": (SWEEP, "sweep.fit_fraction", 2.0, "$.sweep.fit_fraction",
                    "must be <= 1.0, got 2.0"),
    "object": (SWEEP, "system", 5, "$.system",
               "expected an object, got int"),
    "one_drive": (PASSIVE_POINT, "drive.power_uw", 1.0, "$.drive",
                  "exactly one of n0, power_uw, eta_per_us is required, "
                  "got ['n0', 'power_uw']"),
    "n0_bounds": (GAIN_GRID, "grid.n0_min", 1e13, "$.grid.n0_min",
                  "n0 bounds belong to the n0 axis"),
    "gain_bounds": (N0_GRID, "grid.gain_min_mhz_over_2pi", 1.0,
                    "$.grid.gain_min_mhz_over_2pi",
                    "gain bounds belong to the gain axis"),
    "nested_too_deep": (SWEEP, "system.kind",
                        json.loads("[" * 900 + "]" * 900), "$",
                        "nesting too deep"),
    "integer_lower_bound": (N0_GRID, "grid.x_count", 1, "$.grid.x_count",
                            "must be >= 2, got 1"),
    "number_lower_bound": (SWEEP, "sweep.t_drop_us", -1.0,
                           "$.sweep.t_drop_us", "must be >= 0.0, got -1.0"),
    "active_delta_c": (SWEEP, "system.delta_c_mhz_over_2pi", 1.0,
                       "$.system", "the active model is defined in the "
                                   "oscillator frame, delta_c must be 0"),
    "gamma_sat_zero": (SWEEP, "system.gamma_sat_uhz_over_2pi", 0.0,
                       "$.system", "gamma_sat must be positive"),
    "active_drive": (SWEEP, "drive", {"n0": 1e12}, "$.drive",
                     "the active model has no external drive"),
    "spectrogram_band_order": (SWEEP, "spectrogram",
                               {"f_min_mhz": 10.0, "f_max_mhz": 10.0},
                               "$.spectrogram",
                               "f_min_mhz must be < f_max_mhz"),
    # library constructors: their ValueError at the block's path
    "kappa_ext": (PASSIVE_POINT, "system.kappa_ext_mhz_over_2pi", 2.0,
                  "$.system", "kappa_ext must lie in [0, kappa]"),
    "power_without_omega_d": (PASSIVE_POINT, "drive", {"power_uw": 1.0},
                              "$.drive", "omega_d must be > 0 to convert "
                              "power to flux"),
    "delta_m_order": (N0_GRID, "grid.delta_m_min_mhz_over_2pi", -50.0,
                      "$.grid", "delta_m_min must be < delta_m_max"),
    "x_order": (N0_GRID, "grid.n0_min", 1e16, "$.grid",
                "x_min must be < x_max"),
    "t_drop_order": (SWEEP, "sweep.t_drop_us", 1.0, "$.sweep",
                     "need 0 <= t_drop < t_total"),
    "window_too_short": (SWEEP, "sweep.t_drop_us", 0.99, "$.sweep",
                         "fewer than 16 samples would survive t_drop"),
    "fit_too_short": (SWEEP, "sweep",
                      dict(SWEEP["sweep"], t_total_us=8.0, t_drop_us=3.0,
                           fit_fraction=0.001),
                      "$.sweep", "fit_fraction 0.001 fits fewer than 8 of "
                                 "5001 samples"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_parse_run_rejections(case):
    base, key, value, path, fragment = REJECTIONS[case]
    with pytest.raises(ConfigError) as info:
        parse_run(_set(base, key, value), _command(base))
    assert str(info.value).startswith(f"{path}: "), str(info.value)
    assert fragment in str(info.value)


@pytest.mark.parametrize("base", [SWEEP, PASSIVE_POINT, N0_GRID, GAIN_GRID],
                         ids=["sweep", "passive_point", "n0_grid",
                              "gain_grid"])
def test_base_documents_parse(base):
    """The rejections above fail on their one change alone."""
    assert parse_run(base, _command(base)).resolved


# file contents load_config rejects, and the message fragment
FILES = {
    "syntax": (b'{"format_version": 1,', "invalid JSON: Expecting"),
    "not_utf8": (b"\xff\xfe{", "invalid JSON: 'utf-8' codec can't decode"),
    "nested_too_deep": (b"[" * 200_000 + b"]" * 200_000,
                        "invalid JSON: maximum recursion depth"),
    "integer_past_digit_limit": (b'{"format_version": 1' + b"0" * 5000 + b"}",
                                 "invalid JSON: Exceeds the limit"),
    "top_level_array": (b"[1, 2]", "top level must be an object"),
}


@pytest.mark.parametrize("case", sorted(FILES))
def test_load_config_rejections(tmp_path, case):
    content, fragment = FILES[case]
    path = tmp_path / "run.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert str(info.value).startswith(f"{path}: "), str(info.value)
    assert fragment in str(info.value)


def test_load_config_missing_file(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(ConfigError, match="no such file") as info:
        load_config(str(path))
    assert str(info.value).startswith(f"{path}: ")


def test_load_config_reads_utf8(tmp_path):
    path = tmp_path / "run.json"
    path.write_bytes('{"out": "résultats"}'.encode("utf-8"))
    assert load_config(str(path)) == {"out": "résultats"}
