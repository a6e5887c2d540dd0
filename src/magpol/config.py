"""Strict JSON run configurations with explicit unit keys.

Every physical quantity in a config carries its unit in the key name.
Angular rates and detunings use ``{name}_{unit}_over_2pi`` with the
unit one of hz, khz, mhz, ghz, uhz, nhz: the value is an ordinary
frequency and is multiplied by 2 pi on the way to the solver's rad/us.
Times are ``_us``, powers ``_uw``, photon numbers plain counts.

Parsing is strict: unknown keys, missing required keys, conflicting
unit variants of the same quantity, wrong types, and out-of-range
values are all ConfigError with the JSON path of the offending field.

``parse_run`` returns both the solver-ready objects and a resolved
copy of the document with every applied default materialized. The
resolved form is what run manifests contain, written by the CLI's one
JSON writer, the one that writes its JSON artifacts. It is a fixpoint:
parsing a manifest resolves to itself, which is what makes re-running
a manifest reproduce the original outputs byte for byte.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SweepProtocol, default_seed_state
from .errors import ConditioningError, ConfigError
from .model import TWO_PI, DriveSpec, ModeState, SystemParams, eta_from_power
from .phasemap import GridSpec, n0_to_drive_passive
from .spectral import spectrum_freqs

FORMAT_VERSION = 1

COMMANDS = ("fixed-points", "phase-diagram", "sweep", "fit-s11", "fit-kittel")

# ordinary-frequency unit suffix -> factor to rad/us
_ANGULAR_UNITS = {
    "hz": TWO_PI * 1e-6,
    "khz": TWO_PI * 1e-3,
    "mhz": TWO_PI,
    "ghz": TWO_PI * 1e3,
    "uhz": TWO_PI * 1e-12,
    "nhz": TWO_PI * 1e-15,
}

# Most grid cells or sweep steps. Arrays sized by them hold up to 8
# bytes per element, and numpy raises ValueError, not MemoryError, for
# an array of more bytes than an index can count.
_MAX_COUNT = np.iinfo(np.intp).max // 8


class _Block:
    """One JSON object under validation; tracks which keys were read."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected an object, got "
                              f"{type(data).__name__}")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def _fetch(self, key: str, required: bool, default, types,
               expected: str):
        """The value of ``key``, else ``default`` (materialized), checked
        to be one of ``types`` unless None; a bool counts only where
        ``types`` is bool."""
        self.seen.add(key)
        if key in self.data:
            v = self.data[key]
        elif required:
            raise ConfigError(f"{self.path}.{key}: missing required key")
        else:
            v = default
            if default is not None:
                self.data[key] = default
        if v is not None and (not isinstance(v, types) or
                              isinstance(v, bool) and types is not bool):
            raise ConfigError(f"{self.path}.{key}: expected {expected}, got "
                              f"{type(v).__name__}")
        return v

    def _bounded(self, key: str, v, lo, hi, lo_open: bool = False):
        if lo is not None and (v <= lo if lo_open else v < lo):
            op = ">" if lo_open else ">="
            raise ConfigError(f"{self.path}.{key}: must be {op} {lo}, "
                              f"got {v}")
        if hi is not None and v > hi:
            raise ConfigError(f"{self.path}.{key}: must be <= {hi}, got {v}")
        return v

    def number(self, key: str, *, required: bool = False, default=None,
               lo=None, hi=None, lo_open: bool = False) -> float | None:
        v = self._fetch(key, required, default, (int, float), "a number")
        if v is None:
            return None
        try:
            v = float(v)
        except OverflowError:  # an integer literal beyond any float
            raise ConfigError(f"{self.path}.{key}: must be finite, got an "
                              f"integer too large for a float") from None
        if not math.isfinite(v):
            raise ConfigError(f"{self.path}.{key}: must be finite, got {v}")
        return self._bounded(key, v, lo, hi, lo_open)

    def integer(self, key: str, *, required: bool = False, default=None,
                lo=None, hi=None) -> int | None:
        v = self._fetch(key, required, default, int, "an integer")
        return None if v is None else self._bounded(key, v, lo, hi)

    def boolean(self, key: str, *, required: bool = False,
                default=None) -> bool | None:
        return self._fetch(key, required, default, bool, "true/false")

    def string(self, key: str, *, choices=None, required: bool = False,
               default=None) -> str | None:
        v = self._fetch(key, required, default, str, "a string")
        if v is not None and choices is not None and v not in choices:
            raise ConfigError(f"{self.path}.{key}: must be one of "
                              f"{sorted(choices)}, got {v!r}")
        return v

    def angular(self, base: str, *, required: bool = False, default=None,
                lo=None, lo_open: bool = False) -> float:
        """Read `{base}_{unit}_over_2pi` in any unit; returns rad/us.

        ``default`` and the bound ``lo`` are rad/us (``lo_open``
        excludes ``lo``); a key that is not ``required`` needs a
        ``default``. A materialized default is written under the mhz
        key.
        """
        hits = [u for u in _ANGULAR_UNITS
                if f"{base}_{u}_over_2pi" in self.data]
        if len(hits) > 1:
            keys = [f"{base}_{u}_over_2pi" for u in hits]
            raise ConfigError(f"{self.path}: conflicting unit variants for "
                              f"{base}: {', '.join(sorted(keys))}")
        if not hits:
            if required:
                raise ConfigError(
                    f"{self.path}.{base}_mhz_over_2pi: missing required key "
                    f"(any of the unit suffixes "
                    f"{sorted(_ANGULAR_UNITS)} is accepted)")
            self.data[f"{base}_mhz_over_2pi"] = default / TWO_PI
            self.seen.add(f"{base}_mhz_over_2pi")
            return default
        unit = hits[0]
        key = f"{base}_{unit}_over_2pi"
        raw = self.number(key, required=True)
        value = raw * _ANGULAR_UNITS[unit]
        if lo is not None and (value <= lo if lo_open else value < lo):
            bound = f"must be > {lo}" if lo_open else f"below the minimum {lo}"
            raise ConfigError(f"{self.path}.{key}: {raw} maps to {value} "
                              f"rad/us, {bound}")
        return value

    def forbid_angular(self, base: str, why: str) -> None:
        for u in _ANGULAR_UNITS:
            if f"{base}_{u}_over_2pi" in self.data:
                raise ConfigError(
                    f"{self.path}.{base}_{u}_over_2pi: {why}")

    def make(self, factory, /, *args, **kwargs):
        """``factory(*args, **kwargs)``, its ValueError a ConfigError at
        this block's path. Map only the call itself: ConfigError and
        ConditioningError are ValueErrors too."""
        try:
            return factory(*args, **kwargs)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {exc}") from None

    def block(self, key: str, *, required: bool = False,
              create: bool = False) -> "_Block | None":
        self.seen.add(key)
        if key not in self.data:
            if required:
                raise ConfigError(f"{self.path}.{key}: missing required "
                                  f"block")
            if not create:
                return None
            self.data[key] = {}
        return _Block(self.data[key], f"{self.path}.{key}")

    def finish(self) -> None:
        unknown = sorted(set(self.data) - self.seen)
        if unknown:
            raise ConfigError(f"{self.path}: unknown key(s): "
                              f"{', '.join(unknown)}")


@dataclass
class RunConfig:
    """Validated run: solver-ready objects plus the resolved document.

    ``resolved`` carries every default materialized and no ``out``
    key; dumping it (sorted keys) is the manifest body. Only the
    fields relevant to ``command`` are populated.
    """

    command: str
    out: str | None
    resolved: dict
    kind: str | None = None
    system: SystemParams | None = None
    drive: DriveSpec | None = None
    grid: GridSpec | None = None
    protocol: SweepProtocol | None = None
    initial_state: ModeState | None = None
    spectrogram: dict | None = None
    data_csv: str | None = None


def load_config(path: str) -> dict:
    """Read a JSON config file; errors carry the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file") from None
    except (ValueError, RecursionError) as exc:
        # ValueError: bad syntax, bytes that are not UTF-8, an integer
        # past the digit limit; RecursionError: nesting too deep
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def _parse_system(blk: _Block, command: str,
                  x_axis: str | None = None) -> tuple[str, SystemParams]:
    kind = blk.string("kind", choices=("passive", "active"), required=True)
    if command in ("phase-diagram", "sweep"):
        axis_owner = "grid" if command == "phase-diagram" else "sweep"
        blk.forbid_angular("delta_m", f"the detuning is set by the "
                                      f"{axis_owner} block, not the system")
        delta_m = 0.0
    else:
        delta_m = blk.angular("delta_m", default=0.0)

    kerr = blk.angular("kerr", default=0.0)
    # the active steady-state solve needs damping; sweeps only integrate
    gamma = blk.angular("gamma", required=True, lo=0.0,
                        lo_open=kind == "active" and command != "sweep")
    g = blk.angular("g", required=True, lo=0.0)

    if kind == "passive":
        blk.forbid_angular("gain", "passive systems have no gain")
        blk.forbid_angular("gamma_sat", "passive systems have no gain")
        kappa = blk.angular("kappa", required=True, lo=0.0)
        delta_c = blk.angular("delta_c", default=0.0)
        kappa_ext = blk.angular("kappa_ext", default=0.0, lo=0.0)
        omega_d = blk.angular("omega_d", default=0.0, lo=0.0)
        blk.finish()
        return kind, blk.make(SystemParams, kappa=kappa, gamma=gamma, g=g,
                              kerr=kerr, delta_c=delta_c, delta_m=delta_m,
                              kappa_ext=kappa_ext, omega_d=omega_d)

    # active
    delta_c = blk.angular("delta_c", default=0.0)
    if delta_c != 0.0:
        raise ConfigError(f"{blk.path}: the active model is defined in the "
                          f"oscillator frame, delta_c must be 0")
    gain_absorbed = blk.boolean("gain_absorbed", default=True)
    kappa = blk.angular("kappa", required=not gain_absorbed, default=0.0,
                        lo=0.0)
    if x_axis == "gain":
        blk.forbid_angular("gain", "the gain is set by the grid block")
        gain = 0.0
    elif x_axis == "n0":
        blk.forbid_angular("gain", "the n0 axis sets the gain cell by cell "
                                   "(gain = n0 * gamma_sat)")
        gain = 0.0
    else:
        gain = blk.angular("gain", required=True)
    gamma_sat = blk.angular("gamma_sat", required=True, lo=0.0)
    if gamma_sat == 0.0:
        raise ConfigError(f"{blk.path}: gamma_sat must be positive; the "
                          f"active model needs saturation")
    blk.forbid_angular("omega_d", "the active model has no external drive "
                                  "tone")
    blk.forbid_angular("kappa_ext", "the active model does not use an "
                                    "external port rate")
    blk.finish()
    return kind, blk.make(SystemParams, kappa=kappa, gamma=gamma, g=g,
                          kerr=kerr, delta_m=delta_m, gain=gain,
                          gamma_sat=gamma_sat, gain_absorbed=gain_absorbed)


def _parse_drive(blk: _Block, params: SystemParams) -> DriveSpec:
    n0 = blk.number("n0", lo=0.0)
    power_uw = blk.number("power_uw", lo=0.0)
    eta = blk.number("eta_per_us", lo=0.0)
    blk.finish()
    given = [k for k, v in (("n0", n0), ("power_uw", power_uw),
                            ("eta_per_us", eta)) if v is not None]
    if len(given) != 1:
        raise ConfigError(f"{blk.path}: exactly one of n0, power_uw, "
                          f"eta_per_us is required, got "
                          f"{given if given else 'none'}")
    if power_uw is not None:
        return blk.make(eta_from_power, power_uw * 1e-6, params)
    if n0 is not None:
        eta = float(blk.make(n0_to_drive_passive, n0, params))
    return blk.make(DriveSpec, eta=eta)


def _parse_grid(blk: _Block, system_blk: _Block, command: str) -> GridSpec:
    x_axis = blk.string("x_axis", choices=("n0", "gain"), required=True)
    kind, base = _parse_system(system_blk, command, x_axis=x_axis)
    if x_axis == "n0":
        x_min = blk.number("n0_min", required=True, lo=0.0, lo_open=True)
        x_max = blk.number("n0_max", required=True, lo=0.0, lo_open=True)
        blk.forbid_angular("gain_min", "gain bounds belong to the gain axis")
        blk.forbid_angular("gain_max", "gain bounds belong to the gain axis")
    else:
        x_min = blk.angular("gain_min", required=True)
        x_max = blk.angular("gain_max", required=True)
        for k in ("n0_min", "n0_max"):
            if k in blk.data:
                raise ConfigError(f"{blk.path}.{k}: n0 bounds belong to the "
                                  f"n0 axis")
    x_count = blk.integer("x_count", required=True, lo=2)
    delta_m_min = blk.angular("delta_m_min", required=True)
    delta_m_max = blk.angular("delta_m_max", required=True)
    delta_m_count = blk.integer("delta_m_count", required=True, lo=2)
    blk.finish()
    if x_count * delta_m_count > _MAX_COUNT:
        raise ConfigError(f"{blk.path}: x_count * delta_m_count = "
                          f"{x_count * delta_m_count:.3g} cells: more than "
                          f"an array can hold")
    if kind == "passive":
        # a mapping that fails every cell is a config error; an
        # overflowing denominator stays a per-cell ConditioningError
        try:
            n0_to_drive_passive(0.0, base)
        except ConditioningError:
            pass
        except ValueError as exc:
            raise ConfigError(f"{blk.path}.x_axis: {exc}") from None
    return blk.make(GridSpec, system=kind, x_axis=x_axis, x_min=x_min,
                    x_max=x_max, x_count=x_count, delta_m_min=delta_m_min,
                    delta_m_max=delta_m_max, delta_m_count=delta_m_count,
                    base=base)


def _parse_sweep(blk: _Block, params: SystemParams,
                 drive: DriveSpec | None) -> tuple[SweepProtocol, ModeState]:
    start = blk.angular("detuning_start", required=True)
    stop = blk.angular("detuning_stop", required=True)
    steps = blk.integer("steps", required=True, lo=1, hi=_MAX_COUNT)
    dt = blk.number("dt_us", default=SweepProtocol.dt, lo=0.0, lo_open=True)
    t_total = blk.number("t_total_us", default=SweepProtocol.t_total, lo=0.0,
                         lo_open=True)
    t_drop = blk.number("t_drop_us", default=SweepProtocol.t_drop, lo=0.0)
    fit_fraction = blk.number("fit_fraction", lo=0.0, lo_open=True, hi=1.0,
                              default=SweepProtocol.fit_fraction)
    memory_detuning = blk.boolean("memory_detuning",
                                  default=SweepProtocol.memory_detuning)
    memory_state = blk.boolean("memory_state",
                               default=SweepProtocol.memory_state)
    omega_initial = blk.angular("omega_initial",
                                default=SweepProtocol.omega_initial)

    seed_blk = blk.block("seed_state", create=True)
    default_seed = default_seed_state(params,
                                      None if drive is None else drive.eta)
    a_re = seed_blk.number("a_re", default=default_seed.a.real)
    a_im = seed_blk.number("a_im", default=default_seed.a.imag)
    m_re = seed_blk.number("m_re", default=default_seed.m.real)
    m_im = seed_blk.number("m_im", default=default_seed.m.imag)
    seed_blk.finish()
    blk.finish()

    if steps == 1:
        detunings = (start,)
    else:
        detunings = tuple((start + (stop - start) * np.arange(steps)
                           / (steps - 1)).tolist())
    protocol = blk.make(SweepProtocol, detunings=detunings, dt=dt,
                        t_total=t_total, t_drop=t_drop,
                        fit_fraction=fit_fraction,
                        memory_detuning=memory_detuning,
                        memory_state=memory_state,
                        omega_initial=omega_initial)
    state = ModeState(a=complex(a_re, a_im), m=complex(m_re, m_im))
    return protocol, state


def _parse_spectrogram(blk: _Block | None,
                       protocol: SweepProtocol) -> dict | None:
    if blk is None:
        return None
    out = {
        "f_min_mhz": blk.number("f_min_mhz", default=-100.0),
        "f_max_mhz": blk.number("f_max_mhz", default=100.0),
        # where a log view of spectrogram.csv clips empty bins; the
        # run only records it in spectrogram_axes.json
        "floor": blk.number("floor", default=1e-6, lo=0.0, lo_open=True),
    }
    blk.finish()
    if not out["f_min_mhz"] < out["f_max_mhz"]:
        raise ConfigError(f"{blk.path}: f_min_mhz must be < f_max_mhz")
    freqs = spectrum_freqs(protocol.window_samples(), protocol.dt)
    if not np.any((freqs >= out["f_min_mhz"]) & (freqs <= out["f_max_mhz"])):
        raise ConfigError(f"{blk.path}: f_min_mhz..f_max_mhz holds no FFT "
                          f"bin (bins span {freqs[0]:.6g}..{freqs[-1]:.6g})")
    return out


def parse_run(doc: dict, command: str) -> RunConfig:
    """Validate a loaded config document for one subcommand.

    Returns the RunConfig with solver objects and the resolved
    manifest-ready document. ``doc`` itself is not modified.
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    try:
        data = copy.deepcopy(doc)
    except RecursionError:  # a value nested deeper than the copy recurses
        raise ConfigError("$: nesting too deep") from None
    top = _Block(data, "$")
    version = top.integer("format_version", required=True)
    if version != FORMAT_VERSION:
        raise ConfigError(f"$.format_version: unsupported version {version}; "
                          f"this build reads version {FORMAT_VERSION}")
    cmd_in_doc = top.string("command", choices=COMMANDS)
    if cmd_in_doc is None:
        data["command"] = command
    elif cmd_in_doc != command:
        raise ConfigError(f"$.command: config was written for "
                          f"{cmd_in_doc!r}, not {command!r}")
    out = top.string("out")
    data.pop("out", None)

    run = RunConfig(command=command, out=out, resolved=data)

    if command in ("fit-s11", "fit-kittel"):
        run.data_csv = top.string("data_csv", required=True)
        top.finish()
        return run

    system_blk = top.block("system", required=True)
    if command == "phase-diagram":
        grid_blk = top.block("grid", required=True)
        run.grid = _parse_grid(grid_blk, system_blk, command)
        run.system = run.grid.base
        run.kind = run.grid.system
        top.finish()
        return run

    kind, params = _parse_system(system_blk, command)
    run.kind, run.system = kind, params
    drive_blk = top.block("drive")
    if kind == "passive":
        if drive_blk is None:
            raise ConfigError(f"$.drive: passive {command} runs need a "
                              f"drive block")
        run.drive = _parse_drive(drive_blk, params)
    elif drive_blk is not None:
        raise ConfigError("$.drive: the active model has no external drive")
    if command == "sweep":
        sweep_blk = top.block("sweep", required=True)
        run.protocol, run.initial_state = _parse_sweep(sweep_blk, params,
                                                       run.drive)
        run.spectrogram = _parse_spectrogram(top.block("spectrogram"),
                                             run.protocol)
    top.finish()
    return run
