"""Spans around calls into magpol's public functions, and their analysis.

The wrappers rebind the module attributes that callers look up at call
time (``phasemap`` and ``cli`` import their solvers by name, so those
names are wrapped where they are used). Spans stay in memory as
(name, start, end, parent, job) and are written out once at the end.
A span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

# Level "top" keeps only the command and scan spans: a handful per
# run, so a "top" run is the untraced reference for the overhead.
TOP_ONLY = ("cli.", "phasemap.scan")


class Tracer:
    def __init__(self, level: str):
        self.level = level
        self.job = 0
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, module, attr: str, name, on_return=None) -> None:
        """Rebind ``module.attr`` to a spanned call.

        ``name`` is a span name or a function of the call arguments
        returning one; ``on_return(tracer, args, result)`` updates
        counters after the call.
        """
        label = name if isinstance(name, str) else None
        if self.level == "top" and not (label or "").startswith(TOP_ONLY):
            return
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [label or name(args), 0.0, 0.0,
                    stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, args, out)
            return out

        setattr(module, attr, traced)
        self._saved.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def _bytes_written(tr: Tracer, args, _out) -> None:
    out_dir = args[1]
    tr.counters["cli.bytes_written"] += sum(
        e.stat().st_size for e in os.scandir(out_dir) if e.is_file())


def _points(kind: str):
    def hook(tr: Tracer, _args, out) -> None:
        tr.counters[f"steady.points.{kind}"] += len(out)
    return hook


def _cells(tr: Tracer, _args, out) -> None:
    tr.counters["phasemap.cells"] += out.stable.size
    tr.counters["phasemap.error_cells"] += int(out.errors.sum())


def _rk4_steps(tr: Tracer, args, _out) -> None:
    duration, dt = args[2], args[3]
    tr.counters["dynamics.rk4_steps"] += int(round(duration / dt))


def _sweep(tr: Tracer, _args, result) -> None:
    held = {}
    for seg in result.segments:
        for arr in (seg.times, seg.a, seg.m):
            held[id(arr)] = arr.nbytes
    tr.counters["dynamics.trajectory_bytes"] += sum(held.values())
    n_done = len(result.segments)
    tr.counters["spectral.steps"] += len(result.protocol.detunings)
    tr.counters["spectral.confident"] += int(
        (~result.low_confidence[:n_done]).sum())


def _classify_name(args) -> str:
    return f"stability.classify.{args[0].kind}"


def install(tr: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from magpol import cli, dynamics, phasemap

    for cmd in ("fixed_points", "phase_diagram", "sweep", "fit_s11",
                "fit_kittel"):
        tr.wrap(cli, f"cmd_{cmd}", f"cli.cmd_{cmd}", _bytes_written)
    tr.wrap(cli, "scan", "phasemap.scan", _cells)
    for module in (phasemap, cli):
        tr.wrap(module, "passive_fixed_points", "steady.passive_fixed_points",
                _points("passive"))
        tr.wrap(module, "active_fixed_points", "steady.active_fixed_points",
                _points("active"))
        tr.wrap(module, "classify", _classify_name)
    tr.wrap(cli, "run_sweep", "dynamics.run_sweep", _sweep)
    tr.wrap(dynamics, "integrate_segment", "dynamics.integrate_segment",
            _rk4_steps)
    tr.wrap(dynamics, "phase_slope_offset", "spectral.phase_slope_offset")
    tr.wrap(cli, "build_spectrogram", "spectral.build_spectrogram")
    tr.wrap(cli, "fit_s11", "calib.fit_s11")
    tr.wrap(cli, "fit_kittel", "calib.fit_kittel")
    tr.wrap(cli, "load_spectrum_csv", "calib.load_csv")
    tr.wrap(cli, "load_field_points_csv", "calib.load_csv")


class SpanSet:
    """Durations and self times of a dumped trace, by span name."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _job in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _parent, _job) in enumerate(spans):
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[i]
            self.calls[name] += 1

    def mean(self, name: str) -> float:
        return self.total[name] / self.calls[name]

    def prefix_self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_time.items()
                   if k.startswith(prefix))

    def job_total(self, name: str, job: int) -> float:
        return sum(end - start for n, start, end, _p, j in self.spans
                   if n == name and j == job)


def layer_metrics(full: dict, top: dict, probe: dict, speed: dict,
                  splits: list[dict], n_main: int) -> dict:
    """Per-layer metrics of one traced run, as {name: {value, unit}}.

    ``full`` traced the workload's own commands and ``probe`` small
    inputs for every layer; a layer's numbers come from ``full`` when
    the workload reaches it, else from ``probe``. ``speed`` ran the
    active map scan at workers=1 (job 0) and workers=2 (job 1). The
    first ``n_main`` jobs of ``top`` repeat ``full``'s jobs with only
    the command and scan spans: the untraced reference for the
    overhead. ``splits`` are the set-up probes' own timings.
    """
    def pick(name: str) -> tuple[SpanSet, dict]:
        t = full if full["span_set"].calls.get(name) else probe
        return t["span_set"], t["counters"]

    def median(key: str) -> float:
        return statistics.median(s[key] for s in splits)

    ss, ctr = full["span_set"], full["counters"]
    m = {
        "cli.import_s": (median("import_s"), "s"),
        "cli.write_s": (ss.prefix_self("cli.cmd_"), "s"),
        "cli.bytes_written": (ctr["cli.bytes_written"], "count"),
        "config.parse_ms": (median("parse_ms"), "ms"),
    }
    for kind in ("passive", "active"):
        name = f"steady.{kind}_fixed_points"
        ss, ctr = pick(name)
        m[f"steady.{kind}_solve_us"] = (ss.mean(name) * 1e6, "us")
        m[f"steady.points_per_cell.{kind}"] = (
            ctr[f"steady.points.{kind}"] / ss.calls[name], "count")
    for kind in ("passive", "active"):
        name = f"stability.classify.{kind}"
        m[f"stability.classify_us.{kind}"] = (pick(name)[0].mean(name) * 1e6,
                                              "us")
    classify = ("stability.classify.passive", "stability.classify.active")
    t = full if any(full["span_set"].calls.get(k) for k in classify) \
        else probe
    m["stability.calls"] = (sum(t["span_set"].calls.get(k, 0)
                                for k in classify), "count")

    ss, ctr = pick("phasemap.scan")
    m["phasemap.scan_s"] = (ss.total["phasemap.scan"], "s")
    m["phasemap.scan_self_s"] = (ss.self_time["phasemap.scan"], "s")
    m["phasemap.cells"] = (ctr["phasemap.cells"], "count")
    m["phasemap.error_cells"] = (ctr["phasemap.error_cells"], "count")
    sp = speed["span_set"]
    m["phasemap.speedup_2w"] = (sp.job_total("phasemap.scan", 0)
                                / sp.job_total("phasemap.scan", 1), "ratio")

    ss, ctr = pick("dynamics.integrate_segment")
    steps = ctr["dynamics.rk4_steps"]
    m["dynamics.rk4_step_us"] = (
        ss.total["dynamics.integrate_segment"] / steps * 1e6, "us")
    m["dynamics.sweep_self_s"] = (ss.self_time["dynamics.run_sweep"], "s")
    m["dynamics.rk4_steps"] = (steps, "count")
    m["dynamics.trajectory_mb"] = (ctr["dynamics.trajectory_bytes"] / 1e6,
                                   "MB")

    ss, ctr = pick("spectral.phase_slope_offset")
    m["spectral.phase_fit_us"] = (ss.mean("spectral.phase_slope_offset")
                                  * 1e6, "us")
    m["spectral.spectrogram_s"] = (pick("spectral.build_spectrogram")[0]
                                   .total["spectral.build_spectrogram"], "s")
    m["spectral.confident_share"] = (ctr["spectral.confident"]
                                     / ctr["spectral.steps"], "ratio")
    for name, key in (("calib.load_csv_ms", "calib.load_csv"),
                      ("calib.fit_s11_ms", "calib.fit_s11"),
                      ("calib.fit_kittel_ms", "calib.fit_kittel")):
        m[name] = (pick(key)[0].mean(key) * 1e3, "ms")

    traced = sum(j["seconds"] for j in full["jobs"])
    plain = sum(j["seconds"] for j in top["jobs"][:n_main])
    m["trace.overhead_share"] = (traced / plain - 1.0, "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
