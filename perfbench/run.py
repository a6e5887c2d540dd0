"""magpol benchmark: drive the CLI through seeded workloads and check it.

Usage, from the root of a magpol checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the four workloads in turn, each ending with
its own JSON line.

Workloads (see BENCHMARK.json for why each was chosen):

    map_passive      phase-diagram, passive detuned map, 201x201, 1 thread
    map_active       phase-diagram, active gain map, 151x151, 2 threads
    sweep_sidebands  sweep with spectrogram, 191 steps x 8000 RK4 steps
    cli_short        rounds of fixed-points, fit-s11, fit-kittel

BENCHMARK.json lists ``map_active`` and ``sweep_sidebands``; the other
two stay runnable by hand. With ``--trace 0`` the CLI runs as
separate processes, a round of the workload's invocations is repeated
while another round is expected to end within ``--seconds`` (at least
one round), and the run reports the end-to-end metrics. Their times
are divided by the slowdown that contention probes (contention.py) saw
on the child's CPUs while it ran, against a fixed reference speed;
single-process jobs are pinned to one CPU for that. With ``--trace 1`` the same commands run inside a
traced process with spans around each layer, and the run reports the
per-layer metrics and the tracing overhead. Every run
checks the outputs against independent references and self-tests
those checks by corrupting one item each. Human-readable lines come
first; the last line of stdout is the JSON result. Full reports,
spans and contention probe pieces go to ``.perfbench_out/`` in the
checkout.

Exits with code 2, printing no result, when the checkout lacks the
magpol sources, configs or test oracles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import procs  # noqa: E402

os.environ.update(procs.THREAD_ENV)      # before numpy loads its BLAS

import numpy as np  # noqa: E402

import checks  # noqa: E402
import contention  # noqa: E402
import tracing  # noqa: E402
from inputs import make_inputs, probe_config  # noqa: E402

REQUIRED = ("src/magpol/cli.py", "tests/_oracles.py",
            "configs/passive_detuned_map.json")
SETUP_PROBES = 5


@dataclass(frozen=True)
class Job:
    input: str                   # key into Inputs.configs
    command: str
    extra: tuple[str, ...] = ()


WORKLOADS = {
    "map_passive": (Job("map_passive", "phase-diagram", ("--threads", "1")),),
    "map_active": (Job("map_active", "phase-diagram", ("--threads", "2")),),
    "sweep_sidebands": (Job("sweep", "sweep"),),
    "cli_short": (Job("fixed_points", "fixed-points"),
                  Job("fit_s11", "fit-s11"),
                  Job("fit_kittel", "fit-kittel")),
}

ARTIFACTS = {
    "phase-diagram": ("stable_count.csv", "unstable_count.csv",
                      "marginal_count.csv", "blank.csv", "errors.csv",
                      "phase_diagram.json", "manifest.json"),
    "sweep": ("sweep.csv", "spectrogram.csv", "spectrogram_axes.json",
              "manifest.json"),
    "fixed-points": ("fixed_points.json", "manifest.json"),
    "fit-s11": ("fit_s11.json", "manifest.json"),
    "fit-kittel": ("fit_kittel.json", "manifest.json"),
}

# Small inputs that reach the layers a workload does not, so that a
# traced run measures every layer.
PROBE_JOBS = (
    Job("map_passive", "phase-diagram", ("--threads", "1",
                                          "--resolution", "20x20")),
    Job("map_active", "phase-diagram", ("--threads", "1",
                                         "--resolution", "20x20")),
    Job("sweep_probe", "sweep"),
    Job("fixed_points", "fixed-points"),
    Job("fit_s11", "fit-s11"),
    Job("fit_kittel", "fit-kittel"),
)
SPEEDUP_ROWS = "151x16"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_share": "ratio",
                    "oracle_agree_share": "ratio"}


@dataclass
class Tally:
    """Operations, checks and their outcomes over one run."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    n_failed: int = 0
    checked: int = 0
    mismatches: list[str] = field(default_factory=list)
    hard: list[str] = field(default_factory=list)
    self_tests: list[str] = field(default_factory=list)
    stages: dict[str, float] = field(default_factory=dict)
    unadjusted: dict[str, float] = field(default_factory=dict)

    def stage(self, name: str, since: float) -> float:
        """Record the seconds a stage of the run took; returns now."""
        now = time.perf_counter()
        self.stages[name] = now - since
        return now

    def fail(self, why: str, count: int = 1) -> None:
        self.n_failed += count
        self.failed.append(why)


# ------------------------------------------------------------ helpers

def _argv(job: Job, inputs, out_dir: str) -> list[str]:
    return [job.command, "--config", inputs.configs[job.input],
            "--out", out_dir, *job.extra]


def _digest(out_dir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _check_invocation(tally: Tally, job: Job, rc: int, out_dir: str,
                      first: dict) -> bool:
    """Exit code, artifacts present, byte identity with the first run.

    Returns True when this invocation is the first good one of its
    input, so its artifacts are kept for the content checks.
    """
    what = f"{job.command} {job.input}"
    if rc != 0:
        tally.fail(f"{what}: exit code {rc}")
        return False
    missing = [a for a in ARTIFACTS[job.command]
               if not os.path.isfile(os.path.join(out_dir, a))]
    if missing:
        tally.fail(f"{what}: missing {', '.join(missing)}")
        return False
    digest = _digest(out_dir)
    if job not in first:
        first[job] = digest
        return True
    if digest != first[job]:
        changed = sorted(k for k in set(digest) | set(first[job])
                         if digest.get(k) != first[job].get(k))
        tally.fail(f"{what}: not byte-identical to the first repetition "
                   f"({', '.join(changed)})")
    return False


def _setup(root: str, tmp: str, inputs, jobs, tally: Tally,
           cpus: list[int] | None = None):
    """Set-up probes; returns their process results and own splits."""
    runs, splits = [], []
    for i in range(SETUP_PROBES):
        job = jobs[i % len(jobs)]
        res, split = procs.setup_probe(root, tmp,
                                       inputs.configs[job.input],
                                       job.command, cpus)
        if res.returncode != 0 or not split:
            tally.hard.append(f"set-up probe failed: {res.stderr[-300:]}")
            continue
        runs.append(res)
        splits.append(split)
    return runs, splits


def _job_cpus(job: Job, cpus: list[int]) -> list[int]:
    """The CPUs a job is pinned to: one per scan worker, all at most."""
    workers = (int(job.extra[job.extra.index("--threads") + 1])
               if "--threads" in job.extra else 1)
    return cpus[-workers:]


# ------------------------------------------------------ content checks

def _verdict(flagged: bool) -> str:
    return "flagged" if flagged else "MISSED"


def _check_map(job: Job, out_dir: str, inputs, tally: Tally) -> None:
    from magpol import config
    grid = config.parse_run(inputs.docs[job.input], "phase-diagram").grid
    counts, errors = checks.read_map_counts(out_dir)
    what = f"{job.command} {job.input}"
    if counts.shape != (grid.delta_m_count, grid.x_count):
        tally.fail(f"{what}: map shape {counts.shape}")
        return
    tally.attempted += counts.size
    if errors.any():
        cells = [f"({iy},{ix})" for iy, ix in np.argwhere(errors)]
        tally.fail(f"{what}: error cells {' '.join(cells[:20])}",
                   count=int(errors.sum()))
    sample = checks.sample_cells(grid, counts, inputs.seed)
    oracle = checks.oracle_map_counts(grid, counts, sample)
    tally.checked += len(oracle)
    tally.mismatches += [f"{what} {m}"
                         for m in checks.map_mismatches(counts, oracle)]
    # self-test: one flipped count must be reported
    iy, ix = next((c for c, (n, _) in oracle.items() if counts[c] == n),
                  sample[0])
    bad = counts.copy()
    bad[iy, ix] += 1
    flagged = any(m.startswith(f"cell ({iy},{ix})")
                  for m in checks.map_mismatches(bad, oracle))
    tally.self_tests.append(f"flip cell ({iy},{ix}) count: "
                            f"{_verdict(flagged)}")


def _check_sweep(job: Job, out_dir: str, inputs, tally: Tally) -> None:
    steps = inputs.docs[job.input]["sweep"]["steps"]
    sweep = checks.read_sweep(out_dir)
    n, bad = checks.sweep_mismatches(sweep, steps)
    tally.checked += n
    tally.mismatches += [f"{job.command} {job.input} {m}" for m in bad]
    tally.hard += bad
    # self-test: a confident step's omega moved by two bins
    conf = np.flatnonzero(sweep["confident"])
    k = int(conf[0]) if conf.size else 0
    shifted = dict(sweep, omega=sweep["omega"].copy())
    shifted["omega"][k] += 2.0 * float(sweep["freqs"][1] - sweep["freqs"][0])
    flagged = any(m.startswith(f"step {k}:")
                  for m in checks.sweep_mismatches(shifted, steps)[1])
    tally.self_tests.append(f"shift step {k} omega by 2 bins: "
                            f"{_verdict(flagged)}")


def _check_point(job: Job, out_dir: str, inputs, tally: Tally) -> None:
    from magpol import config
    run = config.parse_run(inputs.docs[job.input], "fixed-points")
    payload = checks.read_json(out_dir, "fixed_points.json")
    oracle = checks.oracle_point_count(run, len(payload["fixed_points"]))
    bad = checks.point_mismatches(payload, oracle)
    tally.checked += 1
    tally.mismatches += bad
    tally.hard += bad
    # self-test: one extra fixed point
    extra = dict(payload, fixed_points=payload["fixed_points"]
                 + payload["fixed_points"][:1])
    flagged = bool(checks.point_mismatches(extra, oracle))
    tally.self_tests.append(f"add one fixed point: {_verdict(flagged)}")


def _check_fit(job: Job, out_dir: str, inputs, tally: Tally) -> None:
    fit = checks.read_json(out_dir, ARTIFACTS[job.command][0])
    truth = inputs.truth[job.input]
    bad = checks.fit_mismatches(fit, truth, job.command)
    tally.checked += len(truth)
    tally.mismatches += bad
    tally.hard += bad
    # self-test: one fitted value off by 10%
    key = next(iter(truth))
    nudged = dict(fit, **{key: fit[key] * 1.1})
    flagged = any(key in m for m in
                  checks.fit_mismatches(nudged, truth, job.command))
    tally.self_tests.append(f"{job.command}: scale {key} by 1.1: "
                            f"{_verdict(flagged)}")


CHECKS = {"phase-diagram": _check_map, "sweep": _check_sweep,
          "fixed-points": _check_point, "fit-s11": _check_fit,
          "fit-kittel": _check_fit}


def check_outputs(job: Job, out_dir: str, inputs, tally: Tally) -> None:
    """Content checks of one input's artifacts, plus their self-test."""
    try:
        CHECKS[job.command](job, out_dir, inputs, tally)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        tally.fail(f"{job.command} {job.input}: unreadable artifact: "
                   f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------- trace 0

def _adjusted(runs, probes, tally: Tally, what: str):
    """Wall and CPU seconds of each child over its CPUs' slowdown.

    Also records the medians before the adjustment and of the slowdown.
    """
    walls, cpu_times, slowdowns = [], [], []
    for res, cpus in runs:
        slowdown = probes.slowdown(cpus, res.start, res.end)
        if not math.isfinite(slowdown):
            tally.hard.append(f"{what}: no contention probe pieces on "
                              f"CPUs {cpus}")
            continue
        walls.append(res.wall_s / slowdown)
        cpu_times.append(res.cpu_s / slowdown)
        slowdowns.append(slowdown)
    if runs:
        tally.unadjusted[f"{what}_wall_s"] = statistics.median(
            res.wall_s for res, _ in runs)
    if slowdowns:
        tally.unadjusted[f"{what}_slowdown"] = statistics.median(slowdowns)
    return walls, cpu_times


def _dump_contention(path: str, probes, setup_runs, runs, one_cpu) -> None:
    """Probe pieces and every timed child, for looking into noise."""
    children = [{"kind": kind, "cpus": cpus, "start": r.start, "end": r.end,
                 "wall_s": r.wall_s, "cpu_s": r.cpu_s}
                for kind, pairs in (("setup", [(r, one_cpu)
                                               for r in setup_runs]),
                                    ("cli", runs))
                for r, cpus in pairs]
    with open(path, "w") as fh:
        json.dump({"reference_piece_s": contention.REFERENCE_PIECE_S,
                   "pieces": probes.pieces, "children": children}, fh)


def run_untraced(root, tmp, inputs, workload, jobs, seconds, tally):
    start = time.perf_counter()
    runs, rss = [], []
    first: dict = {}
    keep: dict = {}
    with contention.Probes() as probes:
        one_cpu = probes.cpus[-1:]
        setup_runs, _ = _setup(root, tmp, inputs, jobs, tally, one_cpu)
        start = tally.stage("setup", start)
        deadline = start + seconds
        rounds = 0
        while True:
            rounds += 1
            for job in jobs:
                out_dir = tempfile.mkdtemp(dir=tmp)
                cpus = _job_cpus(job, probes.cpus)
                res = procs.run_timed([sys.executable, "-m", "magpol.cli",
                                       *_argv(job, inputs, out_dir)],
                                      root, tmp, cpus)
                tally.attempted += 1
                runs.append((res, cpus))
                rss.append(res.maxrss_mb)
                if _check_invocation(tally, job, res.returncode, out_dir,
                                     first):
                    keep[job] = out_dir
                else:
                    shutil.rmtree(out_dir)
            # Start another round only if one of mean length ends in
            # time, so a run measures whole rounds within --seconds.
            now = time.perf_counter()
            if now + (now - start) / rounds > deadline:
                break
    start = tally.stage("measure", start)
    _dump_contention(os.path.join(root, ".perfbench_out",
                                  f"contention_{workload}_seed{inputs.seed}"
                                  ".json"), probes, setup_runs, runs, one_cpu)
    setup_walls, _ = _adjusted([(r, one_cpu) for r in setup_runs], probes,
                               tally, "setup")
    walls, cpu_times = _adjusted(runs, probes, tally, "cli")
    for job, out_dir in keep.items():
        check_outputs(job, out_dir, inputs, tally)
    tally.stage("check", start)
    ok = 1.0 - tally.n_failed / tally.attempted
    agree = 1.0 - len(tally.mismatches) / tally.checked if tally.checked \
        else 1.0
    values = {
        "wall_s": (statistics.median(walls) if walls else math.nan,
                   len(walls)),
        "cpu_s": (statistics.median(cpu_times) if cpu_times else math.nan,
                  len(cpu_times)),
        "setup_s": (statistics.median(setup_walls) if setup_walls
                    else math.nan, len(setup_walls)),
        "peak_rss_mb": (max(rss), len(rss)),
        "ok_share": (ok, tally.attempted),
        "oracle_agree_share": (agree, tally.checked),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k], "n": n}
            for k, (v, n) in values.items()}


# ---------------------------------------------------------- trace 1

def _traced(root, tmp, level, argvs, tally, what):
    """Run jobs in one traced process; returns its decoded trace.

    The spans stay in ``.perfbench_out/spans_<what>.json``.
    """
    spec = os.path.join(tmp, f"jobs_{what}.json")
    out = os.path.join(root, ".perfbench_out", f"spans_{what}.json")
    with open(spec, "w") as fh:
        json.dump({"level": level, "jobs": argvs}, fh)
    res = procs.run_timed([sys.executable, os.path.join(HERE, "traced_cli.py"),
                           spec, out], root, tmp)
    if not os.path.isfile(out):
        tally.hard.append(f"traced run {what} died: {res.stderr[-300:]}")
        return None
    with open(out) as fh:
        trace = json.load(fh)
    trace["span_set"] = tracing.SpanSet(trace["spans"])
    return trace


def run_traced(root, tmp, inputs, workload, jobs, tally):
    tag = f"{workload}_seed{inputs.seed}"
    start = time.perf_counter()
    _, splits = _setup(root, tmp, inputs, jobs, tally)
    start = tally.stage("setup", start)
    # Per-layer numbers come from workers=1 runs.
    main_jobs = [Job(j.input, j.command, ("--threads", "1"))
                 if j.command == "phase-diagram" else j for j in jobs]
    outs = [tempfile.mkdtemp(dir=tmp) for _ in main_jobs]
    argvs = [_argv(j, inputs, o) for j, o in zip(main_jobs, outs)]
    full = _traced(root, tmp, "full", argvs, tally, f"{tag}_full")
    top_argvs = [_argv(j, inputs, tempfile.mkdtemp(dir=tmp))
                 for j in main_jobs]
    if workload == "map_active":
        top_argvs.append(_argv(jobs[0], inputs,
                               tempfile.mkdtemp(dir=tmp)))
    top = _traced(root, tmp, "top", top_argvs, tally, f"{tag}_top")
    inputs.configs["sweep_probe"] = probe_config(inputs, tmp)
    probe = _traced(root, tmp, "full",
                    [_argv(j, inputs, tempfile.mkdtemp(dir=tmp))
                     for j in PROBE_JOBS], tally, f"{tag}_probe")
    traces = {"full": full, "top": top, "probe": probe}
    if workload == "map_active":
        speed = top                     # jobs: workers=1, then workers=2
    else:
        rows = ("--resolution", SPEEDUP_ROWS)
        speed = traces["speedup"] = _traced(root, tmp, "top", [
            _argv(Job("map_active", "phase-diagram",
                      ("--threads", str(w)) + rows), inputs,
                  tempfile.mkdtemp(dir=tmp)) for w in (1, 2)],
            tally, f"{tag}_speedup")
    start = tally.stage("measure", start)
    if any(t is None for t in traces.values()):
        return {}
    for label, trace in traces.items():
        for rec in trace["jobs"]:
            tally.attempted += 1
            if rec["rc"] != 0:
                tally.fail(f"traced {label} {rec['argv'][0]}: exit code "
                           f"{rec['rc']}")
    first: dict = {}
    for job, out_dir, rec in zip(main_jobs, outs, full["jobs"]):
        if rec["rc"] == 0 and _check_invocation(tally, job, 0, out_dir,
                                                 first):
            check_outputs(job, out_dir, inputs, tally)
    tally.stage("check", start)

    return tracing.layer_metrics(full, top, probe, speed, splits,
                                 len(main_jobs))


# ------------------------------------------------------------- main

def _report(workload, seed, trace, metrics, tally, env, elapsed):
    print(f"magpol benchmark: workload {workload}, seed {seed}, "
          f"trace {trace}, {elapsed:.1f} s")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("stages: " + ", ".join(f"{k} {v:.1f} s"
                                 for k, v in tally.stages.items()))
    if tally.unadjusted:
        print("before the contention adjustment (medians): " + ", ".join(
            f"{k} {v:.4g}" for k, v in tally.unadjusted.items()))
    for name, rec in metrics.items():
        n = f"  (n={rec['n']})" if "n" in rec else ""
        print(f"  {name:32s} {rec['value']:14.6g} {rec['unit']}{n}")
    share = tally.n_failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_share':32s} {share:14.6g} ratio  "
          f"({tally.n_failed} of {tally.attempted} operations)")
    print(f"  {'oracle_mismatch':32s} {len(tally.mismatches):14d} count  "
          f"(of {tally.checked} checked items)")
    for line in tally.mismatches:
        print(f"    mismatch: {line}")
    for line in tally.failed:
        print(f"    failure: {line}")
    for line in tally.hard:
        print(f"    check failed: {line}")
    for line in tally.self_tests:
        print(f"    self-test: {line}")


def run_workload(root: str, workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """One run: report to stdout and ``.perfbench_out``; returns the result."""
    work_root = os.path.join(root, ".perfbench_tmp")
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(work_root, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=work_root)
    t0 = time.perf_counter()
    tally = Tally()
    try:
        inputs = make_inputs(root, seed, tmp)
        jobs = WORKLOADS[workload]
        if trace:
            metrics = run_traced(root, tmp, inputs, workload, jobs, tally)
        else:
            metrics = run_untraced(root, tmp, inputs, workload, jobs,
                                   seconds, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env = procs.environment()
    elapsed = time.perf_counter() - t0
    _report(workload, seed, trace, metrics, tally, env, elapsed)

    self_ok = bool(tally.self_tests) and all(
        s.endswith("flagged") for s in tally.self_tests)
    correct = (not tally.hard and tally.n_failed == 0 and self_ok
               and bool(metrics)
               and all(math.isfinite(r["value"]) for r in metrics.values()))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.n_failed,
        "metrics": {k: {"value": r["value"], "unit": r["unit"]}
                    for k, r in metrics.items()},
    }
    with open(os.path.join(out_dir, f"{workload}_seed{seed}_trace{trace}"
                                    ".json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "seconds": seconds, "environment": env,
                   "elapsed_s": elapsed, "result": result, "metrics": metrics,
                   "failures": tally.failed, "mismatches": tally.mismatches,
                   "check_failures": tally.hard, "stages": tally.stages,
                   "unadjusted": tally.unadjusted,
                   "self_tests": tally.self_tests}, fh, indent=2)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"),
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root,
                                                                       p))]
    if missing:
        print(f"error: not a magpol checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(root, name, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
