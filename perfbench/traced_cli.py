"""Run magpol CLI commands in one process with spans around each layer.

Usage: python3 traced_cli.py JOBS_JSON OUT_JSON  (with src/ on PYTHONPATH)

JOBS_JSON holds {"level": "full" | "top", "jobs": [argv, ...]}, each
argv being the arguments after ``magpol``. The jobs run one after the
other through ``magpol.cli.main``. OUT_JSON receives the import time,
each job's exit code and duration, the spans and the counters.
"""

import json
import sys
import time

t0 = time.perf_counter()
import magpol.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    tracer = Tracer(spec["level"])
    install(tracer)
    jobs = []
    try:
        for i, argv in enumerate(spec["jobs"]):
            tracer.job = i
            start = time.perf_counter()
            rc = magpol.cli.main(argv)
            jobs.append({"argv": argv, "rc": rc,
                         "seconds": time.perf_counter() - start})
    finally:
        tracer.restore()
    with open(sys.argv[2], "w") as fh:
        json.dump({"import_s": import_s, "jobs": jobs,
                   "spans": tracer.spans,
                   "counters": dict(tracer.counters)}, fh)
    return 0 if all(j["rc"] == 0 for j in jobs) else 1


if __name__ == "__main__":
    sys.exit(main())
