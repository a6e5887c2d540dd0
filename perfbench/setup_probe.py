"""Set-up probe: import magpol.cli, then load and parse one config.

Usage: python3 setup_probe.py CONFIG COMMAND  (with src/ on PYTHONPATH)

Prints one JSON line with the import time in seconds and the
load_config + parse_run time in milliseconds, both measured inside
this fresh interpreter.
"""

import json
import sys
import time

t0 = time.perf_counter()
import magpol.cli  # noqa: E402,F401
from magpol import config  # noqa: E402

t1 = time.perf_counter()
config.parse_run(config.load_config(sys.argv[1]), sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_ms": (t2 - t1) * 1e3}))
