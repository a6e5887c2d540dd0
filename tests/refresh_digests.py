"""Rewrite ``tests/digests.json`` from the code as it stands.

Run it from the repository root, once a change that is meant to move a
pinned result is explained:

    PYTHONPATH=src python tests/refresh_digests.py

It recomputes the module fixtures of ``test_acceptance`` (about half a
minute on one core) and runs every shipped config as
``test_cli.test_shipped_config_runs`` does, in a temporary folder.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import _digests
import test_acceptance
import test_cli


def main() -> None:
    os.chdir(test_cli.ROOT)  # shipped configs use repo-relative data paths
    pins = {"fixtures": {}, "shipped": {}}
    for name, build in test_acceptance.FIXTURES.items():
        pins["fixtures"][name] = _digests.of_fixture(build())
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        for name in sorted(test_cli.SHIPPED_CONFIGS):
            os.mkdir(Path(tmp) / name)
            out = test_cli.run_shipped(name, Path(tmp) / name)
            pins["shipped"][name] = _digests.of_files(out)
    _digests.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True)
                               + "\n", encoding="utf-8")
    print(f"wrote {_digests.PINNED}")


if __name__ == "__main__":
    main()
