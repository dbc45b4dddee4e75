"""Fresh-interpreter set-up probe for the bank-build benchmark.

Run as ``python probe.py engine <cache_dir> <transport>`` to import ``repro``
and construct the benchmark's ``DatasetBuilder``, or ``python probe.py
worker`` to import the ``repro-worker`` entry module.  Prints one JSON line:
``ready`` is ``time.monotonic()`` when the probe finished (the clock is
system-wide, so the parent measures start-to-ready across the process
boundary) and ``import_s`` is the time the first import took.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    """Run one probe; see the module docstring."""
    start = time.monotonic()
    if argv[0] == "worker":
        import repro.cli.worker  # noqa: F401

        import_s = time.monotonic() - start
    else:
        cache_dir, transport = argv[1], argv[2]
        import repro  # noqa: F401

        import_s = time.monotonic() - start
        from bankbench import DatasetBuilder, bench_config

        DatasetBuilder(config=bench_config(transport=transport), cache_dir=cache_dir)
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
