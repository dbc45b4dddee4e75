"""Command-line tools for the QDockBank reproduction.

Five tools, installed as console scripts by ``setup.py`` (and runnable without
installation as ``python -m repro.cli.<name>``):

* ``repro-cache`` (:mod:`repro.cli.cache`) — the maintenance interface to the
  engine's persistent result cache (ls/stats/prune/verify);
* ``repro-session`` (:mod:`repro.cli.session`) — the interface to the
  engine's streaming-session journals (ls/status/resume of interrupted
  sweeps);
* ``repro-worker`` (:mod:`repro.cli.worker`) — a file-queue execution daemon;
* ``repro-serve`` (:mod:`repro.cli.serve`) — the network job service;
* ``repro-bench`` (:mod:`repro.cli.bench`) — the benchmark suite.

Library modules only create loggers (``logging.getLogger(__name__)``); the
tools' ``main()`` functions are the only code that configures logging, via
:func:`configure_logging`.
"""

from __future__ import annotations

import logging
import sys

_FORMAT = "%(asctime)s | %(levelname)-7s | %(name)s | %(message)s"


class _StderrHandler(logging.StreamHandler):
    """A stream handler that writes to whatever ``sys.stderr`` is at emit time.

    A tool's ``main()`` may run in-process under a harness that swaps
    ``sys.stderr`` per call (pytest's capture); binding the stream once would
    leave later records writing to a closed file.
    """

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _value) -> None:
        pass


def configure_logging() -> None:
    """Send ``repro.*`` log records at INFO and above to stderr (idempotent)."""
    logger = logging.getLogger("repro")
    logger.setLevel(logging.INFO)
    if not any(isinstance(handler, _StderrHandler) for handler in logger.handlers):
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter(_FORMAT, datefmt="%H:%M:%S"))
        logger.addHandler(handler)
