"""The bank-build benchmark: workloads, output checks and metrics.

Drives :meth:`repro.dataset.builder.DatasetBuilder.build` from outside the
package on three workloads (see ``README.md`` for why each exists, why
``warm-bank`` is not in ``BENCHMARK.json``, and which layer metric moves
which end-to-end metric):

``cold-bank``
    The first 3 fragments of each L/M/S group (the ``benchmarks/conftest.py``
    slice: 9 fragments, 54 jobs) built serially into an empty local cache.
``warm-bank``
    The same slice rebuilt serially against a cache an untimed cold build
    filled: the engine executes no job, so cache reads, payload decoding,
    reference re-derivation and assembly are all of it.
``serve-bank``
    The first 10 S-group fragments built cold through the ``network``
    transport, each build against a fresh ``repro-serve --workers 2`` daemon
    the run starts.

End-to-end numbers always come from untraced builds.  ``--trace 1`` adds one
traced build per run (:mod:`spans`) and reports per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import uuid
import warnings
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.config import PipelineConfig
from repro.dataset.builder import DatasetBuilder
from repro.dataset.fragments import Fragment, fragments_by_group

from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK_ROOT = HERE / ".work"
OUT_DIR = HERE / "out"

WORKLOADS = ("cold-bank", "warm-bank", "serve-bank")
METHODS = ("QDock", "AF2", "AF3")
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: ``repro-serve`` pool size, and the pool the warm cache is filled with.
WORKERS = 2
#: S-group fragments ``serve-bank`` builds (60 jobs).  Ten, not all 20, so
#: that several served builds fit in one run and a median can absorb a slow one.
SERVE_FRAGMENTS = 10
#: Longest wait for a child process (probe, daemon start or stop).
CHILD_TIMEOUT_S = 60.0

#: Units of the ``--trace 0`` metrics (the ``end_to_end`` list of BENCHMARK.json).
END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "qdock_ca_rmsd_mean": "angstrom",
    "qdock_neg_affinity_mean": "kcal/mol",
}

#: Units of the ``--trace 1`` metrics (the ``per_layer`` list of BENCHMARK.json).
PER_LAYER_UNITS = {
    "lattice.breakdown.calls": "count",
    "lattice.breakdown.s": "s",
    "lattice.decode_counts.s": "s",
    "lattice.decode_counts.configs": "count",
    "lattice.classical_solve.calls": "count",
    "lattice.classical_solve.s": "s",
    "vqe.minimize.s": "s",
    "vqe.objective.evals": "count",
    "quantum.sample.calls": "count",
    "quantum.sample.s": "s",
    "quantum.sample.shots": "count",
    "bio.reference.generate.calls": "count",
    "bio.reference.generate.s": "s",
    "folding.fold_fragment.calls": "count",
    "folding.fold_fragment.s": "s",
    "folding.baseline_fold.calls": "count",
    "folding.baseline_fold.s": "s",
    "docking.prepare.s": "s",
    "docking.search.s": "s",
    "docking.poses_scored": "count",
    "docking.score.s": "s",
    "engine.cache.hits": "count",
    "engine.cache.misses": "count",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.get.s": "s",
    "engine.cache.put.s": "s",
    "engine.cache.bytes_written": "bytes",
    "engine.session.fold.s": "s",
    "engine.session.dock.s": "s",
    "engine.transport.submit.s": "s",
    "engine.transport.poll.calls": "count",
    "engine.transport.poll.s": "s",
    "engine.transport.first_completion_s": "s",
    "serve.jobs_accepted": "count",
    "serve.jobs_rejected": "count",
    "serve.cache_hits": "count",
    "dataset.prepare_context.s": "s",
    "dataset.build.self_s": "s",
    "cli.import_repro_s": "s",
    "cli.worker_import_s": "s",
    "trace.build_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def bench_config(**updates: Any) -> PipelineConfig:
    """The ``benchmarks/conftest.py`` pipeline settings (``config.seed`` 2025)."""
    return PipelineConfig.fast().with_updates(docking_seeds=4, docking_mc_steps=150, **updates)


def bank_slice(seed: int, groups: tuple[str, ...], per_group: int) -> list[Fragment]:
    """The first ``per_group`` fragments of each length group, in an order drawn from ``seed``.

    The seed permutes the slice; it changes neither the fragments nor
    ``config.seed``.  Both were tried as seeded inputs and both moved the
    numbers between seeds by more than any usable bound: single fold jobs
    on the L and M groups take from 0.4 s to 13.5 s, and five values of
    ``config.seed`` moved the mean QDock RMSD of one slice from 0.97 to 1.42 Å.
    """
    fragments = [f for group in groups for f in fragments_by_group(group)[:per_group]]
    random.Random(seed).shuffle(fragments)
    return fragments


def bank_digest(bank) -> str:
    """SHA-256 over every entry's metadata, evaluations and structure coordinates."""

    def plain(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, np.generic):
            return value.item()
        raise TypeError(f"cannot digest {type(value).__name__}")

    digest = hashlib.sha256()
    for entry in bank:
        record = {
            "pdb_id": entry.pdb_id,
            "sequence": entry.fragment.sequence,
            "metadata": entry.quantum_metadata,
            "evaluations": {m: ev.as_dict() for m, ev in entry.evaluations.items()},
        }
        digest.update(json.dumps(record, sort_keys=True, default=plain).encode("utf-8"))
        structures = [entry.predicted_structure, entry.reference_structure]
        structures += [entry.baseline_structures[m] for m in sorted(entry.baseline_structures)]
        for structure in structures:
            if structure is not None:
                digest.update(np.ascontiguousarray(structure.all_coords(), dtype=float).tobytes())
    return digest.hexdigest()


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path`` (0 when absent)."""
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def child_env(workdir: Path) -> dict[str, str]:
    """Environment for child interpreters: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(workdir)
    return env


class ServeDaemon:
    """One ``repro-serve --workers 2`` process with a fresh cache directory.

    ``ready_s`` is the time from launch until the daemon accepted a TCP
    connection; :meth:`stop` sends SIGTERM and returns the service counters
    the daemon prints on exit.
    """

    def __init__(self, workdir: Path, index: int):
        self.cache_dir = workdir / f"serve-cache-{index}"
        self.log_path = workdir / f"serve-{index}.log"
        self._log = self.log_path.open("wb")
        start = time.monotonic()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli.serve",
                "--port", "0", "--workers", str(WORKERS), "--cache-dir", str(self.cache_dir),
            ],
            env=child_env(workdir),
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        try:
            self.port = self._wait_listening(start + CHILD_TIMEOUT_S)
            self._wait_accepting(start + CHILD_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.monotonic() - start

    def _wait_listening(self, deadline: float) -> int:
        while True:
            match = re.search(r"listening on \S+:(\d+)", self.log_path.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro-serve did not start: {self._log_tail()}")
            time.sleep(0.01)

    def _wait_accepting(self, deadline: float) -> None:
        while True:
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=1.0).close()
                return
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"repro-serve refused connections: {self._log_tail()}")
                time.sleep(0.01)

    def _log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]

    def stop(self) -> dict[str, Any]:
        """Stop the daemon, wait for it, and return its exit stats (or ``{}``)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()
        for line in reversed(self.log_path.read_text(errors="replace").splitlines()):
            if line.startswith("repro-serve: {"):
                return json.loads(line[len("repro-serve: "):])
        return {}


class Run:
    """One benchmark invocation: its inputs, scratch space, timings and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.config = bench_config()
        if tiny:
            self.fragments = bank_slice(seed, ("S",), 2)
        elif workload == "serve-bank":
            self.fragments = bank_slice(seed, ("S",), SERVE_FRAGMENTS)
        else:
            self.fragments = bank_slice(seed, ("L", "M", "S"), 3)
        self.run_id = f"{workload}-{seed}-{uuid.uuid4().hex[:8]}"
        self.workdir = WORK_ROOT / self.run_id
        self.workdir.mkdir(parents=True)
        self.setup_s = 0.0
        self.imports: list[float] = []
        self.builds: list[float] = []
        self.checks: list[tuple[str, bool]] = []
        self.jobs = 0
        self.failed_jobs = 0
        self.bank = None
        self.layers: dict[str, float] = {}
        self._dirs = 0

    # -- scratch -----------------------------------------------------------------------

    def fresh_dir(self, name: str) -> Path:
        """A new, not yet created directory under this run's scratch space."""
        self._dirs += 1
        return self.workdir / f"{name}-{self._dirs}"

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- set-up ------------------------------------------------------------------------

    def probe(self, *args: str) -> tuple[float, float]:
        """Run ``probe.py`` in a fresh interpreter: (start-to-ready s, import s)."""
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *args],
            env=child_env(self.workdir),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        return report["ready"] - start, report["import_s"]

    def engine_setup(self, transport: str) -> float:
        """One fresh-interpreter ``import repro`` + ``DatasetBuilder`` set-up."""
        ready_s, import_s = self.probe("engine", str(self.fresh_dir("probe-cache")), transport)
        self.imports.append(import_s)
        return ready_s

    # -- builds and checks -------------------------------------------------------------

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))
        if not ok:
            print(f"perfbench: check failed: {name}", file=sys.stderr)

    def measuring(self) -> bool:
        """Whether to make another timed build: until they add up to ``--seconds``."""
        return sum(self.builds) < self.seconds

    def build(self, builder: DatasetBuilder, tracer: Tracer | None = None):
        """Time one ``builder.build`` call; check its entries; return (bank, seconds)."""
        if tracer is not None:
            instrument(tracer)
        try:
            start = time.perf_counter()
            bank = builder.build(self.fragments)
            elapsed = time.perf_counter() - start
            print(f"perfbench: {self.workload} build {elapsed:.3f} s", file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.restore()
        stats = builder.engine.stats()
        self.jobs += len(self.fragments) * 2 * len(METHODS)
        self.failed_jobs += stats["failed_jobs"]
        self.check_entries(bank)
        self.bank = bank
        return bank, elapsed

    def check_entries(self, bank) -> None:
        """One check per requested fragment: present, finite RMSD and affinity."""
        entries = {(e.pdb_id, e.fragment.sequence): e for e in bank}
        for fragment in self.fragments:
            entry = entries.get((fragment.pdb_id, fragment.sequence))
            ok = entry is not None and all(
                method in entry.evaluations
                and math.isfinite(entry.evaluations[method].ca_rmsd)
                and math.isfinite(entry.evaluations[method].affinity)
                for method in METHODS
            )
            self.check(f"entry {fragment.pdb_id}", ok)

    def check_cold_jobs(self, builder: DatasetBuilder) -> None:
        """A cold build runs N fold, 2N baseline_fold and 3N dock jobs, none failing."""
        n = len(self.fragments)
        stats = builder.engine.stats()
        self.check(
            "cold job counts",
            stats["executed_by_kind"] == {"fold": n, "baseline_fold": 2 * n, "dock": 3 * n}
            and stats["failed_jobs"] == 0,
        )

    # -- reporting ---------------------------------------------------------------------

    def attempted(self) -> int:
        return self.jobs + len(self.checks)

    def failed(self) -> int:
        return self.failed_jobs + sum(1 for _, ok in self.checks if not ok)

    def end_to_end(self) -> dict[str, float]:
        rusage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        qdock = [entry.evaluations["QDock"] for entry in self.bank]
        return {
            "setup_s": self.setup_s,
            "build_s": statistics.median(self.builds),
            "peak_rss_mb": rusage / 1024.0,
            "ok_share": (self.attempted() - self.failed()) / self.attempted(),
            "qdock_ca_rmsd_mean": statistics.fmean(e.ca_rmsd for e in qdock),
            "qdock_neg_affinity_mean": -statistics.fmean(e.affinity for e in qdock),
        }

    def record_trace(self, tracer: Tracer, traced_s: float, cache_bytes: int) -> None:
        """Turn a traced build's spans and counters into the per-layer metrics."""
        summary = tracer.summary()
        counts = tracer.counts
        # ``<span>.calls`` and ``<span>.s`` come from the span summary, any
        # other name from the counters; the rest are set explicitly below.
        for name in PER_LAYER_UNITS:
            span, _, what = name.rpartition(".")
            if what in ("calls", "s"):
                self.layers[name] = summary.get(span, {}).get(what, 0)
            else:
                self.layers[name] = counts.get(name, 0)
        lookups = counts["engine.cache.hits"] + counts["engine.cache.misses"]
        self.layers["engine.cache.hit_ratio"] = counts["engine.cache.hits"] / lookups if lookups else 0.0
        self.layers["engine.cache.bytes_written"] = cache_bytes
        self.layers["dataset.build.self_s"] = summary.get("dataset.build", {}).get("self_s", 0.0)
        self.layers["trace.build_s"] = traced_s
        self.layers["trace.overhead_s"] = traced_s - statistics.median(self.builds)
        self.layers["trace.spans"] = len(tracer.spans)
        worker_imports = [self.probe("worker")[1] for _ in range(SETUP_SAMPLES)]
        self.layers["cli.import_repro_s"] = statistics.median(self.imports)
        self.layers["cli.worker_import_s"] = statistics.median(worker_imports)
        tracer.write(
            OUT_DIR / f"trace-{self.workload}-seed{self.seed}.json.gz",
            {"workload": self.workload, "seed": self.seed, "metrics": self.layers},
        )

    def result(self) -> dict[str, Any]:
        values = self.layers if self.trace else self.end_to_end()
        units = PER_LAYER_UNITS if self.trace else END_TO_END_UNITS
        return {
            "correct": self.failed() == 0,
            "attempted": self.attempted(),
            "failed": self.failed(),
            "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
        }


# -- tracing -------------------------------------------------------------------------


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the bank build passes through."""
    import inspect

    import repro.dataset.batch as batch
    import repro.engine.core as engine_core
    import repro.folding.baselines as baselines
    from repro.bio.reference import ReferenceStructureGenerator
    from repro.docking.scoring import VinaScoringFunction
    from repro.docking.vina import DockingEngine
    from repro.engine.cache.local import LocalDirTier
    from repro.engine.session import Session
    from repro.engine.transports import (
        FileQueueTransport,
        NetworkTransport,
        PoolTransport,
        SerialTransport,
    )
    from repro.lattice.classical import ClassicalFoldingSolver
    from repro.lattice.decoder import ConformationDecoder
    from repro.lattice.hamiltonian import LatticeHamiltonian
    from repro.quantum.backend import Backend
    from repro.vqe.optimizer import CobylaOptimizer

    counts = tracer.counts

    def argument(fn: Callable[..., Any], name: str) -> Callable[[tuple, dict], Any]:
        signature = inspect.signature(fn)
        return lambda args, kwargs: signature.bind(*args, **kwargs).arguments[name]

    tracer.wrap(LatticeHamiltonian, "breakdown", "lattice.breakdown")
    decode_counts = argument(ConformationDecoder.decode_counts, "counts")

    def count_configs(args, kwargs, result, start, end):
        counts["lattice.decode_counts.configs"] += len(decode_counts(args, kwargs))

    tracer.wrap(ConformationDecoder, "decode_counts", "lattice.decode_counts", after=count_configs)
    tracer.wrap(ClassicalFoldingSolver, "solve", "lattice.classical_solve")

    minimize = inspect.signature(CobylaOptimizer.minimize)

    def count_objective(args, kwargs):
        bound = minimize.bind(*args, **kwargs)
        objective = bound.arguments["objective"]

        def counted(x):
            counts["vqe.objective.evals"] += 1
            return objective(x)

        bound.arguments["objective"] = counted
        return bound.args, bound.kwargs

    tracer.wrap(CobylaOptimizer, "minimize", "vqe.minimize", transform=count_objective)

    backends = [Backend]
    for cls in backends:
        backends.extend(sub for sub in cls.__subclasses__() if sub not in backends)
    for cls in backends:
        for attr in ("sample_array", "sample_parameterised"):
            if attr in cls.__dict__:
                shots = argument(cls.__dict__[attr], "shots")
                tracer.wrap(
                    cls, attr, "quantum.sample",
                    after=lambda a, k, r, s, e, shots=shots: counts.update(
                        {"quantum.sample.shots": int(shots(a, k))}
                    ),
                )

    tracer.wrap(ReferenceStructureGenerator, "generate", "bio.reference.generate")
    tracer.wrap(engine_core, "fold_fragment", "folding.fold_fragment")
    tracer.wrap(baselines, "baseline_fold_fragment", "folding.baseline_fold")
    tracer.wrap(DockingEngine, "prepare", "docking.prepare")
    tracer.wrap(DockingEngine, "dock_prepared", "docking.search")
    for attr in ("score_coords", "score_pose", "score_coords_batch"):
        poses = (lambda a, k: len(a[1])) if attr == "score_coords_batch" else (lambda a, k: 1)
        tracer.wrap(
            VinaScoringFunction, attr, "docking.score",
            after=lambda a, k, r, s, e, poses=poses: counts.update({"docking.poses_scored": poses(a, k)}),
        )

    def count_lookup(args, kwargs, result, start, end):
        counts["engine.cache.misses" if result is None else "engine.cache.hits"] += 1

    tracer.wrap(LocalDirTier, "get", "engine.cache.get", after=count_lookup)
    tracer.wrap(LocalDirTier, "put", "engine.cache.put")

    def session_phase(args: tuple) -> str:
        session_id = str(args[0].session_id)
        for phase in ("fold", "dock"):
            if session_id.startswith(f"build-{phase}-"):
                return f"engine.session.{phase}"
        return "engine.session.other"

    tracer.wrap(Session, "results", session_phase)

    submitted: dict[int, float] = {}

    def on_submit(args, kwargs, result, start, end):
        submitted[id(args[0])] = start

    def on_poll(args, kwargs, result, start, end):
        began = submitted.pop(id(args[0]), None) if result else None
        if began is not None:
            counts["engine.transport.first_completion_s"] += end - began

    for cls in (SerialTransport, PoolTransport, NetworkTransport, FileQueueTransport):
        tracer.wrap(cls, "submit", "engine.transport.submit", after=on_submit)
        tracer.wrap(cls, "poll", "engine.transport.poll", after=on_poll)

    tracer.wrap(batch, "prepare_context", "dataset.prepare_context")
    tracer.wrap(DatasetBuilder, "build", "dataset.build")


# -- workloads -----------------------------------------------------------------------


def engine_setups(run: Run, transport: str) -> float:
    """Median fresh-interpreter engine set-up time over ``SETUP_SAMPLES`` probes."""
    return statistics.median(run.engine_setup(transport) for _ in range(SETUP_SAMPLES))


def cold_bank(run: Run) -> None:
    run.setup_s = engine_setups(run, "auto")
    digests = []
    while run.measuring():
        builder = DatasetBuilder(config=run.config, cache_dir=run.fresh_dir("cache"))
        bank, elapsed = run.build(builder)
        run.builds.append(elapsed)
        run.check_cold_jobs(builder)
        digests.append(bank_digest(bank))
    if run.trace:
        cache_dir = run.fresh_dir("cache")
        builder = DatasetBuilder(config=run.config, cache_dir=cache_dir)
        tracer = Tracer(run.run_id)
        bank, elapsed = run.build(builder, tracer)
        run.check_cold_jobs(builder)
        digests.append(bank_digest(bank))
        run.record_trace(tracer, elapsed, dir_bytes(cache_dir))
    run.check("cold builds agree", len(set(digests)) == 1)


def warm_bank(run: Run, after_fill: Callable[[Path], None] | None = None) -> None:
    run.setup_s = engine_setups(run, "auto")
    cache_dir = run.fresh_dir("cache")
    filled = DatasetBuilder(config=run.config, processes=WORKERS, cache_dir=cache_dir).build(run.fragments)
    expected = bank_digest(filled)
    if after_fill is not None:
        after_fill(cache_dir)

    def rebuild(tracer: Tracer | None = None) -> float:
        builder = DatasetBuilder(config=run.config, cache_dir=cache_dir)
        before = dir_bytes(cache_dir)
        bank, elapsed = run.build(builder, tracer)
        run.check("warm build executes no job", builder.engine.stats()["executed_jobs"] == 0)
        run.check("warm digest equals the warming build", bank_digest(bank) == expected)
        if tracer is not None:
            run.record_trace(tracer, elapsed, dir_bytes(cache_dir) - before)
        return elapsed

    while run.measuring():
        run.builds.append(rebuild())
    if run.trace:
        rebuild(Tracer(run.run_id))


def serve_bank(run: Run) -> None:
    client_s = engine_setups(run, "network")
    ready: list[float] = []
    digests: list[str] = []

    def serve_build(tracer: Tracer | None = None) -> float:
        daemon = ServeDaemon(run.workdir, len(ready))
        ready.append(daemon.ready_s)
        try:
            config = run.config.with_updates(
                transport="network", serve_host="127.0.0.1", serve_port=daemon.port
            )
            builder = DatasetBuilder(config=config)
            bank, elapsed = run.build(builder, tracer)
        finally:
            served = daemon.stop()
        run.check_cold_jobs(builder)
        digests.append(bank_digest(bank))
        if tracer is not None:
            for counter in ("jobs_accepted", "jobs_rejected", "cache_hits"):
                tracer.counts[f"serve.{counter}"] = served.get(counter, 0)
            run.record_trace(tracer, elapsed, dir_bytes(daemon.cache_dir))
        return elapsed

    while run.measuring():
        run.builds.append(serve_build())
    if run.trace:
        serve_build(Tracer(run.run_id))
    # Every daemon start is a set-up sample: the client's and the daemon's
    # set-up happen in separate processes, so their medians add.
    run.setup_s = client_s + statistics.median(ready)
    serial = DatasetBuilder(config=run.config).build(run.fragments)
    run.check("served digests equal a serial build", set(digests) == {bank_digest(serial)})


WORKLOAD_FUNCTIONS = {"cold-bank": cold_bank, "warm-bank": warm_bank, "serve-bank": serve_bank}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="End-to-end QDockBank bank-build benchmark (see perfbench/README.md).",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="two S-group fragments instead of the full slice (for the benchmark's own tests)",
    )
    return parser


def run_workload(args: argparse.Namespace, **hooks: Any) -> dict[str, Any]:
    """Run one workload and return its result record (the JSON line)."""
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    try:
        WORKLOAD_FUNCTIONS[args.workload](run, **hooks)
        return run.result()
    finally:
        run.cleanup()


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    warnings.filterwarnings("ignore", message="COBYLA")
    result = run_workload(args)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1
