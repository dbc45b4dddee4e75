"""Local transports: in-process serial execution and the process pool.

``SerialTransport`` runs each job in the calling process — the reference
execution every other transport must reproduce bit-identically, and the one
unit tests default to.  ``PoolTransport`` fans the batch out over a
:func:`~repro.engine.core.worker_pool` (one future per spec, no chunking,
completions in completion order), whose workers start with the parent's
backend/executor registries.  Both return live result objects, not
:mod:`~repro.engine.records` result records.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Any, ClassVar, Sequence

from repro.engine import records
from repro.engine.transports.base import Completion, Transport, register_transport
from repro.exceptions import EngineError


class SerialTransport(Transport):
    """Execute jobs one at a time in the calling process (submission order)."""

    name: ClassVar[str] = "serial"

    def __init__(self) -> None:
        self._specs: list[Any] = []
        self._next = 0
        self._submitted = False

    def submit(self, specs: Sequence[Any]) -> int:
        if self._submitted:
            raise EngineError("a transport serves one batch; submit() was already called")
        self._submitted = True
        self._specs = list(specs)
        return len(self._specs)

    def poll(self, timeout: float | None = None) -> list[Completion]:
        """Execute the next queued job and return its completion.

        A failing job becomes an ``(index, None, exception)`` completion; it
        never stops the batch — isolation is the session's policy decision.
        """
        if self.outstanding() <= 0:
            return []
        index = self._next
        self._next += 1
        try:
            result = records.execute(self._specs[index])
        except Exception as exc:
            return [(index, None, exc)]
        return [(index, result, None)]

    def cancel(self) -> None:
        self._next = len(self._specs)

    def outstanding(self) -> int:
        return len(self._specs) - self._next


class PoolTransport(Transport):
    """Fan the batch out over a process pool; completions in completion order."""

    name: ClassVar[str] = "pool"

    def __init__(self, processes: int):
        self.processes = max(1, int(processes))
        self._pool: ProcessPoolExecutor | None = None
        self._futures: dict[Future, int] = {}
        self._serial: SerialTransport | None = None
        self._submitted = False

    def submit(self, specs: Sequence[Any]) -> int:
        if self._submitted:
            raise EngineError("a transport serves one batch; submit() was already called")
        self._submitted = True
        specs = list(specs)
        if len(specs) <= 1:
            # A single-job batch (e.g. a resume with one never-completed job)
            # gains nothing from a pool: run it in-process, where even
            # unpicklable runtime registrations stay visible.
            self._serial = SerialTransport()
            return self._serial.submit(specs)
        from repro.engine.core import worker_pool

        self._pool = worker_pool(self.processes)
        for index, spec in enumerate(specs):
            self._futures[self._pool.submit(records.execute, spec)] = index
        return len(self._futures)

    def poll(self, timeout: float | None = None) -> list[Completion]:
        if self._serial is not None:
            return self._serial.poll(timeout)
        if not self._futures:
            return []
        done, _ = wait(self._futures, timeout=timeout, return_when=FIRST_COMPLETED)
        completions: list[Completion] = []
        for future in done:
            index = self._futures.pop(future)
            exc = future.exception()
            if exc is not None:
                completions.append((index, None, exc))
            else:
                completions.append((index, future.result(), None))
        return completions

    def cancel(self) -> None:
        if self._serial is not None:
            self._serial.cancel()
        self._futures.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def outstanding(self) -> int:
        if self._serial is not None:
            return self._serial.outstanding()
        return len(self._futures)


def _build_serial(config: Any, processes: int) -> SerialTransport:
    return SerialTransport()


def _build_pool(config: Any, processes: int) -> PoolTransport:
    return PoolTransport(processes=processes)


register_transport("serial", _build_serial)
register_transport("pool", _build_pool)
