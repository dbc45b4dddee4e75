"""The job-record codec paths the transport batteries do not reach: an
unrebuildable payload is the same error on every remote transport, and a
repro-serve client that disconnects cancels its queued jobs into failed
records without leaking admission slots."""

from __future__ import annotations

import hashlib
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

import pytest

from repro.engine import FileQueueTransport, FileQueueWorker, NetworkTransport
from repro.engine.transports.base import RemoteJobError
from repro.serve import PROTOCOL_VERSION, ReproServer, recv_message, send_message


@dataclass(frozen=True)
class PingSpec:
    name: str

    kind: ClassVar[str] = "ping"

    def content_hash(self) -> str:
        return hashlib.sha256(f"ping/v1\x1f{self.name}".encode("utf-8")).hexdigest()


class _FakeOutcome:
    def __init__(self, payload: dict[str, Any]):
        self._payload = payload

    def to_payload(self) -> dict[str, Any]:
        return self._payload


def _fake_execute(spec: PingSpec) -> _FakeOutcome:
    # "ping/v1" is no result schema: result_from_payload cannot rebuild it.
    return _FakeOutcome({"spec_hash": spec.content_hash(), "schema": "ping/v1", "name": spec.name})


def _wait_for(condition: Callable[[], bool], timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.01)


# -- record_to_completion, through both remote transports ---------------------------


def _network_completions(tmp_path, specs):
    with ReproServer(workers=0, execute=_fake_execute) as server:
        transport = NetworkTransport("127.0.0.1", server.port, poll_interval=0.01)
        return list(transport.stream(specs))


def _filequeue_completions(tmp_path, specs):
    transport = FileQueueTransport(tmp_path / "spool", workers=0, poll_interval=0.01)
    try:
        transport.submit(specs)
        worker = FileQueueWorker(transport.spool, worker_id="w1", execute=_fake_execute)
        while worker.run_once():
            pass
        completions = []
        deadline = time.monotonic() + 10.0
        while transport.outstanding() and time.monotonic() < deadline:
            completions.extend(transport.poll(timeout=1.0))
        return completions
    finally:
        transport.cancel()


@pytest.mark.parametrize(
    "completions", [_network_completions, _filequeue_completions], ids=["network", "filequeue"]
)
def test_an_unrebuildable_payload_is_one_error_type_on_every_transport(tmp_path, completions):
    [(index, result, exc)] = completions(tmp_path, [PingSpec("a")])
    assert index == 0 and result is None
    assert isinstance(exc, RemoteJobError)
    assert exc.error_type == "RecordError"
    assert "cannot rebuild result of job 0" in exc.error_message


# -- repro-serve cancel-on-disconnect -----------------------------------------------


def test_a_disconnect_cancels_queued_jobs_into_failed_records():
    """Jobs still queued behind busy workers when their client goes away are
    cancelled; each cancellation settles as a failed record, so the backlog
    drains back to zero once the running jobs finish."""
    gate = threading.Event()
    started: list[str] = []

    def gated(spec):
        started.append(spec.name)
        gate.wait(timeout=10.0)
        return _fake_execute(spec)

    jobs = 6  # more than the in-process pool's 4 threads: some must queue
    try:
        with ReproServer(workers=0, execute=gated) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                send_message(sock, {"type": "hello", "client_id": "leaver",
                                    "protocol": PROTOCOL_VERSION})
                assert recv_message(sock)["type"] == "welcome"
                for index in range(jobs):
                    send_message(sock, {"type": "job", "index": index,
                                        "spec": PingSpec(f"j{index}")})
                _wait_for(lambda: server.stats()["jobs_accepted"] == jobs)
            # The client is gone; everything not yet running is cancelled.
            _wait_for(lambda: server.stats()["jobs_failed"] >= 1)
            gate.set()
            _wait_for(lambda: server.stats()["pending"] == 0)
            stats = server.stats()
    finally:
        gate.set()
    assert stats["jobs_completed"] == len(started)
    assert stats["jobs_failed"] == jobs - len(started) >= 1
