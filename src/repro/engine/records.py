"""Result records: the one format a remotely executed job comes back in.

A ``repro-serve`` pool process and a file-queue ``repro-worker`` both run a
job with :func:`run_to_record` and ship the returned dict; the submitting
transport turns it back into a session completion with
:func:`record_to_completion`.  This module is the only place that knows the
format:

* ``status`` — ``"completed"`` or ``"failed"``; ``spec_hash`` and ``kind``
  identify the job;
* ``payload`` (completed) — the result's ``to_payload()``;
* ``error_type`` / ``error_message`` (failed) — the original exception's
  type name and message.

Records are canonical JSON (:func:`encode`: ``sort_keys`` plus numpy-aware
encoding, the cache's own file encoding), so a payload rebuilds to the same
bytes whether it travelled over a socket, a spool directory or a cache tier.
Failure is data: :func:`run_to_record` never raises, so a poison spec, a
crashing executor or an unserialisable payload resolves its job instead of
taking a server or a fleet worker down.

Transports stamp their own fields on top — ``server_id``/``cached``/
``stored`` on the wire; ``task_id``/``worker_id``/``duration_s`` and the
payload-free stub's ``content_hash``/``stored`` in spool result files.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.engine.transports.base import Completion, RemoteJobError
from repro.utils.io import _NumpyJSONEncoder


def execute(spec: Any) -> Any:
    """Run ``spec`` through its registered executor."""
    # Late import: transports are imported by repro.engine.core at module
    # load, so the executor dispatch must resolve lazily.
    from repro.engine.core import execute_job

    return execute_job(spec)


def encode(record: dict[str, Any]) -> bytes:
    """The canonical bytes of a record (or a bare payload)."""
    return json.dumps(record, sort_keys=True, cls=_NumpyJSONEncoder).encode("utf-8")


def _failed(exc: BaseException, message: str, spec_hash: Any, kind: Any) -> dict[str, Any]:
    return {
        "status": "failed", "error_type": type(exc).__name__, "error_message": message,
        "spec_hash": spec_hash, "kind": kind,
    }


def run_to_record(spec: Any, execute: Callable[[Any], Any] = execute) -> dict[str, Any]:
    """Fingerprint, execute and encode one job; every failure becomes a record."""
    spec_hash = kind = None
    try:
        spec_hash = getattr(spec, "content_hash", lambda: None)()
        kind = getattr(spec, "kind", "fold")
    except Exception as exc:
        return _failed(exc, f"cannot fingerprint job spec: {exc}", spec_hash, kind)
    try:
        result = execute(spec)
    except Exception as exc:
        return _failed(exc, str(exc), spec_hash, kind)
    try:
        record = {"status": "completed", "spec_hash": spec_hash, "kind": kind,
                  "payload": result.to_payload()}
        return json.loads(encode(record))
    except Exception as exc:
        return _failed(exc, f"result payload is not JSON-serialisable: {exc}", spec_hash, kind)


def record_to_completion(
    index: int, record: dict[str, Any], where: str | None, stored_in: Any = None
) -> Completion:
    """The session completion for job ``index``'s record.

    ``where`` names the server or worker that produced it (carried by a
    :class:`RemoteJobError`); ``stored_in`` is the location token of a cache
    tier that already holds the payload, so the session's write-through can
    skip it.
    """
    if record.get("status") != "completed":
        return (index, None, RemoteJobError(
            record.get("error_type") or "Error",
            record.get("error_message") or "remote job failed",
            where,
        ))
    from repro.engine.jobs import result_from_payload

    try:
        outcome = result_from_payload(record["payload"])
    except Exception as exc:
        return (index, None, RemoteJobError(
            "RecordError",
            f"cannot rebuild result of job {index}: {type(exc).__name__}: {exc}",
            where,
        ))
    # Executed remotely (or served from the remote side's cache), not from
    # this session's cache: the session caches and journals it like a pool
    # completion.
    outcome.from_cache = False
    if stored_in is not None:
        outcome.stored_in = stored_in
    return (index, outcome, None)
