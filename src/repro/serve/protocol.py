"""The ``repro-serve`` wire protocol: length-prefixed pickled frames.

The network transport needs exactly what the file-queue spool provides —
submit job specs, stream ``(index, outcome)`` completions back — minus the
shared filesystem.  The wire format mirrors the spool's file format:

* every message is one **frame**: a 4-byte big-endian length prefix followed
  by a pickled ``dict`` (specs are arbitrary registered classes, so the
  envelope travels as a pickle, exactly like a ``tasks/<id>.task`` file);
* the **result record** inside a ``result`` frame is the one format
  :mod:`repro.engine.records` defines for every remote transport, so a
  client rebuilds byte-identical payloads whether a job travelled over a
  socket or a spool directory.

Like spool pickles, frames are **trusted local state**: bind ``repro-serve``
to localhost or a private network you control — never expose it to clients
you would not let write your spool directory.

Message types
-------------

================= =========== ==================================================
frame             direction   fields
================= =========== ==================================================
``hello``          c -> s     ``client_id``, ``protocol``
``welcome``        s -> c     ``protocol``, ``server_id``, ``max_inflight``
``job``            c -> s     ``index``, ``spec`` (pickled spec object)
``result``         s -> c     ``index``, ``record`` (a result record)
``busy``           s -> c     ``index``, ``reason`` (admission-control rejection)
``error``          s -> c     ``reason`` (protocol violation; connection closes)
``bye``            c -> s     clean disconnect (submitter walked away)
``cache_get``      c -> s     ``key``, optional ``peek`` (stat-neutral lookup)
``cache_payload``  s -> c     ``key``, ``payload`` (``None`` on a miss)
``cache_put``      c -> s     ``key``, ``payload`` (canonical-JSON result payload)
``cache_ack``      s -> c     ``key``, ``stored`` (``False`` = dropped, retry elsewhere)
``cache_stats``    c <-> s    request has no fields; reply carries ``stats``
================= =========== ==================================================

The ``cache_*`` frames are how a
:class:`~repro.engine.cache.RemoteTier` reads and writes the server's local
cache tier — the request/reply pairs share one connection with job traffic
and are answered in arrival order through the same per-connection outbox.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any

from repro.exceptions import EngineError

#: Protocol version spoken by this build; ``hello``/``welcome`` must agree.
PROTOCOL_VERSION = 1

#: Hard cap on a single frame.  A job spec or result record larger than this
#: is almost certainly a bug (the cache payloads these mirror are a few MB at
#: most); the cap keeps a corrupt or hostile length prefix from allocating
#: unbounded memory.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(EngineError):
    """The peer sent bytes that are not a well-formed protocol frame."""


def encode_frame(message: dict[str, Any]) -> bytes:
    """One wire frame: length prefix + pickled message dict."""
    body = pickle.dumps(message)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return _LENGTH.pack(len(body)) + body


def send_message(sock: socket.socket, message: dict[str, Any]) -> None:
    """Write one frame (the caller serialises concurrent senders)."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _body_length(header: bytes) -> int:
    """The body length a frame's prefix announces, refusing oversized frames."""
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})"
        )
    return length


def _decode(body: bytes) -> dict[str, Any]:
    """Unpickle one frame body into a message dict."""
    try:
        message = pickle.loads(body)
    except Exception as exc:
        raise ProtocolError(f"cannot decode frame: {type(exc).__name__}: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"frame is not a message dict: {type(message).__name__}")
    return message


def recv_message(sock: socket.socket) -> dict[str, Any]:
    """Read one frame, blocking until it is complete.

    Raises ``ConnectionError`` on EOF and :class:`ProtocolError` on a frame
    that is oversized or does not decode to a message dict.
    """
    length = _body_length(_recv_exact(sock, _LENGTH.size))
    return _decode(_recv_exact(sock, length))


class FrameBuffer:
    """Incremental frame parser for a non-blocking reader.

    The client transport reads the socket in timeout-bounded slices (its
    ``poll`` must honour a deadline); whatever bytes arrive are fed here and
    complete messages are drained with :meth:`next_message` — partial frames
    wait for the next slice.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def next_message(self) -> dict[str, Any] | None:
        """The next complete message, or ``None`` when more bytes are needed."""
        if len(self._buffer) < _LENGTH.size:
            return None
        end = _LENGTH.size + _body_length(self._buffer[: _LENGTH.size])
        if len(self._buffer) < end:
            return None
        body = bytes(self._buffer[_LENGTH.size : end])
        del self._buffer[:end]
        return _decode(body)
