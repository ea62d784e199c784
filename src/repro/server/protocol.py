"""The wire protocol: length-prefixed JSON frames.

Every message — in both directions — is one UTF-8 JSON object prefixed with
its byte length as a 4-byte big-endian unsigned integer.  JSON because every
value the engines produce (int/float/str/NULL) survives the round trip
losslessly; length prefixes because they make framing trivial for both the
asyncio server and the blocking client socket.

Client → server frames (``type`` field):

* ``query`` — ``{"type": "query", "sql": ..., "params": [...]}``: run one
  statement (SELECT / EXPLAIN / DDL / DML) and return a ``result`` frame;
* ``prepare`` — parse/bind/optimize without executing; returns ``prepared``
  with a ``statement_id`` to ``execute`` against;
* ``execute`` — ``{"type": "execute", "statement_id": ..., "params": [...]}``:
  run a prepared statement;
* ``fetch`` — ``{"type": "fetch", "result_id": ..., "limit": n}``: page
  through a result set larger than the server's inline-row threshold
  (the ``rows`` frame that answers it carries arrays, like ``result``);
* ``script`` — run a ``;``-separated script, returning every result;
* ``tables`` / ``stats`` / ``refresh`` — introspection and an explicit
  incremental re-optimization pass (the remote REPL's meta commands);
* ``metrics`` / ``traces`` / ``events`` — the observability surface:
  the metrics registry (JSON, or Prometheus text with
  ``"format": "prometheus"``), the trace ring buffer, and the
  re-optimization/slow-query event log.

Server → client frames: ``hello`` (session id, sent once on connect),
``result`` (``columns`` once, then ``rows`` as arrays of values ordered like
them), ``prepared``, ``rows``, ``results``, ``tables``, ``stats``,
``refreshed``, ``metrics``, ``traces``, ``events`` and ``error``.  An
``error`` frame carries the exception class name, the bare message, the
1-based ``(line, column)`` position and the source text, so the client
reconstructs the same caret-positioned
:class:`~repro.common.errors.SqlError` the in-process API raises — plus the
server-side ``trace_id`` when tracing captured the failing statement.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, List, Optional

from repro.common.errors import (
    ReproError,
    SqlBindingError,
    SqlError,
    SqlSyntaxError,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_frame",
    "read_frame",
    "recv_frame",
    "send_frame",
    "result_payload",
    "error_payload",
    "raise_error_payload",
]

#: refuse frames above this size — a corrupt length prefix must not make the
#: reader try to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(ReproError):
    """The peer sent bytes that do not parse as a protocol frame."""


# -- framing ---------------------------------------------------------------


def encode_frame(message: Dict[str, object]) -> bytes:
    """One message as length-prefixed JSON bytes."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(body)) + body


def _decode_body(body: bytes) -> Dict[str, object]:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("frame is not an object with a 'type' field")
    return message


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")


async def read_frame(reader) -> Optional[Dict[str, object]]:
    """Read one frame from an asyncio stream; None on clean EOF."""
    import asyncio

    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection closed mid-frame") from error
    (length,) = _LENGTH.unpack(prefix)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid-frame") from error
    return _decode_body(body)


def send_frame(sock: socket.socket, message: Dict[str, object]) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(message))


def recv_frame(sock: socket.socket) -> Optional[Dict[str, object]]:
    """Read one frame from a blocking socket; None on clean EOF."""
    prefix = _recv_exactly(sock, _LENGTH.size, at_boundary=True)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    _check_length(length)
    body = _recv_exactly(sock, length, at_boundary=False)
    if body is None:  # pragma: no cover - defensive; _recv_exactly raises
        raise ProtocolError("connection closed mid-frame")
    return _decode_body(body)


def _recv_exactly(
    sock: socket.socket, count: int, at_boundary: bool
) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if at_boundary and not chunks:
                return None  # clean EOF between frames
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- payloads --------------------------------------------------------------


def result_payload(result) -> Dict[str, object]:
    """A :class:`~repro.api.database.StatementResult` as a JSON-safe dict.

    The column names travel once; each row is a JSON array of values ordered
    like them (the result's ``tuples``, which JSON encodes as arrays).  Rows
    are included verbatim (the caller decides whether to spill large sets
    behind a ``result_id`` + ``fetch`` paging instead).
    """
    return {
        "type": "result",
        "statement": result.statement,
        "columns": list(result.columns),
        "rows": list(result.tuples),
        "rowcount": result.rowcount,
        "plan_text": result.plan_text,
        "parameter_count": result.parameter_count,
        "from_cache": result.from_cache,
        "trace_id": getattr(result, "trace_id", None),
    }


def error_payload(error: Exception) -> Dict[str, object]:
    """An exception as an ``error`` frame the client can reconstruct."""
    payload: Dict[str, object] = {
        "type": "error",
        "name": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, SqlError):
        payload["bare_message"] = error.bare_message
        payload["position"] = list(error.position) if error.position else None
        payload["source"] = error.source
    # With server-side tracing on, Database.execute stamps the failing
    # statement's trace id onto the exception; echo it so the client can
    # fetch the trace through a 'traces' frame.
    trace_id = getattr(error, "trace_id", None)
    if trace_id is not None:
        payload["trace_id"] = trace_id
    return payload


#: error-frame names reconstructed as their original class; anything else
#: (engine bugs, protocol misuse) surfaces as a plain SqlError.
_ERROR_CLASSES = {
    "SqlError": SqlError,
    "SqlSyntaxError": SqlSyntaxError,
    "SqlBindingError": SqlBindingError,
}


def raise_error_payload(payload: Dict[str, object]) -> None:
    """Re-raise the exception described by an ``error`` frame."""
    name = payload.get("name")
    cls = _ERROR_CLASSES.get(name)
    if cls is not None and "bare_message" in payload:
        position = payload.get("position")
        error: SqlError = cls(
            payload["bare_message"],
            tuple(position) if position else None,
            payload.get("source"),
        )
    else:
        error = SqlError(str(payload.get("message", "server error")))
    trace_id = payload.get("trace_id")
    if trace_id is not None:
        try:
            error.trace_id = trace_id  # type: ignore[attr-defined]
        except AttributeError:  # pragma: no cover - slotted exception types
            pass
    raise error
