"""HTTP/1.1 + WebSocket facade over the async dispatch core.

Browser clients (and plain ``curl``) cannot speak the raw JSONL line
protocol, so the async daemon optionally binds a second port serving a
deliberately tiny HTTP surface — hand-rolled on asyncio streams
because the toolchain constraint forbids new dependencies:

* ``GET /healthz`` — ``200 {"ok": true, "draining": ...}`` liveness.
* ``GET /metrics`` — the Prometheus text exposition (same bytes as
  ``repro serve metrics --format prometheus``).
* ``POST /task`` — body is one task record (or one control op);
  answers the canonical JSON envelope.  Admission control applies:
  an overloaded rejection answers ``429``, draining ``503``.
* ``GET /ws`` — RFC 6455 WebSocket upgrade.  Each text frame carries
  one protocol line (task records, control ops, ``hello``, streaming
  ``batch``); each response line comes back as one text frame.  A
  WebSocket connection is inherently multiplexed: responses arrive in
  completion order and clients correlate via ``rid``/task ``id``.

The frame codec implements only what a conforming client needs:
masked client→server frames (the RFC mandates masking), unmasked
server frames, text/ping/pong/close opcodes, and 7/16/64-bit payload
lengths.  Fragmented messages and extensions are answered with a
close frame rather than half-supported.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
from typing import Dict, Optional, Tuple

from repro.batch.tasks import canonical_json
from repro.service.async_daemon import (
    AsyncSolverService,
    parse_control,
    strip_rid,
)

#: RFC 6455 §1.3 — the fixed GUID appended to the client key.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

_OP_TEXT = 0x1
_OP_CLOSE = 0x8
_OP_PING = 0x9
_OP_PONG = 0xA

_MAX_BODY = 4 * 1024 * 1024  # one request body / websocket frame


def websocket_accept(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client key."""
    digest = hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def encode_frame(payload: bytes, opcode: int = _OP_TEXT,
                 mask: bool = False) -> bytes:
    """One complete (FIN=1) WebSocket frame.

    Servers send unmasked frames; the client helper in
    :mod:`repro.service.loadgen` sets ``mask=True`` as RFC 6455 §5.1
    requires of clients.
    """
    header = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        header.append(mask_bit | length)
    elif length < (1 << 16):
        header.append(mask_bit | 126)
        header += struct.pack(">H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack(">Q", length)
    if mask:
        # A fixed key is fine here: masking exists to defeat proxy
        # cache poisoning, not for secrecy, and the tests/load tool
        # are the only in-repo clients.
        key = b"\x37\xfa\x21\x3d"
        header += key
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(header) + payload


async def read_frame(reader: asyncio.StreamReader
                     ) -> Tuple[int, bytes]:
    """``(opcode, payload)`` for the next frame; unmasks client frames."""
    first = await reader.readexactly(2)
    fin = first[0] & 0x80
    opcode = first[0] & 0x0F
    masked = first[1] & 0x80
    length = first[1] & 0x7F
    if not fin:
        raise ValueError("fragmented websocket frames are unsupported")
    if length == 126:
        length = struct.unpack(">H", await reader.readexactly(2))[0]
    elif length == 127:
        length = struct.unpack(">Q", await reader.readexactly(8))[0]
    if length > _MAX_BODY:
        raise ValueError(f"websocket frame of {length} bytes exceeds "
                         f"the {_MAX_BODY} byte bound")
    key = await reader.readexactly(4) if masked else None
    payload = await reader.readexactly(length)
    if key is not None:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return opcode, payload


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """``(method, path, headers, body)`` or ``None`` on EOF/garbage."""
    try:
        request_line = await reader.readline()
    except ConnectionError:
        return None
    if not request_line:
        return None
    try:
        method, path, _version = request_line.decode("ascii").split(None, 2)
    except ValueError:
        return None
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = int(headers.get("content-length", "0") or "0")
    if length > _MAX_BODY:
        raise ValueError(f"request body of {length} bytes exceeds "
                         f"the {_MAX_BODY} byte bound")
    if length:
        body = await reader.readexactly(length)
    return method, path.split("?", 1)[0], headers, body


def _http_response(status: int, reason: str, body: bytes,
                   content_type: str = "application/json") -> bytes:
    return (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode("ascii") + body


def _status_for(response_line: str) -> Tuple[int, str]:
    """Map a protocol response record onto an HTTP status."""
    try:
        record = json.loads(response_line)
    except json.JSONDecodeError:
        return 500, "Internal Server Error"
    if not isinstance(record, dict):
        return 500, "Internal Server Error"
    if record.get("ok"):
        return 200, "OK"
    if record.get("error_kind") == "overloaded":
        if record.get("reason") == "draining":
            return 503, "Service Unavailable"
        return 429, "Too Many Requests"
    return 400, "Bad Request"


# ----------------------------------------------------------------------
# Connection handler
# ----------------------------------------------------------------------
async def handle_http(service: AsyncSolverService,
                      reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
    """One HTTP connection: a single request/response, or a WS upgrade."""
    try:
        request = await _read_request(reader)
        if request is None:
            return
        method, path, headers, body = request
        if path == "/ws" and "websocket" in \
                headers.get("upgrade", "").lower():
            await _serve_websocket(service, reader, writer, headers)
            return
        writer.write(await _route(service, method, path, body))
        await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError, ValueError):
        pass
    except asyncio.CancelledError:
        # Event-loop teardown with the client still connected; finish
        # normally so asyncio does not log the cancellation.
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _route(service: AsyncSolverService, method: str, path: str,
                 body: bytes) -> bytes:
    if path == "/healthz" and method == "GET":
        payload = canonical_json({"ok": True,
                                  "draining": service.draining})
        return _http_response(200, "OK", payload.encode("utf-8"))
    if path == "/metrics" and method == "GET":
        with service.default_tenant.lock:
            text = service.metrics.exposition()
        return _http_response(200, "OK", text.encode("utf-8"),
                              content_type="text/plain; version=0.0.4")
    if path == "/task" and method == "POST":
        line = body.decode("utf-8", errors="replace")
        control = parse_control(line)
        if control is not None:
            response = service.control_record(control)
        else:
            eval_line, rid = strip_rid(line)
            tenant = service.tenants.anonymous()
            tenant.connections += 1
            try:
                response = await service.submit(tenant, eval_line, rid=rid)
            finally:
                tenant.connections -= 1
                service.tenants.discard(tenant)
        status, reason = _status_for(response)
        return _http_response(status, reason, response.encode("utf-8"))
    payload = canonical_json({"ok": False,
                              "error": f"no route for {method} {path}"})
    return _http_response(404, "Not Found", payload.encode("utf-8"))


async def _serve_websocket(service: AsyncSolverService,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           headers: Dict[str, str]) -> None:
    key = headers.get("sec-websocket-key")
    if not key:
        writer.write(_http_response(
            400, "Bad Request",
            b'{"error":"missing Sec-WebSocket-Key","ok":false}'))
        await writer.drain()
        return
    writer.write((
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept(key)}\r\n\r\n"
    ).encode("ascii"))
    await writer.drain()

    # A WebSocket connection reuses the TCP connection machinery in
    # multiplex mode, with the line writer swapped for a frame writer.
    from repro.service.async_daemon import _Connection

    connection = _Connection(service, writer)
    connection.multiplex = True
    write_lock = connection._write_lock

    async def _write_frame_line(line: str) -> None:
        async with write_lock:
            writer.write(encode_frame(line.encode("utf-8")))
            try:
                await writer.drain()
            except ConnectionError:
                pass

    connection._write_line = _write_frame_line  # type: ignore[method-assign]
    try:
        while True:
            try:
                opcode, payload = await read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError,
                    ValueError):
                break
            if opcode == _OP_CLOSE:
                async with write_lock:
                    writer.write(encode_frame(payload, opcode=_OP_CLOSE))
                    try:
                        await writer.drain()
                    except ConnectionError:
                        pass
                break
            if opcode == _OP_PING:
                async with write_lock:
                    writer.write(encode_frame(payload, opcode=_OP_PONG))
                    await writer.drain()
                continue
            if opcode != _OP_TEXT:
                continue
            line = payload.decode("utf-8", errors="replace")
            if not line.strip():
                continue
            if not connection.handle_line(line):
                break
    finally:
        await connection.close()
