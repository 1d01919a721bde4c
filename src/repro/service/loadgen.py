"""Closed-loop load generation against a running daemon.

The concurrency story of this repo is only credible if it is measured
the way a service is measured: N concurrent clients, each issuing its
next request the moment the previous one answers (closed loop), with
throughput and tail latency (p50/p99) reported — not a single-threaded
stopwatch.  This module is that harness; it backs ``repro serve load``,
``scripts/load_gen.py`` and the ``service_concurrency`` bench workload.

Three transports, matching the deployment modes under comparison:

* ``per-request`` — dial a fresh TCP connection per request: the
  ``DaemonClient(persistent=False)`` cost model, a connection setup
  and a fresh anonymous tenant per request.
* ``persistent`` — one TCP connection per client, reused for every
  request (the daemon's intended mode).
* ``ws`` — one WebSocket connection per client against the daemon's
  HTTP facade, exercising the browser-client path.

Clients run on plain threads (the generator must not share an event
loop with the daemon under test), synchronize on a barrier so the
measurement window excludes connection setup, and each records
per-request wall-clock latencies.  ``overloaded`` rejections count as
errors, not successes — a run that measures rejection throughput is
reported as such, never silently blended in.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError

TRANSPORTS = ("per-request", "persistent", "ws")


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 if empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    frac = pos - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


@dataclass
class LoadReport:
    """One load run's outcome: counts, wall clock, latency quantiles."""

    clients: int
    transport: str
    requests: int
    errors: int
    elapsed_s: float
    latencies_ms: List[float] = field(default_factory=list, repr=False)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies_ms, 0.50)

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies_ms, 0.99)

    def summary(self) -> Dict[str, object]:
        return {
            "clients": self.clients,
            "transport": self.transport,
            "requests": self.requests,
            "errors": self.errors,
            "elapsed_s": round(self.elapsed_s, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
        }


def _is_error(response_line: str) -> bool:
    try:
        record = json.loads(response_line)
    except json.JSONDecodeError:
        return True
    return not (isinstance(record, dict) and record.get("ok"))


class _PerRequestTransport:
    """Dial, send one line, read one line, close — per request."""

    def __init__(self, host: str, port: int, timeout: float):
        self._address = (host, port)
        self._timeout = timeout

    def exchange(self, line: str) -> str:
        with socket.create_connection(self._address,
                                      timeout=self._timeout) as sock:
            sock.sendall(line.encode("utf-8") + b"\n")
            with sock.makefile("r", encoding="utf-8") as reader:
                response = reader.readline()
        if not response:
            raise ConnectionError("daemon closed the connection")
        return response.rstrip("\n")

    def close(self) -> None:
        pass


class _PersistentTransport:
    """One connection for the client's whole run (request order)."""

    def __init__(self, host: str, port: int, timeout: float):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8")

    def exchange(self, line: str) -> str:
        self._sock.sendall(line.encode("utf-8") + b"\n")
        response = self._reader.readline()
        if not response:
            raise ConnectionError("daemon closed the connection")
        return response.rstrip("\n")

    def close(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass


class _WebSocketTransport:
    """A minimal RFC 6455 client over the async daemon's HTTP port."""

    def __init__(self, host: str, port: int, timeout: float):
        import base64
        import os

        self._sock = socket.create_connection((host, port), timeout=timeout)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        self._sock.sendall((
            f"GET /ws HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Upgrade: websocket\r\n"
            f"Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            f"Sec-WebSocket-Version: 13\r\n\r\n"
        ).encode("ascii"))
        self._buffer = b""
        status = self._read_until(b"\r\n\r\n")
        status_line = status.split(b"\r\n", 1)[0]
        if b" 101 " not in status_line:
            raise ConnectionError("websocket upgrade refused: "
                                  + status_line.decode("latin-1"))

    def _read_until(self, marker: bytes) -> bytes:
        while marker not in self._buffer:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ConnectionError("daemon closed during handshake")
            self._buffer += chunk
        head, self._buffer = self._buffer.split(marker, 1)
        return head + marker

    def _read_exactly(self, n: int) -> bytes:
        while len(self._buffer) < n:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ConnectionError("daemon closed mid-frame")
            self._buffer += chunk
        data, self._buffer = self._buffer[:n], self._buffer[n:]
        return data

    def _read_frame(self) -> str:
        import struct

        while True:
            header = self._read_exactly(2)
            opcode = header[0] & 0x0F
            length = header[1] & 0x7F
            if length == 126:
                length = struct.unpack(">H", self._read_exactly(2))[0]
            elif length == 127:
                length = struct.unpack(">Q", self._read_exactly(8))[0]
            payload = self._read_exactly(length)
            if opcode == 0x1:  # text
                return payload.decode("utf-8")
            if opcode == 0x8:  # close
                raise ConnectionError("daemon sent close frame")
            # ping/pong/other control frames: skip

    def exchange(self, line: str) -> str:
        from repro.service.httpgate import encode_frame

        self._sock.sendall(encode_frame(line.encode("utf-8"), mask=True))
        return self._read_frame()

    def close(self) -> None:
        try:
            from repro.service.httpgate import encode_frame

            self._sock.sendall(encode_frame(b"", opcode=0x8, mask=True))
            self._sock.close()
        except OSError:
            pass


_TRANSPORT_FACTORIES: Dict[str, Callable] = {
    "per-request": _PerRequestTransport,
    "persistent": _PersistentTransport,
    "ws": _WebSocketTransport,
}


def run_load(host: str, port: int, lines: Sequence[str],
             clients: int = 16,
             requests_per_client: int = 25,
             transport: str = "persistent",
             timeout: float = 30.0) -> LoadReport:
    """Drive ``clients`` closed-loop workers; return the merged report.

    Each client cycles through ``lines`` (offset by its index so
    concurrent clients do not lock-step on the same task) for
    ``requests_per_client`` requests.  Transports connect *before*
    the barrier, so the measured window is pure request/response
    traffic.  A client that dies mid-run marks its remaining requests
    as errors rather than crashing the harness.
    """
    if transport not in _TRANSPORT_FACTORIES:
        raise ReproError(
            f"unknown load transport {transport!r}; "
            f"expected one of {list(TRANSPORTS)}")
    if not lines:
        raise ReproError("load generation needs at least one task line")
    factory = _TRANSPORT_FACTORIES[transport]
    barrier = threading.Barrier(clients + 1)
    latencies: List[List[float]] = [[] for _ in range(clients)]
    errors = [0] * clients
    failures: List[str] = []
    failures_lock = threading.Lock()

    def _client(index: int) -> None:
        try:
            channel = factory(host, port, timeout)
        except OSError as exc:
            with failures_lock:
                failures.append(f"client {index} connect: {exc}")
            errors[index] += requests_per_client
            barrier.wait()
            return
        try:
            barrier.wait()
            for step in range(requests_per_client):
                line = lines[(index + step) % len(lines)]
                start = time.perf_counter()
                try:
                    response = channel.exchange(line)
                except (OSError, ConnectionError) as exc:
                    with failures_lock:
                        failures.append(f"client {index}: {exc}")
                    errors[index] += requests_per_client - step
                    return
                latencies[index].append(
                    (time.perf_counter() - start) * 1000.0)
                if _is_error(response):
                    errors[index] += 1
        finally:
            channel.close()

    workers = [threading.Thread(target=_client, args=(i,), daemon=True)
               for i in range(clients)]
    for worker in workers:
        worker.start()
    barrier.wait()
    started = time.perf_counter()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started

    all_latencies = [ms for per_client in latencies for ms in per_client]
    report = LoadReport(
        clients=clients, transport=transport,
        requests=len(all_latencies),
        errors=sum(errors), elapsed_s=elapsed,
        latencies_ms=all_latencies)
    if failures and not all_latencies:
        raise ReproError("load run produced no successful requests: "
                         + "; ".join(failures[:3]))
    return report


def default_task_lines(count: int = 8, seed: int = 2024) -> List[str]:
    """A small cycle of scenario tasks sized so dispatch overhead, not
    evaluation, dominates — the regime the concurrency bench and the
    CI smoke lane both want."""
    from repro.batch.scenarios import generate_scenario
    from repro.batch.tasks import canonical_json

    return [canonical_json(record)
            for record in generate_scenario("mixed", count, seed=seed)]
