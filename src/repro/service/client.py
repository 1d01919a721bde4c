"""TCP client for a running ``repro serve`` daemon.

The shared client-context object behind the grouped management
commands (``repro serve ping|stats|metrics|drain``): one place that
knows how to dial the daemon, speak the JSONL line protocol, and turn
connection failures into operator-readable errors.  Every CLI handler
builds one :class:`DaemonClient` from the shared ``--host``/``--port``
options and calls a method — the kdctl idiom (command groups over one
client object) without a third-party CLI framework.

Connection reuse: the client holds **one persistent connection** and
reuses it across requests (both daemons answer many lines per
connection).  A dropped connection is redialed transparently on the
next request — connection state is an implementation detail, never an
error the caller sees, unless redialing itself keeps failing.  Pass
``persistent=False`` to restore the legacy dial-per-request behaviour
(the bench suite uses it as the ablation baseline).

Fault tolerance: a daemon restart (or a connect flap injected through
:mod:`repro.faults.inject`) shows up here as ``ConnectionRefusedError``
or ``ConnectionResetError``; the client retries those with jittered
exponential backoff up to ``retries`` times before surfacing a
:class:`~repro.errors.ReproError`.  Backoff affects *timing only* —
response bytes are whatever the daemon finally answers.
:meth:`DaemonClient.wait_until_ready` turns the same loop into a
startup rendezvous for CLI scripts and CI smoke jobs.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Dict, Optional

from repro.batch.tasks import canonical_json
from repro.errors import ReproError
from repro.faults.inject import should_inject

#: Retryable dial failures: the daemon is (re)starting or dropped the
#: connection mid-exchange.  Other ``OSError``s (unresolvable host,
#: permission) are not transient and fail immediately.
_TRANSIENT = (ConnectionRefusedError, ConnectionResetError,
              BrokenPipeError)

DEFAULT_RETRIES = 2
_RETRY_BASE_DELAY = 0.05


def backoff_delay(attempt: int, base: float = _RETRY_BASE_DELAY,
                  rng=random.random) -> float:
    """Jittered exponential backoff: ``base * 2^attempt * [0.5, 1.0)``.

    Exposed as a function so tests can pin ``rng`` and check the
    schedule; production callers never see the values — only the
    sleeps.
    """
    return base * (2 ** attempt) * (0.5 + 0.5 * rng())


class DaemonClient:
    """Line-protocol client for one daemon address.

    Persistent by default: the first request dials, later requests
    reuse the socket, and a connection dropped between requests (a
    daemon restart) is redialed transparently with the same backoff
    schedule a failing first dial gets.  Raises
    :class:`~repro.errors.ReproError` on connection failure or a
    malformed response, so CLI handlers surface one clean error line.

    Retrying a request is safe: control ops are idempotent and task
    lines are deterministic pure computation, so a second exchange can
    only repeat the first answer.

    Usable as a context manager; :meth:`close` drops the held
    connection (the daemon handles an unannounced disconnect fine, but
    long-lived embedders should close promptly to free the daemon-side
    connection state).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = 10.0, retries: int = DEFAULT_RETRIES,
                 persistent: bool = True):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, retries)
        self.persistent = persistent
        #: Transient dial failures seen (for tests and diagnostics).
        self.connect_failures = 0
        #: Successful (re)dials (for tests: 1 == connection was reused).
        self.connects = 0
        self._sock: Optional[socket.socket] = None
        self._wire = None

    # -------------------------------------------------- connection state
    def _connect(self):
        """Dial and cache a connection; returns the buffered wire."""
        if should_inject("client.connect"):
            raise ConnectionRefusedError("connection refused (injected)")
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        self.connects += 1
        if not self.persistent:
            return sock, sock.makefile("rw", encoding="utf-8")
        self._sock = sock
        self._wire = sock.makefile("rw", encoding="utf-8")
        return self._sock, self._wire

    def _drop(self) -> None:
        if self._wire is not None:
            try:
                self._wire.close()
            except OSError:
                pass
            self._wire = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Drop the held connection (a later request redials)."""
        self._drop()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------- line protocol
    def _exchange(self, payload_line: str) -> str:
        """One write → read cycle; raises raw socket errors.

        Persistent mode reuses the held connection when there is one.
        A daemon that died since the last request surfaces here as a
        reset/EOF — mapped to ``ConnectionResetError`` so the retry
        loop redials instead of failing the request.
        """
        if self.persistent:
            reused = self._wire is not None
            if not reused:
                self._connect()
            try:
                self._wire.write(payload_line)
                self._wire.flush()
                answer = self._wire.readline()
            except _TRANSIENT:
                self._drop()
                raise
            except OSError:
                self._drop()
                raise
            if not answer and reused:
                # EOF on a reused connection: the daemon went away
                # between requests (restart, idle drop).  Treat it as
                # transient so the retry loop redials — a fresh
                # connection answering EOF is a real protocol error
                # and stays one.
                self._drop()
                raise ConnectionResetError(
                    "daemon closed the persistent connection")
            return answer
        sock, wire = self._connect()
        with sock:
            wire.write(payload_line)
            wire.flush()
            return wire.readline()

    def request_line(self, line: str) -> Dict[str, object]:
        """Send one protocol line, return the decoded response object."""
        payload_line = line.rstrip("\n") + "\n"
        attempts = self.retries + 1
        answer = ""
        for attempt in range(attempts):
            try:
                answer = self._exchange(payload_line)
                break
            except _TRANSIENT as exc:
                self.connect_failures += 1
                if attempt + 1 >= attempts:
                    raise ReproError(
                        f"cannot reach daemon at {self.host}:{self.port} "
                        f"after {attempts} attempt(s): {exc}")
                time.sleep(backoff_delay(attempt))
            except OSError as exc:
                raise ReproError(
                    f"cannot reach daemon at {self.host}:{self.port}: {exc}")
        if not answer.strip():
            raise ReproError(
                f"daemon at {self.host}:{self.port} closed the "
                f"connection without answering")
        try:
            payload = json.loads(answer)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"daemon at {self.host}:{self.port} sent a non-JSON "
                f"response: {exc}")
        if not isinstance(payload, dict):
            raise ReproError(
                f"daemon at {self.host}:{self.port} sent a non-object "
                f"response: {payload!r}")
        return payload

    def control(self, op: str, **extra: object) -> Dict[str, object]:
        """Send one control op (``{"op": ...}``) and decode the answer."""
        record: Dict[str, object] = {"op": op}
        record.update(extra)
        return self.request_line(canonical_json(record))

    # -------------------------------------------------- operator verbs
    def ping(self) -> Dict[str, object]:
        return self.control("ping")

    def stats(self) -> Dict[str, object]:
        return self.control("stats")

    def metrics(self, format: Optional[str] = None) -> Dict[str, object]:
        if format is not None:
            return self.control("metrics", format=format)
        return self.control("metrics")

    def drain(self) -> Dict[str, object]:
        return self.control("drain")

    def shutdown(self) -> Dict[str, object]:
        return self.control("shutdown")

    def hello(self, tenant: Optional[str] = None,
              mode: Optional[str] = None,
              **quota: object) -> Dict[str, object]:
        """Bind this connection to a tenant / response mode."""
        record: Dict[str, object] = {}
        if tenant is not None:
            record["tenant"] = tenant
        if mode is not None:
            record["mode"] = mode
        record.update(quota)
        return self.control("hello", **record)

    def wait_until_ready(self, timeout: float = 10.0) -> float:
        """Block until the daemon answers ``ping``; seconds waited.

        Polls with short capped-exponential sleeps so a freshly
        spawned daemon is noticed within milliseconds of binding.
        Raises :class:`~repro.errors.ReproError` when ``timeout``
        elapses first — the CI smoke jobs' replacement for
        ``sleep 2 && hope``.
        """
        start = time.monotonic()
        deadline = start + timeout
        delay = 0.02
        while True:
            try:
                if bool(self.ping().get("ok")):
                    return time.monotonic() - start
            except ReproError:
                pass
            if time.monotonic() >= deadline:
                raise ReproError(
                    f"daemon at {self.host}:{self.port} not ready "
                    f"after {timeout:.1f}s")
            time.sleep(delay)
            delay = min(delay * 2.0, 0.25)

    def __repr__(self) -> str:
        mode = "persistent" if self.persistent else "per-request"
        return f"DaemonClient({self.host}:{self.port}, {mode})"
