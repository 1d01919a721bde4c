"""The solver daemon behind ``repro serve`` (DESIGN.md §10, §16).

One asyncio event loop serves every front end — stdio, TCP and the
HTTP/WebSocket facade — over one dispatch core:

* **Connection multiplexing** — ``asyncio`` streams hold thousands of
  persistent connections on one thread; no per-connection OS thread.
* **Per-tenant sessions** — stdio runs on the ``default`` tenant; each
  anonymous TCP connection gets an isolated per-connection tenant, and
  a named tenant (``{"op": "hello", "tenant": ...}``) is shared across
  connections.  A :class:`~repro.service.tenant.Tenant` owns its own
  session — engine, memo bounds, strategy and budget defaults —
  so independent tenants count in parallel on the bounded executor
  instead of convoying on one lock.
* **Priorities** — every request may carry ``"priority": <int>``
  (lower runs earlier; the tenant quota sets the default).  Dispatch
  is a single priority queue drained by ``workers`` dispatcher
  coroutines, each running the CPU-bound evaluation on the executor.
* **Admission-control backpressure** — the dispatch queue and each
  tenant's in-flight window are bounded; an over-limit request is
  answered *immediately* with a structured ``overloaded`` record
  (``error_kind: "overloaded"``, ``reason: queue-full | tenant-quota
  | draining``) instead of buffering without bound.
* **Graceful drain** — ``{"op": "drain"}`` (or SIGTERM) stops
  admission, answers everything in flight, then closes the servers.
* **Streaming batch** — ``{"op": "batch", "tasks": [...]}`` admits a
  whole task list and streams one JSONL result line per task *as each
  finishes* (completion order), closing with a summary line.

Request lines are the batch task codec plus the control ops of
:data:`CONTROL`, and task responses are exactly the records of
:func:`~repro.batch.runner.evaluate_envelope`.  A connection answers
in request order by default, so piping a scenario file through the
stdio front end is byte-identical to ``repro batch run --workers 1``.
``{"op": "hello", "mode": "multiplex"}`` switches a connection to
completion-order responses, where each request may carry a ``"rid"``
echo field for client-side correlation (``rid`` is stripped before
evaluation, so task seeds — and therefore result bytes — never depend
on it).

The HTTP/WebSocket facade for browser clients lives in
:mod:`repro.service.httpgate`, on top of the same dispatch core.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import (
    IO,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.batch.runner import evaluate_envelope
from repro.batch.tasks import canonical_json
from repro.errors import ReproError
from repro.obs.logs import StructuredLogger, new_request_id
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import collect_phases
from repro.service.tenant import (
    LockedStore,
    Tenant,
    TenantQuota,
    TenantRegistry,
)

DEFAULT_WORKERS = 4
DEFAULT_MAX_QUEUE = 256

_QUEUE_STOP = object()


class ServiceStats:
    """Request accounting for one service lifetime, registry-homed.

    Every number lives in a :class:`~repro.obs.metrics.MetricsRegistry`
    under the ``service.*`` names of the documented schema
    (:mod:`repro.obs`); :meth:`snapshot` renders the nested ``stats``
    op shape from those same metrics.  Request latency goes into a
    log2-bucketed histogram in microseconds — the buckets the
    ``metrics`` control op and the Prometheus exposition serve.
    Recording is locked: executor threads of different tenants finish
    requests concurrently, and a counter increment is not atomic.
    """

    __slots__ = ("metrics", "_requests", "_errors", "_control",
                 "_latency", "_budget_exceeded", "_kinds", "_lock")

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._requests = self.metrics.counter("service.requests")
        self._errors = self.metrics.counter("service.errors")
        self._control = self.metrics.counter("service.control_requests")
        self._latency = self.metrics.histogram("service.request.latency_us")
        self._budget_exceeded = self.metrics.counter(
            "service.request.budget_exceeded")
        self._kinds: Dict[str, object] = {}
        self._lock = threading.Lock()

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def errors(self) -> int:
        return self._errors.value

    @property
    def control_requests(self) -> int:
        return self._control.value

    def record_control(self) -> None:
        with self._lock:
            self._control.value += 1

    def record(self, kind: Optional[str], ok: bool, elapsed: float,
               budget_exceeded: bool = False) -> None:
        label = kind or "invalid"
        with self._lock:
            self._requests.value += 1
            if not ok:
                self._errors.value += 1
            if budget_exceeded:
                self._budget_exceeded.value += 1
            self._latency.observe(elapsed * 1e6)
            counter = self._kinds.get(label)
            if counter is None:
                counter = self.metrics.counter(
                    f"service.requests.kind.{label}")
                self._kinds[label] = counter
            counter.value += 1

    def snapshot(self) -> Dict[str, object]:
        count = self._latency.count
        mean = (self._latency.sum / 1e6 / count) if count else 0.0
        return {
            "requests": self.requests,
            "errors": self.errors,
            "control_requests": self.control_requests,
            "budget_exceeded": self._budget_exceeded.value,
            "mean_latency_ms": round(mean * 1000.0, 3),
            "kinds": {label: counter.value
                      for label, counter in sorted(self._kinds.items())},
        }


class _Job:
    """One admitted request travelling through the priority queue."""

    __slots__ = ("line", "tenant", "future", "enqueued", "rid")

    def __init__(self, line: str, tenant: Tenant,
                 future: "asyncio.Future[str]", rid=None):
        self.line = line
        self.tenant = tenant
        self.future = future
        self.enqueued = time.monotonic()
        self.rid = rid


class AsyncSolverService:
    """The dispatch core every async front end (TCP/stdio/HTTP) shares.

    ``workers`` bounds CPU-bound evaluation concurrency (dispatcher
    coroutines × executor threads); ``max_queue`` bounds how many
    admitted requests may wait for a dispatcher before new ones are
    answered ``overloaded``.  Tenant defaults (``max_inflight``,
    ``request_deadline_ms``, ``strategy``, memo bounds) seed the quota
    every anonymous connection gets; named tenants override them via
    the hello op.  A ``store_path`` opens one persistent store shared
    by every tenant through a locking facade.
    """

    def __init__(self, workers: int = DEFAULT_WORKERS,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 store_path: Optional[str] = None,
                 shards: Optional[int] = None,
                 memory_tier: Optional[int] = None,
                 preload_pack: Optional[str] = None,
                 strategy: str = "auto",
                 preload: int = 0,
                 logger: Optional[StructuredLogger] = None,
                 request_deadline_ms: Optional[float] = None,
                 max_inflight: Optional[int] = None):
        self.workers = max(1, workers)
        self.max_queue = max(1, max_queue)
        self.logger = logger
        self.started_at = time.monotonic()
        self._store: Optional[LockedStore] = None
        self._owns_store = False
        if store_path is not None:
            from repro.batch.store import TieredHomStore, import_warm_pack

            raw = TieredHomStore(store_path, shards=shards,
                                 memory_tier=memory_tier)
            if preload_pack is not None:
                import_warm_pack(raw, preload_pack)
            self._store = LockedStore(raw)
            self._owns_store = True
        elif shards is not None or memory_tier is not None \
                or preload_pack is not None:
            raise ReproError(
                "shards/memory_tier/preload_pack require store_path")

        self.metrics = MetricsRegistry()
        self.stats_counters = ServiceStats(self.metrics)
        default_quota = TenantQuota(
            max_inflight=max_inflight if max_inflight is not None
            else TenantQuota.max_inflight,
            deadline_ms=request_deadline_ms,
            strategy=strategy)
        self.tenants = TenantRegistry(self.metrics,
                                      default_quota=default_quota,
                                      store=self._store,
                                      preload=preload)
        # The default tenant answers stdio mode; a connection that
        # never says hello with a tenant name of its own is *not* given
        # this one — it gets an anonymous isolated tenant.  The default
        # tenant's session registry is the one attached below, so the
        # metrics op reports engine/store counters for the resident
        # stdio session.
        self.default_tenant = self.tenants.get_or_create("default")
        self.metrics.attach(self.default_tenant.session.metrics)
        self._m_overloaded = self.metrics.counter("service.overloaded")
        self._queued_us = self.metrics.histogram("service.request.queued_us")
        self.metrics.gauge("service.workers", lambda: self.workers)
        self.metrics.gauge("service.queue.depth", self.queue_depth)
        self.metrics.gauge("service.inflight",
                           lambda: self.tenants.total_inflight())
        self.metrics.gauge(
            "service.uptime_s",
            lambda: round(time.monotonic() - self.started_at, 3))

        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-async")
        self._queue: "asyncio.PriorityQueue" = None  # built in start()
        self._seq = itertools.count()
        self._dispatchers: List["asyncio.Task"] = []
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Build the queue and dispatchers on the running loop."""
        if self._queue is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.PriorityQueue()
        self._stopped = asyncio.Event()
        self._dispatchers = [
            asyncio.ensure_future(self._dispatch())
            for _ in range(self.workers)]

    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def draining(self) -> bool:
        return self._draining

    def request_drain(self) -> None:
        """Stop admitting; finish in flight; wake :meth:`run_until_drained`.

        Callable from signal handlers and other threads (it only flips
        a flag and pokes the loop).
        """
        self._draining = True
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._check_quiesced)
            except RuntimeError:  # loop already closed
                pass

    def _check_quiesced(self) -> None:
        if self._draining and self.queue_depth() == 0 \
                and self.tenants.total_inflight() == 0 \
                and self._stopped is not None:
            self._stopped.set()

    async def run_until_drained(self) -> None:
        """Block until a drain/shutdown op (or signal) fully quiesces."""
        await self._stopped.wait()

    async def aclose(self) -> None:
        """Stop dispatchers and flush/close owned state."""
        if self._closed:
            return
        self._closed = True
        self._draining = True
        if self._queue is not None:
            for _ in self._dispatchers:
                self._queue.put_nowait((1 << 30, next(self._seq),
                                        _QUEUE_STOP))
            await asyncio.gather(*self._dispatchers,
                                 return_exceptions=True)
        self._executor.shutdown(wait=True)
        self.tenants.close()
        if self._owns_store and self._store is not None:
            self._store.close()

    # ------------------------------------------------------------------
    # Admission + dispatch
    # ------------------------------------------------------------------
    def _overloaded(self, reason: str, tenant: Tenant,
                    task_id=None, rid=None) -> str:
        self._m_overloaded.value += 1
        record = {
            "id": task_id, "kind": None, "ok": False,
            "error": f"overloaded: {reason} "
                     f"(queue depth {self.queue_depth()}, tenant "
                     f"{tenant.name} inflight {tenant.inflight}/"
                     f"{tenant.quota.max_inflight})",
            "error_kind": "overloaded",
            "reason": reason,
        }
        if rid is not None:
            record["rid"] = rid
        return canonical_json(record)

    def submit(self, tenant: Tenant, line: str,
               record: Optional[dict] = None,
               priority: Optional[int] = None,
               rid=None) -> "asyncio.Future[str]":
        """Admit one task line for ``tenant``; resolves to the response.

        Admission control runs here, on the event loop, in constant
        time: a rejected request's future resolves immediately with the
        structured ``overloaded`` record.  ``record`` is the parsed
        line when the caller already has it (to pull ``id``/
        ``priority`` without re-parsing).
        """
        future: "asyncio.Future[str]" = self._loop.create_future()
        task_id = record.get("id") if isinstance(record, dict) else None
        if priority is None and isinstance(record, dict):
            raw = record.get("priority")
            if isinstance(raw, (int, float)) and not isinstance(raw, bool):
                priority = int(raw)
        if priority is None:
            priority = tenant.quota.priority
        if self._draining:
            future.set_result(
                self._overloaded("draining", tenant, task_id, rid))
            return future
        if not self.tenants.try_admit(tenant):
            future.set_result(
                self._overloaded("tenant-quota", tenant, task_id, rid))
            return future
        if self.queue_depth() >= self.max_queue:
            self.tenants.release(tenant, ok=False)
            future.set_result(
                self._overloaded("queue-full", tenant, task_id, rid))
            return future
        job = _Job(line, tenant, future, rid=rid)
        self._queue.put_nowait((priority, next(self._seq), job))
        return future

    async def _dispatch(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            _priority, _seq, job = await self._queue.get()
            if job is _QUEUE_STOP:
                return
            self._queued_us.observe(
                (time.monotonic() - job.enqueued) * 1e6)
            try:
                response, ok, budget_exceeded = await loop.run_in_executor(
                    self._executor, self._evaluate, job.tenant, job.line,
                    job.rid)
            except Exception as exc:  # noqa: BLE001 — last resort
                # _evaluate answers a failing evaluation itself; this
                # only catches a bug in that answering, so the
                # dispatcher keeps serving the queue.
                ok, budget_exceeded = False, False
                response = canonical_json({
                    "id": None, "kind": None, "ok": False,
                    "error": f"InternalError: {type(exc).__name__}: {exc}",
                })
            self.tenants.release(job.tenant, ok=ok,
                                 budget_exceeded=budget_exceeded)
            if not job.future.cancelled():
                job.future.set_result(response)
            self._check_quiesced()

    def _evaluate(self, tenant: Tenant, line: str,
                  rid=None) -> Tuple[str, bool, bool]:
        """Executor-side evaluation under the tenant's engine lock.

        Library errors become records inside ``evaluate_envelope``.
        Any other exception is one request's bug: it is answered with
        an ``InternalError`` record carrying the request id of its log
        line, and counted like every failed request — service and
        session counters, plus the request log — so one poisoned task
        never takes the daemon down or goes unrecorded.
        """
        request_id = new_request_id()
        start = time.perf_counter()
        phases: Dict[str, float] = {}
        with tenant.lock:
            try:
                if self.logger is not None:
                    with collect_phases() as phases:
                        envelope = evaluate_envelope(line, tenant.session)
                else:
                    envelope = evaluate_envelope(line, tenant.session)
            except Exception as exc:  # noqa: BLE001 — the daemon survives
                tenant.session.record_task(ok=False)
                envelope = {
                    "id": None, "kind": None, "ok": False,
                    "request_id": request_id,
                    "error": f"InternalError: {type(exc).__name__}: {exc}",
                }
        kind = envelope.get("kind")
        ok = bool(envelope.get("ok"))
        budget_exceeded = envelope.get("error_kind") == "budget-exceeded"
        if rid is not None:
            envelope = dict(envelope)
            envelope["rid"] = rid
        elapsed = time.perf_counter() - start
        self.stats_counters.record(kind, ok, elapsed,
                                   budget_exceeded=budget_exceeded)
        if self.logger is not None:
            self.logger.request(request_id, kind=kind, ok=ok,
                                elapsed_s=elapsed,
                                task_id=envelope.get("id"), phases=phases)
        return canonical_json(envelope), ok, budget_exceeded

    # ------------------------------------------------------------------
    # Control ops (answered inline on the event loop)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        service = self.stats_counters.snapshot()
        service["uptime_s"] = round(time.monotonic() - self.started_at, 3)
        service["workers"] = self.workers
        service["queue_depth"] = self.queue_depth()
        service["inflight"] = self.tenants.total_inflight()
        service["overloaded"] = self._m_overloaded.value
        service["draining"] = self._draining
        with self.default_tenant.lock:
            session = self.default_tenant.session.stats()
        return {"service": service, "session": session,
                "tenants": self.tenants.stats()}

    def control_record(self, record: dict) -> str:
        """The single-line answer to one control record.

        An op that needs a connection (see :data:`CONTROL`) is refused
        here: a connection front end hands those to the connection
        before calling this, so only connectionless callers — stdio,
        ``POST /task`` — reach the refusal.
        """
        self.stats_counters.record_control()
        op = record.get("op")
        control = control_for(record)
        if control is None:
            payload = {"ok": False, "op": str(op),
                       "error": f"unknown control op {op!r}; "
                                f"expected one of {list(CONTROL_OPS)}"}
        elif control.needs_connection:
            payload = {"ok": False, "op": op,
                       "error": f"{op} op needs a persistent connection; "
                                f"use the line protocol or /ws"}
        else:
            payload = control.handler(self, record)
        rid = record.get("rid")
        if rid is not None:
            payload["rid"] = rid
        return canonical_json(payload)

    def _ping(self, record: dict) -> Dict[str, object]:
        return {"ok": True, "op": "ping"}

    def _stats(self, record: dict) -> Dict[str, object]:
        return {"ok": True, "op": "stats", "stats": self.stats()}

    def _metrics(self, record: dict) -> Dict[str, object]:
        with self.default_tenant.lock:
            if record.get("format") == "prometheus":
                return {"ok": True, "op": "metrics", "format": "prometheus",
                        "exposition": self.metrics.exposition()}
            return {"ok": True, "op": "metrics",
                    "metrics": self.metrics.snapshot()}

    def _drain(self, record: dict) -> Dict[str, object]:
        self.request_drain()
        return {"ok": True, "op": "drain", "draining": True}

    def _shutdown(self, record: dict) -> Dict[str, object]:
        self.request_drain()
        return {"ok": True, "op": "shutdown"}


def parse_control(line: str) -> Optional[dict]:
    """The parsed record if ``line`` is a control op, else ``None``."""
    stripped = line.strip()
    if not stripped.startswith("{") or '"op"' not in stripped:
        return None
    try:
        record = json.loads(stripped)
    except json.JSONDecodeError:
        return None
    if isinstance(record, dict) and "op" in record:
        return record
    return None


def strip_rid(line: str) -> Tuple[str, object]:
    """``(evaluation line, rid)`` for one task line.

    ``rid`` is a pure correlation handle: it must not reach
    ``task_seed`` (witness randomness is a content hash of the task
    record), so a rid-carrying line is re-serialized without it.
    Invalid JSON passes through untouched — evaluation will answer
    with the codec's error record.
    """
    if '"rid"' not in line:
        return line, None
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return line, None
    if not isinstance(record, dict) or "rid" not in record:
        return line, None
    rid = record.pop("rid")
    return canonical_json(record), rid


# ----------------------------------------------------------------------
# Connection handling (TCP)
# ----------------------------------------------------------------------
class _Connection:
    """Per-connection state: the tenant, the response mode, the writer.

    Ordered mode (default) answers in request order — a deque of
    futures drained by one writer coroutine, exactly the stdio
    contract.  Multiplex mode writes each response the moment it
    resolves; clients correlate by ``rid``/task id.
    """

    def __init__(self, service: AsyncSolverService,
                 writer: asyncio.StreamWriter):
        self.service = service
        self.writer = writer
        self.tenant: Optional[Tenant] = None
        self.multiplex = False
        self._items: "asyncio.Queue" = asyncio.Queue()
        self._writer_task = asyncio.ensure_future(self._write_loop())
        self._write_lock = asyncio.Lock()
        self._pending: set = set()

    def ensure_tenant(self) -> Tenant:
        if self.tenant is None:
            self.tenant = self.service.tenants.anonymous()
            self.tenant.connections += 1
        return self.tenant

    # ---------------------------------------------------------- output
    async def _write_line(self, line: str) -> None:
        async with self._write_lock:
            self.writer.write(line.encode("utf-8") + b"\n")
            try:
                await self.writer.drain()
            except ConnectionError:
                pass

    async def _write_loop(self) -> None:
        while True:
            item = await self._items.get()
            if item is None:
                return
            try:
                if isinstance(item, str):
                    await self._write_line(item)
                elif isinstance(item, asyncio.Queue):
                    # A streaming block (batch op): lines arrive in
                    # completion order until the terminating None.
                    while True:
                        chunk = await item.get()
                        if chunk is None:
                            break
                        await self._write_line(chunk)
                else:  # a future resolving to one line
                    await self._write_line(await item)
            except ConnectionError:
                return

    def _emit_future(self, future: "asyncio.Future[str]") -> None:
        if self.multiplex:
            task = asyncio.ensure_future(self._forward(future))
            self._pending.add(task)
            task.add_done_callback(self._pending.discard)
        else:
            self._items.put_nowait(future)

    async def _forward(self, future: "asyncio.Future[str]") -> None:
        await self._write_line(await future)

    def emit_line(self, line: str) -> None:
        if self.multiplex:
            task = asyncio.ensure_future(self._write_line(line))
            self._pending.add(task)
            task.add_done_callback(self._pending.discard)
        else:
            self._items.put_nowait(line)

    # ---------------------------------------------------------- input
    def handle_line(self, line: str) -> bool:
        """Process one request line; ``False`` stops the read loop."""
        service = self.service
        record = parse_control(line)
        if record is not None:
            control = control_for(record)
            if control is not None and control.needs_connection:
                control.handler(self, record)
                return True
            self.emit_line(service.control_record(record))
            return not ends_stream(record)
        eval_line, rid = strip_rid(line)
        record = None
        if rid is not None or '"priority"' in line:
            try:
                record = json.loads(eval_line)
            except json.JSONDecodeError:
                record = None
        self._emit_future(service.submit(
            self.ensure_tenant(), eval_line, record=record, rid=rid))
        return True

    def _hello(self, record: dict) -> None:
        service = self.service
        rid = record.get("rid")
        quota_keys = ("max_inflight", "deadline_ms", "max_counts",
                      "max_targets", "priority", "strategy")
        try:
            unknown = set(record) - set(quota_keys) - \
                {"op", "rid", "tenant", "mode"}
            if unknown:
                raise ReproError(
                    f"unknown hello key(s) {sorted(unknown)}; expected "
                    f"tenant/mode plus quota keys {list(quota_keys)}")
            name = record.get("tenant")
            overrides = {key: record[key]
                         for key in quota_keys if key in record}
            if name is not None:
                if not isinstance(name, str) or not name:
                    raise ReproError(
                        f"hello tenant must be a non-empty string, "
                        f"got {name!r}")
                if self.tenant is not None:
                    self.tenant.connections -= 1
                self.tenant = service.tenants.get_or_create(name, overrides)
                self.tenant.connections += 1
            elif overrides:
                raise ReproError(
                    "hello quota overrides require a tenant name")
            mode = record.get("mode", "multiplex" if "mode" in record
                              else None)
            if mode is not None:
                if mode not in ("ordered", "multiplex"):
                    raise ReproError(
                        f"hello mode must be 'ordered' or 'multiplex', "
                        f"got {mode!r}")
                self.multiplex = mode == "multiplex"
        except ReproError as exc:
            payload = {"ok": False, "op": "hello", "error": str(exc)}
        else:
            payload = {"ok": True, "op": "hello",
                       "tenant": self.tenant.name if self.tenant else None,
                       "mode": "multiplex" if self.multiplex else "ordered",
                       "draining": service.draining}
        if rid is not None:
            payload["rid"] = rid
        self.emit_line(canonical_json(payload))

    def _batch(self, record: dict) -> None:
        """Admit every task of a batch op; stream results as they land.

        Each result line is the task's ordinary envelope (it carries
        the task ``id``); the closing summary line reports how many
        were answered vs rejected at admission.  In ordered mode the
        stream occupies one slot of the response order; in multiplex
        mode lines interleave with other traffic.
        """
        service = self.service
        rid = record.get("rid")
        tasks = record.get("tasks")
        if not isinstance(tasks, list):
            payload = {"ok": False, "op": "batch",
                       "error": "batch op needs a 'tasks' list"}
            if rid is not None:
                payload["rid"] = rid
            self.emit_line(canonical_json(payload))
            return
        tenant = self.ensure_tenant()
        priority = record.get("priority")
        if not isinstance(priority, int) or isinstance(priority, bool):
            priority = None
        stream: "asyncio.Queue" = asyncio.Queue()
        if not self.multiplex:
            # The stream occupies one slot in the ordered response
            # sequence; multiplex writes each line directly instead.
            self._items.put_nowait(stream)
        futures = []
        for task in tasks:
            line = canonical_json(task) if isinstance(task, dict) \
                else str(task)
            futures.append(service.submit(
                tenant, line,
                record=task if isinstance(task, dict) else None,
                priority=priority, rid=rid))

        async def _collect() -> None:
            done = 0
            for future in asyncio.as_completed(futures):
                result = await future
                done += 1
                if self.multiplex:
                    await self._write_line(result)
                else:
                    stream.put_nowait(result)
            summary = {"ok": True, "op": "batch", "count": done}
            if rid is not None:
                summary["rid"] = rid
            if self.multiplex:
                await self._write_line(canonical_json(summary))
            else:
                stream.put_nowait(canonical_json(summary))
                stream.put_nowait(None)

        task = asyncio.ensure_future(_collect())
        self._pending.add(task)
        task.add_done_callback(self._pending.discard)

    async def close(self) -> None:
        try:
            if self._pending:
                await asyncio.gather(*list(self._pending),
                                     return_exceptions=True)
            self._items.put_nowait(None)
            await self._writer_task
        except asyncio.CancelledError:
            # Event-loop teardown while responses were still pending
            # (drain with a client that never disconnected): stop the
            # helpers without awaiting them — the work itself was
            # either answered already or rejected at admission.
            self._writer_task.cancel()
            for task in list(self._pending):
                task.cancel()
        self._release_tenant()
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass

    def abort(self) -> None:
        """Synchronous teardown for a cancelled connection task."""
        self._writer_task.cancel()
        for task in list(self._pending):
            task.cancel()
        self._release_tenant()
        try:
            self.writer.close()
        except (ConnectionError, OSError):
            pass

    def _release_tenant(self) -> None:
        if self.tenant is not None:
            self.tenant.connections -= 1
            self.service.tenants.discard(self.tenant)
            self.tenant = None


class _Control(NamedTuple):
    """One control op: its handler plus the two facts front ends need.

    ``needs_connection`` ops (``hello``, ``batch``) act on connection
    state, so the handler is a :class:`_Connection` method and the
    connectionless front ends refuse them; every other handler is an
    :class:`AsyncSolverService` method returning the reply payload.
    ``ends_stream`` ops (``drain``, ``shutdown``) end the request
    stream they arrive on: the front end stops reading after replying.
    """

    handler: Callable[..., Optional[Dict[str, object]]]
    needs_connection: bool = False
    ends_stream: bool = False


#: Every control op, answered inline on the event loop (never queued).
CONTROL: Dict[str, _Control] = {
    "ping": _Control(AsyncSolverService._ping),
    "stats": _Control(AsyncSolverService._stats),
    "metrics": _Control(AsyncSolverService._metrics),
    "drain": _Control(AsyncSolverService._drain, ends_stream=True),
    "shutdown": _Control(AsyncSolverService._shutdown, ends_stream=True),
    "hello": _Control(_Connection._hello, needs_connection=True),
    "batch": _Control(_Connection._batch, needs_connection=True),
}
CONTROL_OPS = tuple(CONTROL)


def control_for(record: dict) -> Optional[_Control]:
    """The :data:`CONTROL` entry for a parsed control record, if any."""
    op = record.get("op")
    return CONTROL.get(op) if isinstance(op, str) else None


def ends_stream(record: dict) -> bool:
    """Whether a control record ends the request stream it arrived on."""
    control = control_for(record)
    return control is not None and control.ends_stream


async def handle_connection(service: AsyncSolverService,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """One TCP connection: JSONL request lines in, response lines out.

    A cancelled handler task (event-loop teardown racing a still-open
    client) finishes normally after a synchronous abort — otherwise
    asyncio's stream machinery logs the cancellation as an error.
    """
    connection = _Connection(service, writer)
    cancelled = False
    try:
        while True:
            try:
                raw = await reader.readline()
            except ConnectionError:
                break
            if not raw:
                break
            line = raw.decode("utf-8", errors="replace")
            if not line.strip():
                continue
            if not connection.handle_line(line):
                break
    except asyncio.CancelledError:
        cancelled = True
    finally:
        if cancelled:
            connection.abort()
        else:
            await connection.close()


# ----------------------------------------------------------------------
# Front ends
# ----------------------------------------------------------------------
async def serve_async_tcp(service: AsyncSolverService,
                          host: str = "127.0.0.1", port: int = 0,
                          http_port: Optional[int] = None,
                          ready: Optional[threading.Event] = None,
                          bound: Optional[list] = None) -> None:
    """Serve the line protocol (and optional HTTP/WebSocket facade)
    until drained.

    ``port=0`` binds an ephemeral port; bound addresses are appended
    to ``bound`` (the TCP address first, then the HTTP one when
    enabled) and ``ready`` is set once all servers accept connections.
    """
    await service.start()
    server = await asyncio.start_server(
        lambda r, w: handle_connection(service, r, w), host, port)
    http_server = None
    if http_port is not None:
        from repro.service.httpgate import handle_http

        http_server = await asyncio.start_server(
            lambda r, w: handle_http(service, r, w), host, http_port)
    if bound is not None:
        bound.append(server.sockets[0].getsockname()[:2])
        if http_server is not None:
            bound.append(http_server.sockets[0].getsockname()[:2])
    if ready is not None:
        ready.set()
    try:
        await service.run_until_drained()
    finally:
        server.close()
        await server.wait_closed()
        if http_server is not None:
            http_server.close()
            await http_server.wait_closed()
        if service.default_tenant is not None:
            with service.default_tenant.lock:
                service.default_tenant.session.flush()


async def serve_async_stdio(service: AsyncSolverService,
                            source: Optional[Iterable[str]] = None,
                            sink: Optional[IO[str]] = None) -> int:
    """Answer a JSONL stream on the default tenant, responses in
    request order — byte-identical to ``repro batch run --workers 1``.

    Reads ``source`` (default stdin) to EOF, until a stream-ending
    control op (``drain``/``shutdown``), or until a drain requested
    from outside (SIGTERM) quiesces the service, writing one response
    line per request to ``sink`` (default stdout) and flushing each as
    soon as it resolves, oldest first.  A control op is answered in
    stream order too: when the writer reaches it, after every line
    before it has been answered, so a trailing ``metrics`` op counts
    all the work that preceded it.  Reading and writing happen off
    the event loop, so it keeps dispatching while a slow producer
    trickles lines in.

    Backpressure runs both ways.  The reader waits for room in the
    default tenant's in-flight window and the dispatch queue instead
    of drawing ``overloaded`` answers, and at most ``max(2, 4 ×
    workers)`` responses wait for the sink: a consumer that stops
    draining stalls the reader rather than parking the whole stream
    in memory.  A sink that fails stops the reader, and the failure
    propagates.  Returns the number of response lines written.
    """
    await service.start()
    loop = asyncio.get_running_loop()
    sink = sys.stdout if sink is None else sink
    feed = _LineFeed(sys.stdin if source is None else source, loop)
    tenant = service.default_tenant
    pending: "asyncio.Queue" = asyncio.Queue(
        maxsize=max(2, 4 * service.workers))

    async def _end_on_drain() -> None:
        await service.run_until_drained()
        feed.end()

    async def _write_all() -> int:
        count = 0
        failure: Optional[BaseException] = None
        while True:
            item = await pending.get()
            if item is None:
                break
            # A control op is answered only now, after every line
            # before it (see the docstring).
            line = item() if isinstance(item, partial) else await item
            if failure is not None:
                continue  # keep draining so the reader never blocks
            try:
                await loop.run_in_executor(None, _blocking_write, sink, line)
            except Exception as exc:  # noqa: BLE001 — re-raised below
                failure = exc
                service.request_drain()
            else:
                count += 1
        if failure is not None:
            raise failure
        return count

    writer_task = asyncio.ensure_future(_write_all())
    watcher = asyncio.ensure_future(_end_on_drain())
    try:
        while True:
            line = await feed.next_line()
            if line is None:
                break
            if not line.strip():
                continue
            control = parse_control(line)
            if control is not None:
                await pending.put(partial(service.control_record, control))
                if ends_stream(control):
                    break
                continue
            if service.draining:
                break
            while tenant.inflight >= tenant.quota.max_inflight \
                    or service.queue_depth() >= service.max_queue:
                await asyncio.sleep(0.001)
            eval_line, rid = strip_rid(line)
            await pending.put(service.submit(tenant, eval_line, rid=rid))
    finally:
        feed.close()
        watcher.cancel()
    await pending.put(None)
    written = await writer_task
    with tenant.lock:
        tenant.session.flush()
    return written


def _blocking_write(sink: IO[str], line: str) -> None:
    sink.write(line + "\n")
    sink.flush()


class _LineFeed:
    """The lines of a source, read one at a time on a daemon thread.

    A daemon thread, not the executor: a read blocked on an idle stdin
    must not keep the process alive once a drain ends the stream, and
    asyncio joins its executor threads at exit.  The thread reads a
    line only when :meth:`next_line` asks for one, so a stalled stream
    stalls the reading.
    """

    def __init__(self, source: Iterable[str],
                 loop: asyncio.AbstractEventLoop):
        self._iterator = iter(source)
        self._loop = loop
        self._lines: "asyncio.Queue" = asyncio.Queue()
        self._wanted = threading.Semaphore(0)
        self._closed = False
        threading.Thread(target=self._read, daemon=True,
                         name="repro-stdio-reader").start()

    def _read(self) -> None:
        while True:
            self._wanted.acquire()
            if self._closed:
                return
            try:
                item = next(self._iterator, None)
            except Exception as exc:  # noqa: BLE001 — raised by next_line
                item = exc
            try:
                self._loop.call_soon_threadsafe(self._lines.put_nowait, item)
            except RuntimeError:  # the loop has closed
                return
            if not isinstance(item, str):
                return

    async def next_line(self) -> Optional[str]:
        """The next line, or ``None`` at the end of the stream."""
        self._wanted.release()
        item = await self._lines.get()
        if isinstance(item, Exception):
            raise item
        return item

    def end(self) -> None:
        """End the stream now: the waiting :meth:`next_line` gets
        ``None`` even while the thread is blocked in a read."""
        self._lines.put_nowait(None)

    def close(self) -> None:
        """Let a thread waiting to be asked for a line exit."""
        self._closed = True
        self._wanted.release()


# ----------------------------------------------------------------------
# Embedding helper (tests, benchmarks, load tools)
# ----------------------------------------------------------------------
class AsyncDaemonHandle:
    """Run an async daemon on a background thread; stop it cleanly.

    The bench harness and the tests need a live daemon inside one
    process: ``start()`` spins the event loop up on its own thread and
    returns once the TCP (and optional HTTP) sockets accept
    connections; ``stop()`` drains and joins.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 http_port: Optional[int] = None, **service_kwargs):
        self._host = host
        self._port = port
        self._http_port = http_port
        self._kwargs = service_kwargs
        self.service: Optional[AsyncSolverService] = None
        self.address: Optional[tuple] = None
        self.http_address: Optional[tuple] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._bound: list = []

    def __enter__(self) -> "AsyncDaemonHandle":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> "AsyncDaemonHandle":
        self.service = AsyncSolverService(**self._kwargs)

        def _run() -> None:
            asyncio.run(self._main())

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name="repro-async-daemon")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ReproError("async daemon did not start within 30s")
        self.address = tuple(self._bound[0])
        if self._http_port is not None:
            self.http_address = tuple(self._bound[1])
        return self

    async def _main(self) -> None:
        try:
            await serve_async_tcp(self.service, host=self._host,
                                  port=self._port,
                                  http_port=self._http_port,
                                  ready=self._ready, bound=self._bound)
        finally:
            await self.service.aclose()
            self._ready.set()  # unblock start() even on bind failure

    def stop(self) -> None:
        if self.service is not None:
            self.service.request_drain()
        if self._thread is not None:
            self._thread.join(timeout=30)
            if self._thread.is_alive():  # pragma: no cover — deadlock aid
                raise ReproError("async daemon did not drain within 30s")
