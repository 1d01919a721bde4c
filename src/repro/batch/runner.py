"""The parallel batch evaluator.

Turns a stream of task lines (:mod:`repro.batch.tasks`) into a stream
of result lines, optionally sharded across worker processes::

    from repro.batch import runner
    for line in runner.iter_results(open("tasks.jsonl"), workers=4,
                                    cache_path="homcache"):
        print(line)

Guarantees
----------
* **Deterministic ordering** — results come out in task order no matter
  how many workers ran them (chunked ``Pool.imap`` preserves order).
* **Deterministic content** — randomized steps (witness construction)
  are seeded from a content hash of the task, and every record is
  serialized canonically, so ``--workers 4`` output is byte-identical
  to ``--workers 1`` output.
* **Fault isolation** — a task that raises a library error produces an
  ``{"ok": false, "error": ...}`` record; the batch keeps going.

Workers are plain ``multiprocessing`` processes (``fork`` start method
when the platform has it, so they inherit the loaded library for free).
Each worker owns a private :class:`~repro.session.SolverSession`
whose engine is attached to the shared on-disk store
(:mod:`repro.batch.store`), and warm-starts its in-memory memo from
that store, so hom counts are computed once per machine rather than
once per process.  The long-running request service
(:mod:`repro.service`) reuses :func:`evaluate_line` with *its* session,
so batch mode and serving mode produce byte-identical records.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import sys
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.errors import ReproError
from repro.faults.budget import BudgetExceeded, use_budget
from repro.faults.inject import (
    FaultPlan,
    install_fault_plan,
    should_inject,
)
from repro.obs.metrics import merge_counter_snapshots
from repro.obs.trace import span
from repro.batch.tasks import DecodedTask, canonical_json, decode_task
from repro.core.decision import decide_bag_determinacy
from repro.core.pathdet import decide_path_determinacy
from repro.hom.containment import is_contained_set
from repro.hom.engine import HomEngine
from repro.session import SolverSession
from repro.ucq.analysis import linear_certificate

DEFAULT_CHUNK_SIZE = 8
DEFAULT_PRELOAD = 2048
DEFAULT_MAX_RETRIES = 2
# Base of the jittered exponential backoff between chunk retries.
# Timing only — results are pure, so the jitter never touches bytes.
_RETRY_BASE_DELAY = 0.05

# What a dying (or hung) worker pool surfaces as: a worker killed
# mid-task breaks the whole pool; a result() timeout is treated the
# same way because a hung worker holds its pool slot forever.
_WORKER_DEATH = (BrokenProcessPool, FuturesTimeout)

Context = Union[SolverSession, HomEngine]


def _as_session(context: Context) -> SolverSession:
    """Adopt the legacy bare-engine calling convention into a session."""
    if isinstance(context, SolverSession):
        return context
    return SolverSession(engine=context)


# ----------------------------------------------------------------------
# Single-task evaluation
# ----------------------------------------------------------------------
def evaluate_task(task: DecodedTask, context: Context) -> Dict:
    """The result record (without envelope) for one decoded task.

    ``context`` is the :class:`~repro.session.SolverSession` the task
    runs under (a bare :class:`~repro.hom.engine.HomEngine` is adopted
    for backward compatibility).
    """
    session = _as_session(context)
    if task.kind == "decide-cq":
        result = decide_bag_determinacy(list(task.views), task.query,
                                        session=session)
        record = result.to_record()
        if task.witness and not result.determined:
            pair = result.witness(rng=random.Random(task.seed()))
            record["witness"] = pair.to_record(pair.verify(session.engine))
        return record
    if task.kind == "containment":
        return {"contained": is_contained_set(task.query, task.container,
                                              session=session)}
    if task.kind == "hom-count":
        # Counts routinely exceed 64-bit range; decimal text keeps the
        # record safe for non-Python JSON consumers (same convention as
        # witness query answers).
        return {"count": str(session.count(task.source, task.target))}
    if task.kind == "decide-path":
        result = decide_path_determinacy(list(task.views), task.query)
        record = {
            "determined": result.determined,
            "reachable": sorted(".".join(node) for node in result.reachable),
        }
        if result.certificate is not None:
            record["certificate"] = [
                {"view": ".".join(step.view.letters),
                 "sign": step.sign,
                 "target": ".".join(step.target.letters)}
                for step in result.certificate
            ]
        return record
    if task.kind == "certify-ucq":
        certificate = linear_certificate(list(task.views), task.query)
        record = {"certified": certificate is not None}
        if certificate is not None:
            record["coefficients"] = [str(c) for c in certificate.coefficients]
        return record
    raise ReproError(f"unhandled task kind {task.kind!r}")  # pragma: no cover


def evaluate_envelope(line: str, context: Context) -> Dict:
    """The full result record for one task line; never raises on
    library errors — they become ``{"ok": false}`` records."""
    session = _as_session(context)
    task_id, kind = None, None
    try:
        with span("parse"):
            task = decode_task(line)
        task_id, kind = task.id, task.kind
        with span("count"), \
                use_budget(session.budget_for(task.deadline_ms)):
            record = evaluate_task(task, session)
    except BudgetExceeded as exc:
        # Before the generic ReproError arm: a tripped budget is a
        # *structured* refusal (the operator set the bound), not an
        # opaque failure — the record carries the partial stats.
        session.record_task(ok=False, budget_exceeded=True)
        return {
            "id": task_id,
            "kind": kind,
            "ok": False,
            "error": f"BudgetExceeded: {exc}",
            "error_kind": "budget-exceeded",
            "budget": exc.to_record(),
        }
    except ReproError as exc:
        session.record_task(ok=False)
        return {
            "id": task_id,
            "kind": kind,
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
        }
    session.record_task(ok=True)
    envelope: Dict = {"id": task.id, "kind": task.kind, "ok": True}
    envelope.update(record)
    return envelope


def evaluate_line(line: str, context: Context) -> str:
    """One canonical result line for one task line (see
    :func:`evaluate_envelope`, which the request service consumes
    directly to avoid re-parsing its own output)."""
    return canonical_json(evaluate_envelope(line, context))


# ----------------------------------------------------------------------
# Worker pool plumbing
# ----------------------------------------------------------------------
_WORKER_SESSION: Optional[SolverSession] = None
_WORKER_LAST_METRICS: Dict[str, float] = {}


def _init_worker(cache_path: Optional[str], preload: int,
                 fault_spec: Optional[Dict] = None,
                 shards: Optional[int] = None,
                 memory_tier: Optional[int] = None) -> None:
    global _WORKER_SESSION, _WORKER_LAST_METRICS
    if fault_spec is not None:
        # The plan travels as its JSON spec (counters are per-process;
        # only the scheduling-independent task_ids triggers are
        # deterministic across worker layouts — the chaos lane keys
        # worker kills by task id for exactly that reason).
        install_fault_plan(FaultPlan(fault_spec))
    # With a sharded store, each worker's shard connections open
    # lazily on first touch — a worker only ever opens the shard
    # files its keys hash into.
    if cache_path is None:
        shards = memory_tier = None
    _WORKER_SESSION = SolverSession(store_path=cache_path, preload=preload,
                                    shards=shards, memory_tier=memory_tier)
    _WORKER_LAST_METRICS = {}


def _evaluate_chunk(lines: List[str]) -> tuple:
    """``(result lines, metrics delta)`` for one chunk.

    The delta is this worker's monotonic counter movement since its
    previous chunk (cumulative snapshots would double-count when the
    parent sums them), so the parent can merge per-worker registries
    into one run summary without any worker-lifetime rendezvous.
    """
    global _WORKER_LAST_METRICS
    session = _WORKER_SESSION
    if session is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("batch worker used before initialization")
    for line in lines:
        # The ``worker.chunk`` fault point: a poison task kills its
        # worker outright — no exception, no cleanup — exactly like a
        # segfault or the OOM killer.  ``os._exit`` (not sys.exit)
        # so no handler downstream can soften the crash.
        if should_inject("worker.chunk", key=_line_id(line)):
            os._exit(86)
    results = [evaluate_line(line, session) for line in lines]
    session.flush()
    current = session.metrics.counters_snapshot()
    delta = {name: value - _WORKER_LAST_METRICS.get(name, 0)
             for name, value in current.items()
             if value != _WORKER_LAST_METRICS.get(name, 0)}
    _WORKER_LAST_METRICS = current
    return results, delta


def _chunks(lines: Iterable[str], size: int) -> Iterator[List[str]]:
    chunk: List[str] = []
    for line in lines:
        if not line.strip():
            continue
        chunk.append(line)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])


def _quarantine_record(line: str) -> str:
    """The deterministic error record of a quarantined poison task.

    Carries no timestamps or attempt counts — byte-identical across
    runs, worker counts and retry schedules, so quarantined output
    diffs clean against itself.
    """
    payload = None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        pass
    task_id = payload.get("id") if isinstance(payload, dict) else None
    kind = payload.get("kind") if isinstance(payload, dict) else None
    return canonical_json({
        "id": task_id if isinstance(task_id, str) else None,
        "kind": kind if isinstance(kind, str) else None,
        "ok": False,
        "error": "WorkerCrash: task repeatedly killed or hung its "
                 "worker process",
        "quarantined": True,
    })


class _PoolSupervisor:
    """Owns the worker pool and every recovery path around it.

    A worker killed mid-task (OOM killer, segfault, injected
    ``worker.chunk`` fault) breaks the *whole*
    :class:`~concurrent.futures.ProcessPoolExecutor` — every in-flight
    future fails, and which chunk did the killing is unknowable from
    the parent.  The supervisor's contract on top of that blunt
    failure mode:

    * the pool is torn down and rebuilt (``batch.worker.restarts``);
    * the chunk whose result was being awaited is re-run in isolation,
      up to ``max_retries`` times with jittered exponential backoff
      (transient deaths — a worker OOM-killed under memory pressure —
      succeed on retry and count ``batch.chunk.retries``);
    * a chunk that *keeps* dying is bisected until the poison task is
      a chunk of one, which is quarantined as a deterministic error
      record (``batch.tasks.quarantined``) — the batch completes;
    * every other chunk is resubmitted unchanged, so non-quarantined
      results stay byte-identical to a fault-free run;
    * with ``chunk_timeout`` set, a *hung* worker is treated exactly
      like a dead one (the pool is killed; a task that keeps hanging
      is quarantined) — without it a hang waits forever, matching the
      pre-supervision contract.
    """

    def __init__(self, workers: int, cache_path: Optional[str],
                 preload: int, fault_spec: Optional[Dict],
                 max_retries: int, chunk_timeout: Optional[float],
                 metrics_sink: Optional[Dict[str, float]],
                 shards: Optional[int] = None,
                 memory_tier: Optional[int] = None):
        self.workers = workers
        self.cache_path = cache_path
        self.preload = preload
        self.fault_spec = fault_spec
        self.shards = shards
        self.memory_tier = memory_tier
        self.max_retries = max(0, max_retries)
        self.chunk_timeout = chunk_timeout
        self.metrics_sink = metrics_sink
        self.executor: Optional[ProcessPoolExecutor] = None
        self._spawn()

    def _spawn(self) -> None:
        self.executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(self.cache_path, self.preload, self.fault_spec,
                      self.shards, self.memory_tier),
        )

    def _note(self, name: str, value: int = 1) -> None:
        if self.metrics_sink is not None:
            merge_counter_snapshots(self.metrics_sink, {name: value})

    def _restart(self) -> None:
        """Kill the (broken or hung) pool and build a fresh one."""
        executor = self.executor
        self.executor = None
        if executor is not None:
            # A hung worker never drains its call queue: terminate the
            # processes outright, then reap without waiting on them.
            processes = getattr(executor, "_processes", None) or {}
            for process in list(processes.values()):
                if process.is_alive():
                    process.terminate()
            executor.shutdown(wait=False, cancel_futures=True)
        self._note("batch.worker.restarts")
        self._spawn()

    def submit(self, chunk: List[str]):
        try:
            return self.executor.submit(_evaluate_chunk, chunk)
        except BrokenProcessPool:
            # The pool died between drains; doomed in-flight futures
            # surface at their own drain and are salvaged there.
            self._restart()
            return self.executor.submit(_evaluate_chunk, chunk)

    def drain(self, inflight: "deque") -> List[str]:
        """Resolve the oldest in-flight chunk into its result lines."""
        future, chunk = inflight.popleft()
        try:
            results, delta = future.result(timeout=self.chunk_timeout)
        except _WORKER_DEATH:
            self._restart()
            # Every sibling future died with the pool: remember their
            # chunks, resolve the head chunk in isolation, then refill
            # the window in order — ordering (and therefore bytes)
            # survives the crash.
            salvaged = [entry[1] for entry in inflight]
            inflight.clear()
            results = self._run_isolated(chunk, attempts_spent=1)
            for sibling in salvaged:
                inflight.append((self.submit(sibling), sibling))
            return results
        if self.metrics_sink is not None:
            merge_counter_snapshots(self.metrics_sink, delta)
        return results

    def _run_isolated(self, chunk: List[str],
                      attempts_spent: int = 0) -> List[str]:
        """Run one suspect chunk alone: retry, then bisect, then
        quarantine.  ``attempts_spent`` credits a failure the chunk
        already suffered in the shared pool."""
        for attempt in range(attempts_spent, self.max_retries + 1):
            if attempt:
                _backoff(attempt)
            try:
                results, delta = self.executor.submit(
                    _evaluate_chunk, chunk).result(timeout=self.chunk_timeout)
            except _WORKER_DEATH:
                self._restart()
                continue
            if attempt:
                self._note("batch.chunk.retries")
            if self.metrics_sink is not None:
                merge_counter_snapshots(self.metrics_sink, delta)
            return results
        if len(chunk) == 1:
            self._note("batch.tasks.quarantined")
            return [_quarantine_record(chunk[0])]
        middle = len(chunk) // 2
        return (self._run_isolated(chunk[:middle])
                + self._run_isolated(chunk[middle:]))

    def shutdown(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=True, cancel_futures=True)
            self.executor = None


def _backoff(attempt: int) -> None:
    """Jittered exponential backoff before retry ``attempt`` (1-based).

    Full jitter on a doubling base: transient resource pressure (the
    usual honest cause of a worker death) gets time to clear, and
    parallel batches don't re-stampede in lockstep.  Timing only —
    never part of the bytes.
    """
    delay = _RETRY_BASE_DELAY * (1 << min(attempt - 1, 6))
    time.sleep(delay * (0.5 + random.random() / 2))


# ----------------------------------------------------------------------
# Batch drivers
# ----------------------------------------------------------------------
def iter_results(
    lines: Iterable[str],
    workers: int = 1,
    cache_path: Optional[str] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    preload: int = DEFAULT_PRELOAD,
    session: Optional[SolverSession] = None,
    metrics_sink: Optional[Dict[str, float]] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    fault_plan: Optional[Dict] = None,
    chunk_timeout: Optional[float] = None,
    shards: Optional[int] = None,
    memory_tier: Optional[int] = None,
) -> Iterator[str]:
    """Evaluate task lines, yielding result lines in task order.

    ``workers <= 1`` runs inline (no subprocesses); otherwise a pool of
    ``workers`` processes shards the stream in chunks of ``chunk_size``
    tasks.  ``cache_path`` names the shared persistent hom-count store
    (a :class:`~repro.batch.store.TieredHomStore` directory, partitioned
    into ``shards`` files when created, with a ``memory_tier``-entry
    LRU tier; each worker opens only the shard files its keys hash
    into); ``preload`` bounds how many stored counts each worker seeds
    into its in-memory memo at startup.  An explicit ``session`` (inline
    mode only — worker processes own their sessions) evaluates the
    stream under caller-owned state: the request service passes its
    resident session here so memo and store stay warm across streams.
    ``metrics_sink`` (a dict) receives the merged monotonic metric
    movement of the run — per-worker registry deltas summed under the
    namespaced schema (:mod:`repro.obs`).

    Fault tolerance (DESIGN.md §14): a chunk whose worker dies is
    retried up to ``max_retries`` times with backoff, then bisected to
    quarantine the poison task (see :class:`_PoolSupervisor`);
    ``chunk_timeout`` (seconds) additionally treats a hung worker as a
    dead one.  ``fault_plan`` (a :class:`~repro.faults.inject.FaultPlan`
    spec dict) installs a deterministic fault plan in this process and
    in every worker — the chaos lane's handle.
    """
    chunk_size = max(1, chunk_size)
    if workers > 1 and cache_path is not None:
        from repro.batch.store import TieredHomStore

        # The pool parent creates (or migrates) the store and every
        # shard file once, before any worker opens it: workers never
        # race on the layout, their write path stays pure row inserts,
        # and a fault that corrupts a first probe finds a real file to
        # quarantine.
        with TieredHomStore(cache_path, shards=shards,
                            memory_tier=memory_tier) as store:
            store.ensure_shards()
    previous_plan = None
    if fault_plan is not None:
        previous_plan = install_fault_plan(FaultPlan(fault_plan))
    if workers <= 1:
        scoped = session
        if session is not None:
            if cache_path is not None:
                raise ReproError(
                    "iter_results: pass either session= or cache_path=, "
                    "not both (the session already owns its store)")
        else:
            if cache_path is None:
                shards = memory_tier = None
            scoped = SolverSession(store_path=cache_path, preload=preload,
                                   shards=shards, memory_tier=memory_tier)
        before = (scoped.metrics.counters_snapshot()
                  if metrics_sink is not None else {})
        try:
            for chunk in _chunks(lines, chunk_size):
                for line in chunk:
                    yield evaluate_line(line, scoped)
                scoped.flush()
        finally:
            if metrics_sink is not None:
                after = scoped.metrics.counters_snapshot()
                merge_counter_snapshots(metrics_sink, {
                    name: value - before.get(name, 0)
                    for name, value in after.items()
                    if value != before.get(name, 0)})
            if scoped is not session:
                scoped.close()
            if fault_plan is not None:
                install_fault_plan(previous_plan)
        return
    if session is not None:
        raise ReproError(
            "iter_results: session= requires workers <= 1 (worker "
            "processes cannot share one in-memory session)")

    # ProcessPoolExecutor rather than multiprocessing.Pool: a worker
    # killed mid-task (OOM, segfault) raises BrokenProcessPool out of
    # result() — Pool would silently lose the job and hang the batch.
    # The supervisor owns restart / retry / bisect / quarantine.
    supervisor = _PoolSupervisor(workers, cache_path, preload, fault_plan,
                                 max_retries, chunk_timeout, metrics_sink,
                                 shards=shards, memory_tier=memory_tier)
    try:
        # Bounded in-flight window: submitting everything up front
        # would buffer an arbitrarily large task stream in memory.
        # Yielding the *oldest* pending chunk first keeps results in
        # task order while at most `max_inflight` chunks are queued.
        max_inflight = max(2, workers * 4)
        inflight: "deque" = deque()

        for chunk in _chunks(lines, chunk_size):
            inflight.append((supervisor.submit(chunk), chunk))
            if len(inflight) >= max_inflight:
                yield from supervisor.drain(inflight)
        while inflight:
            yield from supervisor.drain(inflight)
    finally:
        supervisor.shutdown()
        if fault_plan is not None:
            install_fault_plan(previous_plan)


def run_batch(
    input_path: str,
    output_path: str,
    workers: int = 1,
    cache_path: Optional[str] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    preload: int = DEFAULT_PRELOAD,
    resume: bool = False,
    max_retries: int = DEFAULT_MAX_RETRIES,
    fault_plan: Optional[Dict] = None,
    chunk_timeout: Optional[float] = None,
    shards: Optional[int] = None,
    memory_tier: Optional[int] = None,
) -> Dict[str, int]:
    """File-level driver behind ``repro batch run``.

    Streams JSONL from ``input_path`` (``-`` = stdin) to ``output_path``
    (``-`` = stdout).  With ``resume``, task ids already present in the
    output file are skipped and fresh results are appended — so an
    interrupted batch continues where it stopped.  Returns a summary:
    ``{"tasks", "skipped", "written", "errors", "quarantined",
    "retries", "worker_restarts", "metrics"}`` — the ``metrics`` block
    is the merged per-worker registry movement (namespaced counter
    deltas summed across the pool).  ``max_retries``/``fault_plan``/
    ``chunk_timeout`` are the supervision knobs of
    :func:`iter_results`.
    """
    done = set()
    if resume and output_path != "-":
        _truncate_torn_tail(output_path)
        done = _completed_ids(output_path)

    if input_path == "-":
        raw_lines: Iterable[str] = sys.stdin
    else:
        raw_lines = open(input_path, "r", encoding="utf-8")

    summary: Dict[str, object] = {"tasks": 0, "skipped": 0,
                                  "written": 0, "errors": 0,
                                  "quarantined": 0}
    metrics: Dict[str, float] = {}

    def pending() -> Iterator[str]:
        for line in raw_lines:
            if not line.strip():
                continue
            summary["tasks"] += 1
            if done and _line_id(line) in done:
                summary["skipped"] += 1
                continue
            yield line

    if output_path == "-":
        sink = sys.stdout
    else:
        sink = open(output_path, "a" if done else "w", encoding="utf-8")
    try:
        for result in iter_results(pending(), workers=workers,
                                   cache_path=cache_path,
                                   chunk_size=chunk_size, preload=preload,
                                   metrics_sink=metrics,
                                   max_retries=max_retries,
                                   fault_plan=fault_plan,
                                   chunk_timeout=chunk_timeout,
                                   shards=shards, memory_tier=memory_tier):
            sink.write(result + "\n")
            summary["written"] += 1
            if '"ok":false' in result:
                summary["errors"] += 1
            if '"quarantined":true' in result:
                summary["quarantined"] += 1
    finally:
        if sink is not sys.stdout:
            sink.close()
        if raw_lines is not sys.stdin:
            raw_lines.close()
    summary["retries"] = int(metrics.get("batch.chunk.retries", 0))
    summary["worker_restarts"] = int(metrics.get("batch.worker.restarts", 0))
    summary["metrics"] = metrics
    return summary


def _line_id(line: str) -> Optional[str]:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None
    if isinstance(payload, dict):
        identifier = payload.get("id")
        if isinstance(identifier, str):
            return identifier
    return None


def _truncate_torn_tail(output_path: str) -> None:
    """Drop a partial final line left by a run killed mid-write.

    Without this, appending a fresh result right after the torn
    fragment would fuse the two into one permanently unparseable line.
    """
    try:
        handle = open(output_path, "rb+")
    except FileNotFoundError:
        return
    with handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) == b"\n":
            return
        # Scan backwards in blocks for the last newline; everything
        # after it is the torn fragment.
        position = size
        block = 4096
        while position > 0:
            step = min(block, position)
            position -= step
            handle.seek(position)
            data = handle.read(step)
            newline = data.rfind(b"\n")
            if newline != -1:
                handle.truncate(position + newline + 1)
                _fsync(handle)
                return
        handle.truncate(0)
        _fsync(handle)


def _fsync(handle) -> None:
    """Force a truncation to disk before results are appended after it.

    Without the sync, a crash between truncate and the first append
    could resurrect the torn fragment from the page cache's past —
    fused mid-line with fresh output.
    """
    handle.flush()
    try:
        os.fsync(handle.fileno())
    except OSError:  # pragma: no cover - e.g. fsync-less filesystems
        pass


def _completed_ids(output_path: str) -> set:
    """Task ids already answered in an existing output file."""
    completed = set()
    try:
        with open(output_path, "r", encoding="utf-8") as handle:
            for line in handle:
                identifier = _line_id(line)
                if identifier is not None:
                    completed.add(identifier)
    except FileNotFoundError:
        pass
    return completed
