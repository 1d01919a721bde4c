"""The four workloads: set-up with parity gate, timed passes, traced passes.

Every workload is a closed loop over its corpus (``corpus.py``): each
caller sends its next task only when the previous answer is back.  A
*cycle* is a cold pass (fresh session, store or connections) followed
by a warm pass (the same corpus again on the state the cold pass left).
Every pass's result lines must be byte-identical to the gate's.

Set-up is everything before the timed phase: imports, corpus
generation, opening the session, store or daemon, and the gate pass.
The gate pass is the process's first pass, so it pays for filling the
program's process-wide caches (canonical labels, interned structures);
the timed passes run after it.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import multiprocessing
import os
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

from corpus import arrival_order, canonical_corpus
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

# Tiered store of the ``count`` workload.
STORE_SHARDS = 4
STORE_MEMORY_TIER = 2048
WORKERS = 2

clock = time.perf_counter


class Mismatch(Exception):
    """A result line differs from its reference: the run is incorrect."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def failed_lines(lines: Sequence[Optional[str]]) -> int:
    """Records that are not answers: ``ok:false`` lines (library errors,
    overload refusals) and ``None`` (transport errors)."""
    return sum(1 for line in lines if line is None or '"ok":false' in line)


# ----------------------------------------------------------------------
# Recorded digests
# ----------------------------------------------------------------------
def digest_entry(results: Sequence[str]) -> Dict[str, object]:
    """The recorded reference of a corpus's results (canonical order):
    the sha256 of every line except the failures, which are kept whole
    under their corpus position."""
    failures = {str(position): line for position, line in enumerate(results)
                if '"ok":false' in line}
    digest = hashlib.sha256()
    for position, line in enumerate(results):
        if str(position) not in failures:
            digest.update(line.encode("utf-8") + b"\n")
    return {"tasks": len(results), "sha256": digest.hexdigest(),
            "failures": failures}


def check_digest(workload: str, scale: str, results: Sequence[str]) -> None:
    """Compare canonical-order results with the recorded digest.

    A recorded failure that now answers ``ok`` (with a verified witness,
    if it carries one) is a fix, not a mismatch, so a fix shows as a
    lower failed share; any other difference fails the run.
    """
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        entry = json.load(handle)[workload][scale]
    check(len(results) == entry["tasks"],
          f"{workload}: {len(results)} results, recorded {entry['tasks']}")
    failures = entry["failures"]
    digest = hashlib.sha256()
    for position, line in enumerate(results):
        known = failures.get(str(position))
        if known is None:
            digest.update(line.encode("utf-8") + b"\n")
        elif line != known:
            record = json.loads(line)
            check(record.get("ok") is True
                  and record.get("witness", {}).get("verified", True) is True,
                  f"{workload}: task {position} changed from its recorded "
                  f"failure to {line[:200]}")
    check(digest.hexdigest() == entry["sha256"],
          f"{workload}: result digest differs from the recorded one")


def unpermute(results: Sequence[str], order: Sequence[int]) -> List[str]:
    canonical: List[str] = [""] * len(results)
    for arrival, position in enumerate(order):
        canonical[position] = results[arrival]
    return canonical


def reference_results(workload: str, tiny: bool) -> List[str]:
    """Results in canonical order from one fresh in-process session."""
    from repro.batch.runner import evaluate_line
    from repro.session import SolverSession

    with SolverSession() as session:
        return [evaluate_line(line, session)
                for line in canonical_corpus(workload, tiny)]


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def self_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def children_peak_kb() -> int:
    """Summed peak resident memory of this process's live
    ``multiprocessing`` children (the batch worker pool)."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total


# ----------------------------------------------------------------------
# Shared result shape
# ----------------------------------------------------------------------
class Timed:
    """What the timed passes of one interpreter measured."""

    def __init__(self, corpus_size: int):
        self.corpus_size = corpus_size
        self.cold_s: List[float] = []
        self.warm_s: List[float] = []
        self.latencies: List[float] = []  # of every cold-pass task
        self.attempted = 0
        self.failed = 0

    def _add(self, lines: Sequence[Optional[str]]) -> None:
        self.attempted += len(lines)
        self.failed += failed_lines(lines)

    def add_cold(self, elapsed: float, lines: Sequence[Optional[str]],
                 latencies: Sequence[float]) -> None:
        self.cold_s.append(elapsed)
        self.latencies.extend(latencies)
        self._add(lines)

    def add_warm(self, elapsed: float, lines: Sequence[Optional[str]]) -> None:
        self.warm_s.append(elapsed)
        self._add(lines)

    def raw(self, setup_s: float, peak_kb: int) -> Dict[str, object]:
        """This interpreter's figures, for :func:`merge_parts`."""
        return {"correct": True, "setup_s": setup_s, "peak_kb": peak_kb,
                "corpus_size": self.corpus_size, "cold_s": self.cold_s,
                "warm_s": self.warm_s, "latencies": self.latencies,
                "attempted": self.attempted, "failed": self.failed}


def cycles(seconds: float):
    """Yield once per cycle until ``seconds`` are used.  There is always
    one cycle; a further one starts only if it should end within half a
    cycle of the deadline, so a run overruns by at most half a cycle."""
    deadline = clock() + seconds
    while True:
        start = clock()
        yield
        if clock() + (clock() - start) / 2 >= deadline:
            return


def task_best(parts: Sequence[Dict[str, object]]) -> List[float]:
    """Each task's lowest latency over every cold pass of the run.

    The parts of a run share the seed, so every cold pass lists the
    corpus's tasks in the same order."""
    size = parts[0]["corpus_size"]
    best = [float("inf")] * size
    for part in parts:
        flat = part["latencies"]
        for offset in range(0, len(flat), size):
            best = [min(pair)
                    for pair in zip(best, flat[offset:offset + size])]
    return best


def merge_parts(parts: Sequence[Dict[str, object]]):
    """End-to-end metrics over the measuring interpreters of one run.

    * ``setup_s``: median of the interpreters' set-up times;
    * rates: tasks of all cold (warm) passes over their summed time.
      The host's speed drifts between a fast and a slow regime for
      seconds at a time; the run's mean integrates the regimes in
      proportion, where a median of passes jumps between them;
    * latency percentiles: over the corpus's tasks, of each task's
      lowest latency across the cold passes.  A task's cost is fixed
      and the host only ever slows it (a slow spell, or the CPU lent
      to another process for a slice), so the tail is made of the
      tasks that are slow every time, and the best of a task's
      samples is the one the host disturbed least.  Percentiles of
      the pooled samples, or of each task's median, moved with the
      host's stalls and spells (see ``layers.json``);
    * ``peak_rss_mb``: the largest peak memory."""
    def rate(key: str) -> float:
        passes = sum(len(part[key]) for part in parts)
        seconds = sum(sum(part[key]) for part in parts)
        return parts[0]["corpus_size"] * passes / seconds

    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    setups = [part["setup_s"] for part in parts]
    passes = sum(len(part["cold_s"]) for part in parts)
    latencies = task_best(parts)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (rate("cold_s"), "1/s"),
        "warm_tasks_per_s": (rate("warm_s"), "1/s"),
        "task_ms_p50": (percentile(latencies, 0.50) * 1e3, "ms"),
        "task_ms_p99": (percentile(latencies, 0.99) * 1e3, "ms"),
        "ok_share": (1.0 - failed / attempted, "share"),
        "peak_rss_mb": (max(part["peak_kb"] for part in parts) / 1024.0,
                        "MB"),
    }
    note = (f"{len(parts)} interpreters, {passes} cycles, {attempted} tasks "
            f"attempted, {failed} failed; latency percentiles over the "
            f"best of {len(latencies)} tasks across {passes} cold "
            f"passes; "
            f"set-up samples {[round(value, 3) for value in setups]}")
    return attempted, failed, metrics, note


def layer_metrics(summary: Dict[str, object]) -> Dict[str, tuple]:
    """``<layer>.self_ms`` and ``<layer>.calls`` per task."""
    tasks = summary["calls"]["batch.runner"]
    check(tasks > 0, "traced passes recorded no request spans")
    out: Dict[str, tuple] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (summary["self_s"][layer] / tasks * 1e3,
                                   "ms/task")
        out[f"{layer}.calls"] = (summary["calls"][layer] / tasks, "calls/task")
    return out


def check_cover(summary: Dict[str, object], task_s: float) -> float:
    """Layer self times must add up to the root spans, and the request
    spans must cover the task time measured around them."""
    self_total = sum(summary["self_s"].values())
    check(abs(self_total - summary["root_s"]) <= 1e-6 * max(1.0, task_s),
          "layer self times do not add up to the root spans")
    coverage = summary["request_s"] / task_s
    check(0.9 <= coverage <= 1.0 + 1e-9,
          f"request spans cover {coverage:.3f} of the traced task time")
    return coverage


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def engine_ratios(counters: Dict[str, float]) -> Dict[str, tuple]:
    def get(name: str) -> float:
        return float(counters.get(name, 0))

    memo = get("engine.memo.hits") + get("engine.memo.misses")
    exists = get("engine.exists.hits") + get("engine.exists.misses")
    counts = get("engine.count.dp") + get("engine.count.backtrack")
    return {
        "hom.engine.memo_hit_ratio":
            (ratio(get("engine.memo.hits"), memo), "ratio"),
        "hom.engine.memo_probes": (memo, "count"),
        "hom.engine.exists_hit_ratio":
            (ratio(get("engine.exists.hits"), exists), "ratio"),
        "hom.engine.exists_probes": (exists, "count"),
        "hom.engine.dp_share": (ratio(get("engine.count.dp"), counts),
                                "ratio"),
        "hom.engine.kernel_runs": (counts, "count"),
    }


def record_metrics(results: Sequence[str]) -> Dict[str, tuple]:
    """Quantities read off the result records themselves."""
    dimensions, witnesses, verified = [], 0, 0
    for line in results:
        if '"basis_dimension"' not in line:
            continue
        record = json.loads(line)
        dimensions.append(record["basis_dimension"])
        if "witness" in record:
            witnesses += 1
            verified += record["witness"].get("verified") is True
    return {
        "core.basis.dimension": (statistics.mean(dimensions)
                                 if dimensions else 0.0, "count"),
        "core.witness.verified_share": (ratio(verified, witnesses), "ratio"),
        "core.witness.witnesses": (float(witnesses), "count"),
        "failed_share": (failed_lines(results) / len(results), "share"),
    }


# Per-layer metrics that only some workloads measure (the store on
# count, the service on serve); elsewhere they read 0: not exercised.
UNEXERCISED = {
    "batch.store.hit_ratio": "ratio", "batch.store.lookups": "count",
    "batch.store.tier_hit_ratio": "ratio", "batch.store.tier_probes": "count",
    "batch.store.flush_rows": "rows", "batch.runner.worker_restarts": "count",
    "service.queued_us.p50": "us", "service.queued_us.p99": "us",
    "service.overhead_ms": "ms",
}


def fill_unexercised(metrics: Dict[str, tuple]) -> Dict[str, tuple]:
    for name, unit in UNEXERCISED.items():
        metrics.setdefault(name, (0.0, unit))
    return metrics


# ----------------------------------------------------------------------
# decide / witness: one caller, evaluate_line, one SolverSession
# ----------------------------------------------------------------------
class InProcess:
    """``evaluate_line`` over the corpus on one ``SolverSession``."""

    def __init__(self, name: str, seed: int, tiny: bool):
        self.name, self.seed, self.tiny = name, seed, tiny
        self.lines: List[str] = []
        self.expected: List[str] = []

    def setup(self) -> None:
        from repro.session import SolverSession

        corpus = canonical_corpus(self.name, self.tiny)
        order = arrival_order(len(corpus), self.seed)
        self.lines = [corpus[position] for position in order]
        with SolverSession() as session:
            self.expected = self._evaluate(session, None)
        check_digest(self.name, "tiny" if self.tiny else "full",
                     unpermute(self.expected, order))

    def close(self) -> None:
        pass

    def _evaluate(self, session, latencies: Optional[list]) -> List[str]:
        from repro.batch import runner

        evaluate = runner.evaluate_line  # looked up now: may be traced
        if latencies is None:
            return [evaluate(line, session) for line in self.lines]
        out = []
        for line in self.lines:
            start = clock()
            out.append(evaluate(line, session))
            latencies.append(clock() - start)
        return out

    def _pass(self, session, latencies: Optional[list] = None):
        """One pass over the corpus: ``(seconds, result lines)``."""
        start = clock()
        out = self._evaluate(session, latencies)
        elapsed = clock() - start
        check(out == self.expected,
              f"{self.name}: a timed pass differs from the gate pass")
        return elapsed, out

    def timed(self, seconds: float) -> Timed:
        from repro.session import SolverSession

        result = Timed(len(self.lines))
        for _ in cycles(seconds):
            with SolverSession() as session:
                latencies: List[float] = []
                elapsed, out = self._pass(session, latencies)
                result.add_cold(elapsed, out, latencies)
                result.add_warm(*self._pass(session))
        return result

    def peak_kb(self) -> int:
        return self_peak_kb()

    def traced(self, seconds: float, spans_path: str) -> Dict[str, tuple]:
        from repro.session import SolverSession

        tracer = Tracer()
        plain_s = traced_s = task_s = 0.0
        counters: Dict[str, float] = {}
        for _ in cycles(seconds):
            with SolverSession() as session:
                plain_s += self._pass(session)[0]
            tracer.install()
            try:
                latencies: List[float] = []
                with SolverSession() as session:
                    traced_s += self._pass(session, latencies)[0]
                    if not counters:
                        counters = session.stats(flat=True)
                task_s += sum(latencies)
            finally:
                tracer.uninstall()
        summary = tracer.summary()
        tracer.write(spans_path)
        metrics = layer_metrics(summary)
        metrics["tracing.coverage"] = (check_cover(summary, task_s), "ratio")
        metrics["tracing.overhead"] = (traced_s / plain_s, "ratio")
        metrics.update(engine_ratios(counters))
        metrics.update(record_metrics(self.expected))
        return metrics


# ----------------------------------------------------------------------
# count: iter_results(workers=2) against a fresh sharded store
# ----------------------------------------------------------------------
class Count:
    """Batch hom counting through the worker pool and the tiered store.

    A cold pass writes a fresh store directory; the warm pass runs a
    fresh pool (fresh worker sessions) against the store the cold pass
    wrote.  The workers are forked from this process, which never
    evaluates a task before the timed phase, so each pool starts with
    the program's process-wide caches as cold as ``repro batch run``
    finds them.  Per-task latency is timed around ``evaluate_line``
    inside the workers and written to a shared memory map.
    """

    def __init__(self, name: str, seed: int, tiny: bool, out_dir: str):
        self.name, self.seed, self.tiny = name, seed, tiny
        self.work_dir = os.path.join(out_dir, f"count-{os.getpid()}")
        self.lines: List[str] = []
        self.expected: List[str] = []
        self.worker_restarts = 0
        self.children_kb = 0
        self._stores = 0
        self._slots: Optional[mmap.mmap] = None

    def setup(self) -> None:
        from repro.batch import runner

        corpus = canonical_corpus(self.name, self.tiny)
        order = arrival_order(len(corpus), self.seed)
        self.lines = [corpus[position] for position in order]
        os.makedirs(self.work_dir, exist_ok=True)
        self._install_latency_probe(runner)
        store = self._fresh_store()
        try:
            self.expected, _, sink = self._pool_pass(store)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        self.worker_restarts += int(sink.get("batch.worker.restarts", 0))
        check_digest(self.name, "tiny" if self.tiny else "full",
                     unpermute(self.expected, order))

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def _install_latency_probe(self, runner) -> None:
        slots = mmap.mmap(-1, 8 * len(self.lines))
        index = {line: position for position, line in enumerate(self.lines)}
        original = runner.evaluate_line
        pack = struct.pack_into

        def timed_evaluate_line(line, context):
            start = clock()
            out = original(line, context)
            position = index.get(line)
            if position is not None:
                pack("d", slots, 8 * position, clock() - start)
            return out

        runner.evaluate_line = timed_evaluate_line
        self._slots = slots

    def _fresh_store(self) -> str:
        self._stores += 1
        return os.path.join(self.work_dir, f"store-{self._stores}")

    def _pool_pass(self, store: str, latencies: Optional[list] = None):
        from repro.batch.runner import iter_results

        slots = self._slots
        slots[:] = bytes(len(slots))
        sink: Dict[str, float] = {}
        out: List[str] = []
        last = len(self.lines) - 1
        start = clock()
        for line in iter_results(self.lines, workers=WORKERS,
                                 cache_path=store, shards=STORE_SHARDS,
                                 memory_tier=STORE_MEMORY_TIER,
                                 metrics_sink=sink):
            if len(out) == last:
                # The pool is still up until the generator finishes.
                self.children_kb = max(self.children_kb, children_peak_kb())
            out.append(line)
        elapsed = clock() - start
        if latencies is not None:
            measured = struct.unpack(f"{len(self.lines)}d", slots)
            check(all(value > 0 for value in measured),
                  "count: the latency probe missed tasks (the probe "
                  "needs forked workers)")
            latencies.extend(measured)
        return out, elapsed, sink

    def _timed_pool_pass(self, store: str,
                         latencies: Optional[list] = None):
        out, elapsed, sink = self._pool_pass(store, latencies)
        check(out == self.expected,
              "count: a timed pass differs from the gate pass")
        self.worker_restarts += int(sink.get("batch.worker.restarts", 0))
        return out, elapsed

    def timed(self, seconds: float) -> Timed:
        """Cycles of a cold pass into a fresh store and a warm pass
        reading it; every warm pass must equal the cold pass."""
        result = Timed(len(self.lines))
        for _ in cycles(seconds):
            store = self._fresh_store()
            try:
                latencies: List[float] = []
                out, elapsed = self._timed_pool_pass(store, latencies)
                result.add_cold(elapsed, out, latencies)
                out, elapsed = self._timed_pool_pass(store)
                result.add_warm(elapsed, out)
            finally:
                shutil.rmtree(store, ignore_errors=True)
        return result

    def peak_kb(self) -> int:
        return self_peak_kb() + self.children_kb

    def _inline_pass(self, store: str):
        """One pass with ``workers=1``: evaluation in this process, so
        the tracer sees it and the counters do not depend on how chunks
        were scheduled across workers."""
        from repro.batch.runner import iter_results

        sink: Dict[str, float] = {}
        start = clock()
        out = list(iter_results(self.lines, workers=1, cache_path=store,
                                shards=STORE_SHARDS,
                                memory_tier=STORE_MEMORY_TIER,
                                metrics_sink=sink))
        elapsed = clock() - start
        check(out == self.expected,
              "count: an inline pass differs from the pool's gate pass")
        return elapsed, sink

    def traced(self, seconds: float, spans_path: str) -> Dict[str, tuple]:
        from repro.batch import runner

        tracer = Tracer()
        plain_s = traced_s = 0.0
        task_s = [0.0]
        cold_sink: Dict[str, float] = {}
        warm_sink: Dict[str, float] = {}
        for _ in cycles(seconds):
            for trace in (False, True):
                store = self._fresh_store()
                if trace:
                    # Task time is taken around the traced request root.
                    tracer.install()
                    traced_root = runner.evaluate_line

                    def timed_root(line, context):
                        start = clock()
                        try:
                            return traced_root(line, context)
                        finally:
                            task_s[0] += clock() - start

                    runner.evaluate_line = timed_root
                try:
                    elapsed, cold = self._inline_pass(store)
                    _, warm = self._inline_pass(store)
                finally:
                    if trace:
                        runner.evaluate_line = traced_root
                        tracer.uninstall()
                    shutil.rmtree(store, ignore_errors=True)
                if trace:
                    traced_s += elapsed
                    if not cold_sink:
                        cold_sink, warm_sink = cold, warm
                else:
                    plain_s += elapsed
        summary = tracer.summary()
        tracer.write(spans_path)
        metrics = layer_metrics(summary)
        metrics["tracing.coverage"] = (check_cover(summary, task_s[0]),
                                       "ratio")
        metrics["tracing.overhead"] = (traced_s / plain_s, "ratio")
        metrics.update(engine_ratios(cold_sink))
        metrics.update(record_metrics(self.expected))
        lookups = warm_sink.get("store.lookups", 0)
        tier = warm_sink.get("store.tier.hits", 0) \
            + warm_sink.get("store.tier.misses", 0)
        metrics.update({
            "batch.store.hit_ratio": (
                ratio(warm_sink.get("store.lookup_hits", 0), lookups),
                "ratio"),
            "batch.store.lookups": (float(lookups), "count"),
            "batch.store.tier_hit_ratio": (
                ratio(warm_sink.get("store.tier.hits", 0), tier), "ratio"),
            "batch.store.tier_probes": (float(tier), "count"),
            "batch.store.flush_rows": (
                float(cold_sink.get("store.flush.rows", 0)), "rows"),
            "batch.runner.worker_restarts": (float(self.worker_restarts),
                                             "count"),
        })
        return metrics


# ----------------------------------------------------------------------
# serve: the async daemon in its own process, 1 TCP client
# ----------------------------------------------------------------------
def pin_process(cpu: int) -> None:
    """Bind every thread of this process, and every thread and child it
    starts from now on, to ``cpu``."""
    for thread in threading.enumerate():
        os.sched_setaffinity(thread.native_id, {cpu})


class Daemon:
    """A ``daemon.py`` child process and its port."""

    def __init__(self, trace: bool, spans_path: Optional[str] = None):
        command = [sys.executable, os.path.join(HERE, "daemon.py"),
                   "--trace", "1" if trace else "0"]
        if spans_path:
            command += ["--spans", spans_path]
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        try:
            self.port = json.loads(self._read())["port"]
        except BaseException:
            self.kill()
            raise

    def _read(self) -> str:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("serve: the daemon process exited early")
        return line

    def send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def pin(self, cpu: int) -> None:
        """Move every thread of the daemon to ``cpu``; returns once moved."""
        self.send(f"pin {cpu}")
        self._read()

    def stop(self) -> Dict[str, object]:
        """Drain and stop the daemon; its final report."""
        try:
            self.send("stop")
            report = json.loads(self._read())
            self.process.wait(timeout=60)
        except BaseException:
            self.kill()
            raise
        finally:
            self.process.stdin.close()
            self.process.stdout.close()
        return report

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=60)


class Serve:
    """One persistent closed-loop ``DaemonClient`` against the daemon.

    One client, not two: two client threads share this interpreter's
    lock and the daemon's dispatch threads share the daemon's, so with
    both busy a task waits whole switch intervals for a lock, and on two
    CPUs the figures measured the scheduler (a p99 spread of 0.6 of its
    median between runs of the same code).  Latency is timed on the
    client from send to decoded reply.  A cold pass opens a new
    connection (a fresh anonymous tenant, so a fresh session); the warm
    pass reuses it.

    The client and the daemon share one CPU: a closed-loop request hops
    between them, and across two CPUs every hop wakes an idle virtual
    CPU, whose wake-up time varies with the host, where on one CPU it
    is a plain context switch.  Each cycle moves both to the next CPU,
    because the host's virtual CPUs change speed independently, for
    seconds at a time: pinned to one CPU for the whole run, ten runs
    spread 2-3 times as widely as with the CPUs taking turns.
    """

    def __init__(self, name: str, seed: int, tiny: bool):
        self.name, self.seed, self.tiny = name, seed, tiny
        self.lines: List[str] = []
        self.expected: List[str] = []
        self.daemon: Optional[Daemon] = None
        self.daemon_kb = 0
        self.cpus: List[int] = []

    def setup(self) -> None:
        from repro.batch.runner import evaluate_line
        from repro.service.client import DaemonClient
        from repro.session import SolverSession

        self.cpus = sorted(os.sched_getaffinity(0))
        pin_process(self.cpus[0])
        corpus = canonical_corpus(self.name, self.tiny)
        order = arrival_order(len(corpus), self.seed)
        self.lines = [corpus[position] for position in order]
        self.daemon = Daemon(trace=False)
        with DaemonClient(port=self.daemon.port) as client:
            client.wait_until_ready(timeout=60)
        with SolverSession() as session:
            self.expected = [evaluate_line(line, session)
                             for line in self.lines]
        check_digest(self.name, "tiny" if self.tiny else "full",
                     unpermute(self.expected, order))
        with self._client() as client:
            self._pass(client)

    def close(self) -> None:
        if self.daemon is not None:
            self._stop_daemon()

    def _stop_daemon(self) -> Dict[str, object]:
        daemon, self.daemon = self.daemon, None
        report = daemon.stop()
        self.daemon_kb = max(self.daemon_kb, report["peak_rss_kb"])
        return report

    def _client(self):
        from repro.service.client import DaemonClient

        return DaemonClient(port=self.daemon.port, timeout=60)

    def _pass(self, client, latencies: Optional[list] = None):
        from repro.batch.tasks import canonical_json
        from repro.errors import ReproError

        answers: List[Optional[str]] = []
        times: List[float] = []
        start = clock()
        for line in self.lines:
            sent = clock()
            try:
                answers.append(canonical_json(client.request_line(line)))
            except ReproError:
                answers.append(None)  # transport error: counted failed
            times.append(clock() - sent)
        elapsed = clock() - start
        for answer, expected in zip(answers, self.expected):
            check(answer is None or answer == expected
                  or '"error_kind":"overloaded"' in answer,
                  "serve: a daemon answer differs from in-process "
                  "evaluate_line")
        if latencies is not None:
            latencies.extend(times)
        return elapsed, answers

    def timed(self, seconds: float) -> Timed:
        result = Timed(len(self.lines))
        for turn, _ in enumerate(cycles(seconds)):
            cpu = self.cpus[turn % len(self.cpus)]
            pin_process(cpu)
            self.daemon.pin(cpu)
            with self._client() as client:
                latencies: List[float] = []
                elapsed, out = self._pass(client, latencies)
                result.add_cold(elapsed, out, latencies)
                result.add_warm(*self._pass(client))
        return result

    def peak_kb(self) -> int:
        if self.daemon is not None:
            self._stop_daemon()
        return self_peak_kb() + self.daemon_kb

    def _service_metrics(self) -> Dict[str, object]:
        from repro.service.client import DaemonClient

        with DaemonClient(port=self.daemon.port, timeout=60) as client:
            return client.metrics()["metrics"]

    def traced(self, seconds: float, spans_path: str) -> Dict[str, tuple]:
        from repro.session import SolverSession

        third = seconds / 3.0
        # Untraced daemon: rate, client-side p50, dispatch queueing.
        before = self._service_metrics()
        plain = self.timed(third)
        after = self._service_metrics()
        self._stop_daemon()
        queued = _histogram_delta(after["service.request.queued_us"],
                                  before["service.request.queued_us"])
        # The same corpus in process: what the service layer adds.
        local = InProcess(self.name, self.seed, self.tiny)
        local.lines, local.expected = self.lines, self.expected
        in_process: List[float] = []
        for _ in cycles(third):
            with SolverSession() as session:
                local._pass(session, in_process)
        # Traced daemon.
        self.daemon = Daemon(trace=True, spans_path=spans_path)
        try:
            with self._client() as client:
                self._pass(client)  # untimed warm-up of the new process
            self.daemon.send("reset")
            traced = self.timed(third)
        finally:
            report = self._stop_daemon()
        summary = report["trace"]
        metrics = layer_metrics(summary)
        metrics["tracing.coverage"] = (
            check_cover(summary, report["latency_us"]["sum"] / 1e6), "ratio")
        metrics["tracing.overhead"] = (
            sum(traced.cold_s) / len(traced.cold_s)
            / (sum(plain.cold_s) / len(plain.cold_s)), "ratio")
        # Engine counters of one fresh in-process session over the
        # corpus: anonymous daemon tenants do not report theirs.
        with SolverSession() as session:
            local._pass(session)
            counters = session.stats(flat=True)
        metrics.update(engine_ratios(counters))
        metrics.update(record_metrics(self.expected))
        serve_p50 = percentile(plain.latencies, 0.5)
        metrics.update({
            "service.queued_us.p50": (_histogram_percentile(queued, 0.5),
                                      "us"),
            "service.queued_us.p99": (_histogram_percentile(queued, 0.99),
                                      "us"),
            "service.overhead_ms": (
                (serve_p50 - percentile(in_process, 0.5)) * 1e3, "ms"),
        })
        return metrics


def _histogram_delta(after: Dict[str, object],
                     before: Dict[str, object]) -> Dict[int, int]:
    """Per-bucket counts observed between two snapshots of a histogram."""
    return {int(le): count - before["buckets"].get(le, 0)
            for le, count in after["buckets"].items()}


def _histogram_percentile(buckets: Dict[int, int], share: float) -> float:
    """Upper bound (µs) of the log2 bucket holding the percentile."""
    total = sum(buckets.values())
    seen = 0
    for le in sorted(buckets):
        seen += buckets[le]
        if seen >= share * total:
            return float(le)
    return 0.0  # no observations


def make(name: str, seed: int, tiny: bool, out_dir: str):
    if name in ("decide", "witness"):
        return InProcess(name, seed, tiny)
    if name == "count":
        return Count(name, seed, tiny, out_dir)
    return Serve(name, seed, tiny)
