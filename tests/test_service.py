"""The resident request service: protocol, parity, isolation, shutdown.

The headline contract: a warm ``repro serve`` stdio stream answers a
200-task mixed JSONL stream **byte-identical** to ``repro batch run
--workers 1``, with cross-request memo hits > 0.  Every test here
drives the one daemon (:mod:`repro.service.async_daemon`) through its
stdio front end or a live TCP :class:`AsyncDaemonHandle`.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import sys
import threading
import time

import pytest

from repro.batch.runner import iter_results
from repro.batch.scenarios import generate_scenario
from repro.batch.tasks import (
    BatchCodecError,
    canonical_json,
    decode_task,
    make_hom_count_task,
)
from repro.errors import ReproError
from repro.obs import StructuredLogger
from repro.service import (
    AsyncDaemonHandle,
    AsyncSolverService,
    DaemonClient,
    serve_async_stdio,
)
from repro.service.async_daemon import parse_control
from repro.session import SolverSession
from repro.structures.generators import clique_structure, path_structure

# A leaked socket fails the run instead of surfacing as a stray
# warning.  The warning fires in a finalizer, which pytest reports as
# an unraisable-exception warning, so that one is an error too.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"),
]


def _stream(kind: str, count: int, seed: int):
    return [canonical_json(record)
            for record in generate_scenario(kind, count, seed=seed)]


def _serve_lines(lines, probe=AsyncSolverService.stats, **service_kwargs):
    """``(responses, probe(service))`` for one stdio stream.

    ``probe`` runs on the drained service before it closes, so it sees
    the final counters of the stream it served.
    """
    async def main():
        service = AsyncSolverService(**service_kwargs)
        sink = io.StringIO()
        try:
            await serve_async_stdio(
                service, source=iter(line + "\n" for line in lines),
                sink=sink)
            return sink.getvalue().splitlines(), probe(service)
        finally:
            await service.aclose()

    return asyncio.run(main())


def _control(op: str, **fields):
    """A probe answering one control op on the drained service."""
    return lambda service: json.loads(
        service.control_record({"op": op, **fields}))


# ----------------------------------------------------------------------
# Batch parity (the acceptance criterion)
# ----------------------------------------------------------------------
class TestBatchParity:
    def test_200_task_mixed_stream_matches_batch_run(self):
        lines = _stream("mixed", 200, seed=11)
        batch = list(iter_results(lines, workers=1))
        served, report = _serve_lines(lines, workers=2)
        assert served == batch  # byte-for-byte

        engine = report["session"]["engine"]
        # Cross-request reuse is the point of residency: the warm memo
        # answered some probes without recomputation.
        assert engine["hits"] + engine["exists_hits"] > 0
        assert report["service"]["requests"] == 200
        assert report["service"]["errors"] == 0
        assert report["session"]["tasks_evaluated"] == 200

    def test_hom_scenario_matches_batch_run(self):
        lines = _stream("hom", 16, seed=5)
        batch = list(iter_results(lines, workers=1))
        assert _serve_lines(lines)[0] == batch

    def test_iter_results_accepts_resident_session(self):
        """The service's inline-evaluation path: iter_results under a
        caller-owned session keeps the memo warm across streams."""
        lines = _stream("hom", 8, seed=9)
        session = SolverSession()
        first = list(iter_results(lines, workers=1, session=session))
        warm_before = session.stats()["engine"]["hits"]
        second = list(iter_results(lines, workers=1, session=session))
        assert first == second
        assert session.stats()["engine"]["hits"] > warm_before
        assert session.tasks_evaluated == 16

    def test_iter_results_rejects_session_with_workers(self):
        with pytest.raises(ReproError, match="workers"):
            list(iter_results([], workers=2, session=SolverSession()))

    def test_iter_results_rejects_session_plus_cache_path(self):
        with pytest.raises(ReproError, match="not both"):
            list(iter_results([], workers=1, session=SolverSession(),
                              cache_path="x.sqlite"))


# ----------------------------------------------------------------------
# The hom-count request kind
# ----------------------------------------------------------------------
class TestHomCountKind:
    def test_round_trip_and_answer(self):
        source = path_structure(["R", "R"])
        target = clique_structure(4)
        record = make_hom_count_task("h1", source, target)
        task = decode_task(canonical_json(record))
        assert task.kind == "hom-count"
        assert task.source == source
        assert task.target == target

        [line], _ = _serve_lines([canonical_json(record)])
        payload = json.loads(line)
        assert payload["ok"] is True
        assert int(payload["count"]) == SolverSession().count(source, target)

    def test_bad_payload_rejected(self):
        with pytest.raises(BatchCodecError, match="source"):
            decode_task('{"id": "x", "kind": "hom-count", '
                        '"source": 3, "target": 4}')

    def test_missing_target_rejected(self):
        source = path_structure(["R"])
        record = make_hom_count_task("x", source, source)
        del record["target"]
        with pytest.raises(BatchCodecError, match="target"):
            decode_task(record)


# ----------------------------------------------------------------------
# Control protocol
# ----------------------------------------------------------------------
class TestControlOps:
    def test_ping(self):
        [line], _ = _serve_lines(['{"op": "ping"}'])
        assert json.loads(line) == {"ok": True, "op": "ping"}

    def test_stats_reports_service_and_session(self):
        lines = _stream("hom", 4, seed=2)
        _, payload = _serve_lines(lines, probe=_control("stats"))
        assert payload["ok"] is True
        stats = payload["stats"]
        assert stats["service"]["requests"] == 4
        assert stats["service"]["kinds"] == {"hom-count": 4}
        assert "hits" in stats["session"]["engine"]
        assert stats["service"]["mean_latency_ms"] >= 0.0

    def test_unknown_op_is_an_error_response(self):
        unknown, hello = _serve_lines(
            ['{"op": "dance"}', '{"op": "hello"}'])[0]
        payload = json.loads(unknown)
        assert payload["ok"] is False
        assert "dance" in payload["error"]
        # hello/batch act on a connection, which stdio does not have
        refused = json.loads(hello)
        assert refused["ok"] is False and refused["op"] == "hello"
        assert "needs a persistent connection" in refused["error"]

    def test_shutdown_stops_the_stream(self):
        lines = _stream("hom", 2, seed=3)
        source = [lines[0], '{"op": "shutdown"}', lines[1]]
        responses, draining = _serve_lines(
            source, probe=lambda service: service.draining)
        assert draining
        assert len(responses) == 2  # task result + shutdown ack, no more
        assert json.loads(responses[0])["kind"] == "hom-count"
        assert json.loads(responses[1]) == {"ok": True, "op": "shutdown"}

    def test_external_drain_ends_an_idle_stream(self):
        """A drain from outside the stream (SIGTERM in ``repro serve``)
        ends stdio serving while the reader is blocked waiting for
        input that never comes."""
        line = _stream("hom", 1, seed=3)[0]
        release = threading.Event()

        def idle_source():
            yield line + "\n"
            release.wait(timeout=30)  # a client that goes quiet

        async def main():
            service = AsyncSolverService(workers=1)
            sink = io.StringIO()
            loop = asyncio.get_running_loop()
            loop.call_later(0.5, service.request_drain)
            started = time.monotonic()
            try:
                written = await serve_async_stdio(
                    service, source=idle_source(), sink=sink)
            finally:
                await service.aclose()
            return written, time.monotonic() - started

        try:
            written, elapsed = asyncio.run(main())
        finally:
            release.set()
        assert written == 1
        assert elapsed < 10.0

    def test_control_lines_are_not_tasks(self):
        assert parse_control("not json at all") is None
        assert parse_control('{"kind": "hom-count"}') is None
        assert parse_control('{"op": "ping"}') == {"op": "ping"}


# ----------------------------------------------------------------------
# Error isolation
# ----------------------------------------------------------------------
class TestErrorIsolation:
    def test_poison_lines_do_not_kill_the_stream(self):
        lines = _stream("hom", 2, seed=7)
        source = ["garbage{{{",
                  '{"id": "u1", "kind": "unknown-kind"}',
                  lines[0],
                  '{"id": "", "kind": "hom-count"}',
                  lines[1]]
        responses, report = _serve_lines(source)
        assert len(responses) == 5
        verdicts = [json.loads(r)["ok"] for r in responses]
        assert verdicts == [False, False, True, False, True]
        assert report["service"]["errors"] == 3
        assert report["service"]["requests"] == 5

    def test_unexpected_exception_becomes_internal_error(self, monkeypatch):
        import repro.service.async_daemon as async_daemon

        def boom(line, context):
            raise ValueError("wired to fail")

        monkeypatch.setattr(async_daemon, "evaluate_envelope", boom)
        log = io.StringIO()
        logger = StructuredLogger(stream=log, component="repro.serve")
        [line], report = _serve_lines(['{"x": 1}'], logger=logger)
        payload = json.loads(line)
        assert payload["ok"] is False
        assert payload["error"].startswith("InternalError")
        assert payload["request_id"].startswith("req-")
        assert report["service"]["requests"] == 1
        assert report["service"]["errors"] == 1
        # service and session accounting stay in step on error streams
        assert report["session"]["tasks_evaluated"] == 1
        assert report["session"]["task_errors"] == 1
        # the request id ties the record to its request-log line
        [entry] = [json.loads(text) for text in log.getvalue().splitlines()]
        assert entry["request_id"] == payload["request_id"]
        assert entry["ok"] is False

    def test_interactive_client_gets_response_before_next_request(self):
        """Request/response over a live pipe: the answer to request N
        must be flushed before the client sends request N+1 (the writer
        emits each response as it resolves — no batching until EOF)."""
        lines = _stream("hom", 2, seed=21)
        sink = io.StringIO()
        got_first = threading.Event()

        def interactive_source():
            yield lines[0] + "\n"
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if sink.getvalue().count("\n") >= 1:
                    got_first.set()
                    break
                time.sleep(0.005)
            yield lines[1] + "\n"

        async def main():
            service = AsyncSolverService(workers=2)
            try:
                await serve_async_stdio(
                    service, source=interactive_source(), sink=sink)
            finally:
                await service.aclose()

        asyncio.run(main())
        assert got_first.is_set()
        assert len(sink.getvalue().splitlines()) == 2

    def test_ordering_preserved_with_concurrent_workers(self):
        lines = _stream("mixed", 40, seed=13)
        expected = list(iter_results(lines, workers=1))
        assert _serve_lines(lines, workers=4)[0] == expected


class TestConcurrentAccounting:
    def test_concurrent_tenants_lose_no_counts(self):
        """Executor threads of different tenants finish requests at the
        same time; every request must land in the service counters."""
        service = AsyncSolverService(workers=1)
        tenants = [service.tenants.get_or_create(f"t{index}")
                   for index in range(8)]
        calls = 300

        def hammer(tenant) -> None:
            for _ in range(calls):
                service._evaluate(tenant, "garbage{{{")

        threads = [threading.Thread(target=hammer, args=(tenant,))
                   for tenant in tenants]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
            asyncio.run(service.aclose())
        assert not any(thread.is_alive() for thread in threads)
        total = len(tenants) * calls
        assert service.stats_counters.requests == total
        assert service.stats_counters.errors == total
        latency = service.metrics.snapshot()["service.request.latency_us"]
        assert latency["count"] == total
        assert sum(latency["buckets"].values()) == total


class TestPersistentStore:
    def test_store_survives_across_service_lifetimes(self, tmp_path):
        """Executor threads share the store through its locking facade;
        a second daemon over the same store answers the whole stream
        from the preloaded warm memo."""
        path = str(tmp_path / "serve.sqlite")
        lines = _stream("hom", 12, seed=3)
        cold, first = _serve_lines(lines, workers=4, store_path=path)
        assert first["service"]["errors"] == 0
        warm, report = _serve_lines(lines, workers=4, store_path=path,
                                    preload=2048)
        assert warm == cold
        engine = report["session"]["engine"]
        assert engine["misses"] == 0  # everything came pre-warmed
        assert engine["hits"] > 0
        assert report["session"]["store"]["counts"] >= 1


# ----------------------------------------------------------------------
# TCP front end
# ----------------------------------------------------------------------
class TestSocketMode:
    def test_tcp_round_trip_and_shutdown(self):
        handle = AsyncDaemonHandle(workers=2).start()
        task = canonical_json(make_hom_count_task(
            "tcp-1", path_structure(["R"]), clique_structure(3)))
        with socket.create_connection(handle.address, timeout=10) as conn:
            wire = conn.makefile("rw", encoding="utf-8")
            wire.write(task + "\n")
            wire.flush()
            answer = json.loads(wire.readline())
            assert answer["ok"] is True and answer["count"] == "6"
            wire.write('{"op": "stats"}\n')
            wire.flush()
            stats = json.loads(wire.readline())
            assert stats["stats"]["service"]["requests"] == 1
            wire.write('{"op": "shutdown"}\n')
            wire.flush()
            assert json.loads(wire.readline())["op"] == "shutdown"
            wire.close()
        handle._thread.join(timeout=10)
        assert not handle._thread.is_alive()
        handle.stop()


# ----------------------------------------------------------------------
# Metrics control op + structured request logs
# ----------------------------------------------------------------------
class TestMetricsOp:
    def test_metrics_snapshot_schema(self):
        _, response = _serve_lines(_stream("hom", 3, seed=2), workers=1,
                                   probe=_control("metrics"))
        assert response["ok"] is True and response["op"] == "metrics"
        metrics = response["metrics"]
        # The documented namespaced schema, across every layer.
        assert metrics["service.requests"] == 3
        assert metrics["service.errors"] == 0
        assert metrics["service.requests.kind.hom-count"] == 3
        assert metrics["session.tasks.evaluated"] == 3
        assert metrics["engine.memo.misses"] >= 1
        assert metrics["engine.targets.compiled"] >= 1
        assert metrics["intern.structures"] >= 1
        assert metrics["service.workers"] == 1
        assert metrics["service.uptime_s"] >= 0
        # The per-request latency histogram, with log2 bucket labels.
        latency = metrics["service.request.latency_us"]
        assert latency["count"] == 3
        assert latency["sum"] > 0
        assert sum(latency["buckets"].values()) == 3
        assert all(le == str(int(le)) for le in latency["buckets"])

    def test_metrics_prometheus_exposition(self):
        _, response = _serve_lines(
            _stream("hom", 1, seed=2), workers=1,
            probe=_control("metrics", format="prometheus"))
        assert response["format"] == "prometheus"
        text = response["exposition"]
        assert "# TYPE service_requests counter" in text
        assert "service_requests 1" in text
        assert "engine_memo_hits" in text
        assert 'service_request_latency_us_bucket{le="+Inf"} 1' in text

    def test_flat_stats_is_the_metrics_view(self):
        _, (flat, nested) = _serve_lines(
            _stream("hom", 1, seed=2), workers=1,
            probe=lambda service: (service.metrics.snapshot(),
                                   service.stats()))
        assert flat["service.requests"] == \
            nested["service"]["requests"] == 1
        assert flat["engine.memo.hits"] == \
            nested["session"]["engine"]["hits"]

    def test_drain_op_flips_shutdown(self):
        _, (response, draining) = _serve_lines(
            [], workers=1,
            probe=lambda service: (_control("drain")(service),
                                   service.draining))
        assert response == {"draining": True, "ok": True, "op": "drain"}
        assert draining


class TestRequestLog:
    def test_log_lines_carry_request_ids_and_phases(self):
        sink = io.StringIO()
        logger = StructuredLogger(stream=sink, component="repro.serve")
        out, _ = _serve_lines(_stream("hom", 2, seed=3), workers=1,
                              logger=logger)
        # Protocol output never gains log lines (byte-parity).
        assert all(json.loads(line)["ok"] for line in out)
        records = [json.loads(line)
                   for line in sink.getvalue().splitlines()]
        assert len(records) == 2
        ids = {record["request_id"] for record in records}
        assert len(ids) == 2
        for record in records:
            assert record["request_id"].startswith("req-")
            assert record["event"] == "request"
            assert record["kind"] == "hom-count"
            assert record["ok"] is True
            assert record["elapsed_ms"] >= 0
            assert "parse" in record["phases"]

    def test_no_logger_means_no_log_lines(self, capsys):
        _serve_lines(_stream("hom", 1, seed=3), workers=1)
        assert capsys.readouterr().err == ""


# ----------------------------------------------------------------------
# DaemonClient over a live TCP daemon
# ----------------------------------------------------------------------
class TestDaemonClient:
    def test_tcp_round_trips_and_drain(self):
        handle = AsyncDaemonHandle(workers=2).start()
        host, port = handle.address
        client = DaemonClient(host=host, port=port, timeout=10)

        assert client.ping() == {"ok": True, "op": "ping"}

        task = canonical_json(make_hom_count_task(
            "client-1", path_structure(["R"]), clique_structure(3)))
        answer = client.request_line(task)
        assert answer["ok"] is True and answer["count"] == "6"

        stats = client.stats()
        assert stats["stats"]["service"]["requests"] == 1

        metrics = client.metrics()["metrics"]
        assert metrics["service.requests"] == 1
        # An anonymous TCP connection runs on its own isolated tenant.
        assert metrics["service.tenant.conn-1.requests"] == 1
        assert metrics["service.request.latency_us"]["count"] == 1

        exposition = client.metrics(format="prometheus")["exposition"]
        assert "service_requests 1" in exposition

        drained = client.drain()
        assert drained == {"draining": True, "ok": True, "op": "drain"}
        handle._thread.join(timeout=10)
        assert not handle._thread.is_alive()
        handle.stop()

        with pytest.raises(ReproError):
            client.ping()
        client.close()

    def test_unreachable_daemon_is_a_clean_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        client = DaemonClient(port=free_port, timeout=0.5)
        with pytest.raises(ReproError, match="cannot reach daemon"):
            client.ping()


# ----------------------------------------------------------------------
# CLI front-end
# ----------------------------------------------------------------------
class TestServeCli:
    def test_stdio_serve_command(self, monkeypatch, capsys):
        from repro.cli import main

        lines = _stream("hom", 3, seed=1) + ['{"op": "shutdown"}']
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", "--workers", "2"]) == 0
        captured = capsys.readouterr()
        out_lines = captured.out.splitlines()
        assert len(out_lines) == 4
        assert all(json.loads(line) for line in out_lines)
        assert "repro serve:" in captured.err
        assert "3 requests" in captured.err


# ----------------------------------------------------------------------
# stdio writer-queue backpressure (bounded response queue)
# ----------------------------------------------------------------------
class TestStdioBackpressure:
    @staticmethod
    def _serve_in_thread(source, sink, workers: int):
        """Run one stdio stream on a background event loop."""
        outcome: dict = {}

        async def main():
            service = AsyncSolverService(workers=workers)
            try:
                outcome["written"] = await serve_async_stdio(
                    service, source=source, sink=sink)
            except Exception as exc:  # noqa: BLE001 — asserted below
                outcome["error"] = exc
            finally:
                await service.aclose()

        thread = threading.Thread(target=lambda: asyncio.run(main()),
                                  daemon=True)
        thread.start()
        return thread, outcome

    def test_slow_consumer_stalls_the_reader(self):
        """When the sink stops draining, the bounded response queue
        fills and the *reader* stalls — memory stays bounded instead
        of buffering the whole stream's responses."""
        total = 40
        lines = _stream("hom", total, seed=13)
        consumed = []
        gate = threading.Event()

        class StallingSink:
            def write(self, text: str) -> None:
                if not gate.wait(timeout=30):  # pragma: no cover
                    raise TimeoutError("test gate never opened")
                consumed.append(text)

            def flush(self) -> None:
                pass

        produced = []

        def source():
            for line in lines:
                produced.append(line)
                yield line + "\n"

        thread, outcome = self._serve_in_thread(source(), StallingSink(),
                                                workers=2)
        # The writer is stuck on the first response; the reader may
        # admit at most 4 × workers queued responses (plus the one in
        # the writer's hands and one in its own) before stalling.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and len(produced) < 10:
            time.sleep(0.01)
        time.sleep(0.2)  # give a runaway reader time to overshoot
        stalled_at = len(produced)
        assert stalled_at < total, (
            "reader consumed the whole stream while the consumer was "
            "stalled — no backpressure")
        gate.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert outcome == {"written": total}
        assert len(consumed) == total

    def test_failing_sink_stops_the_reader(self):
        """A sink that raises (a closed pipe) must not leave the reader
        blocked on the bounded queue: the stream stops early and the
        sink's error propagates."""
        total = 40
        lines = _stream("hom", total, seed=13)
        produced = []

        class ClosedPipe:
            def write(self, text: str) -> None:
                raise BrokenPipeError("consumer went away")

            def flush(self) -> None:
                pass

        def source():
            for line in lines:
                produced.append(line)
                yield line + "\n"

        thread, outcome = self._serve_in_thread(source(), ClosedPipe(),
                                                workers=1)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert isinstance(outcome.get("error"), BrokenPipeError)
        assert len(produced) < total
