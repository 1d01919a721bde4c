"""The async multi-tenant front end: parity, tenancy, backpressure.

The headline contracts: the async stdio front end answers a mixed
JSONL stream byte-identical to ``repro batch run --workers 1``; two
tenants with different strategies/quotas get independent sessions,
independent budget trips, and byte-identical results vs solo runs;
overload is answered with structured records, not unbounded
buffering; drain answers everything in flight.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.batch.runner import iter_results
from repro.batch.scenarios import generate_scenario
from repro.batch.tasks import canonical_json, make_hom_count_task
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    AsyncDaemonHandle,
    AsyncSolverService,
    DaemonClient,
    LockedStore,
    TenantQuota,
    TenantRegistry,
    serve_async_stdio,
)
from repro.service.async_daemon import strip_rid
from repro.service.loadgen import default_task_lines, percentile, run_load
from repro.structures.generators import clique_structure, cycle_structure

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


def _serve_async_lines(lines, **service_kwargs) -> list:
    async def main():
        service = AsyncSolverService(**service_kwargs)
        sink = io.StringIO()
        try:
            await serve_async_stdio(
                service, source=iter(line + "\n" for line in lines),
                sink=sink)
        finally:
            await service.aclose()
        return sink.getvalue().splitlines(), service

    result, service = asyncio.run(main())
    return result, service


class _LineClient:
    """A raw persistent line-protocol connection for protocol tests."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.wire = self.sock.makefile("rw", encoding="utf-8")

    def send(self, line: str) -> None:
        self.wire.write(line.rstrip("\n") + "\n")
        self.wire.flush()

    def recv(self) -> dict:
        answer = self.wire.readline()
        assert answer, "daemon closed the connection"
        return json.loads(answer)

    def exchange(self, line: str) -> dict:
        self.send(line)
        return self.recv()

    def close(self) -> None:
        # Closing the makefile wrapper is what actually sends FIN; the raw
        # socket object stays referenced by the wrapper until then.
        try:
            self.wire.close()
            self.sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Byte parity (the acceptance criterion)
# ----------------------------------------------------------------------
class TestAsyncParity:
    def test_stdio_mixed_stream_matches_batch_run(self):
        lines = _stream("mixed", 100, seed=11)
        batch = list(iter_results(lines, workers=1))
        served, service = _serve_async_lines(lines, workers=3)
        assert served == batch  # byte-for-byte, in request order
        assert service.stats_counters.requests == 100

    def test_tcp_ordered_connection_matches_batch_run(self):
        lines = _stream("mixed", 40, seed=7)
        batch = list(iter_results(lines, workers=1))
        # max_inflight=64: the whole pipelined stream fits the quota.
        with AsyncDaemonHandle(workers=3, max_inflight=64) as handle:
            client = _LineClient(handle.address)
            try:
                # Pipeline everything, then read: default mode answers
                # in request order even with 3 executor workers.
                for line in lines:
                    client.send(line)
                served = [canonical_json(client.recv()) for _ in lines]
            finally:
                client.close()
        assert served == batch

    def test_rid_is_stripped_before_evaluation(self):
        # rid must never reach task_seed: the response for a
        # rid-carrying line is the plain line's response plus the echo.
        line = _stream("hom", 1, seed=3)[0]
        plain = list(iter_results([line], workers=1))[0]
        record = json.loads(line)
        record["rid"] = "corr-7"
        with AsyncDaemonHandle(workers=1) as handle:
            client = _LineClient(handle.address)
            try:
                answer = client.exchange(json.dumps(record))
            finally:
                client.close()
        assert answer.pop("rid") == "corr-7"
        assert canonical_json(answer) == plain

    def test_trailing_metrics_counts_every_earlier_task(self):
        # A control op is answered in stream order, after every line
        # before it: the trailing metrics line counts all 30 tasks on
        # every run, however the two executor workers interleave.
        lines = _stream("cq-witness", 30, seed=3) + ['{"op":"metrics"}']
        for _ in range(5):
            served, _ = _serve_async_lines(lines, workers=2)
            metrics = json.loads(served[-1])["metrics"]
            assert metrics["session.tasks.evaluated"] == 30

    def test_strip_rid_passthrough(self):
        assert strip_rid("not json") == ("not json", None)
        assert strip_rid('{"kind": "x"}') == ('{"kind": "x"}', None)
        stripped, rid = strip_rid('{"kind": "x", "rid": 5}')
        assert json.loads(stripped) == {"kind": "x"}
        assert rid == 5


# ----------------------------------------------------------------------
# Multiplexing + priorities
# ----------------------------------------------------------------------
class TestMultiplex:
    def test_hello_multiplex_correlates_by_rid(self):
        lines = _stream("hom", 6, seed=21)
        batch = list(iter_results(lines, workers=1))
        with AsyncDaemonHandle(workers=3) as handle:
            client = _LineClient(handle.address)
            try:
                hello = client.exchange(
                    '{"op": "hello", "mode": "multiplex"}')
                assert hello["ok"] and hello["mode"] == "multiplex"
                for index, line in enumerate(lines):
                    record = json.loads(line)
                    record["rid"] = index
                    client.send(json.dumps(record))
                by_rid = {}
                for _ in lines:
                    answer = client.recv()
                    rid = answer.pop("rid")
                    by_rid[rid] = canonical_json(answer)
            finally:
                client.close()
        assert [by_rid[i] for i in range(len(lines))] == batch

    def test_priority_orders_queued_work(self):
        async def main():
            service = AsyncSolverService(workers=1)
            await service.start()
            tenant = service.tenants.anonymous()
            lines = _stream("hom", 3, seed=2)
            order = []

            def tag(name):
                return lambda _fut: order.append(name)

            # All three puts happen in one event-loop tick, so the
            # single dispatcher sees the fully-populated priority
            # queue: the later, more urgent submissions run first.
            low = service.submit(tenant, lines[0], priority=9)
            mid = service.submit(tenant, lines[1], priority=5)
            high = service.submit(tenant, lines[2], priority=1)
            low.add_done_callback(tag("low"))
            mid.add_done_callback(tag("mid"))
            high.add_done_callback(tag("high"))
            await asyncio.gather(low, mid, high)
            await service.aclose()
            return order

        assert asyncio.run(main()) == ["high", "mid", "low"]

    def test_batch_op_streams_results_then_summary(self):
        lines = _stream("hom", 5, seed=31)
        tasks = [json.loads(line) for line in lines]
        with AsyncDaemonHandle(workers=2) as handle:
            client = _LineClient(handle.address)
            try:
                client.send(canonical_json(
                    {"op": "batch", "tasks": tasks, "rid": "b"}))
                answers = [client.recv() for _ in range(len(tasks) + 1)]
            finally:
                client.close()
        summary = answers[-1]
        assert summary == {"count": 5, "ok": True, "op": "batch",
                           "rid": "b"}
        assert sorted(a["id"] for a in answers[:-1]) == \
            sorted(t["id"] for t in tasks)

    def test_batch_op_rejects_missing_tasks(self):
        with AsyncDaemonHandle(workers=1) as handle:
            client = _LineClient(handle.address)
            try:
                answer = client.exchange('{"op": "batch"}')
            finally:
                client.close()
        assert answer["ok"] is False and "tasks" in answer["error"]


# ----------------------------------------------------------------------
# Tenancy: isolation, quotas, budget trips
# ----------------------------------------------------------------------
class TestTenancy:
    def test_two_tenants_get_isolated_sessions_and_identical_bytes(self):
        lines = _stream("hom", 10, seed=41)
        solo = list(iter_results(lines, workers=1))
        with AsyncDaemonHandle(workers=2) as handle:
            alice = _LineClient(handle.address)
            bob = _LineClient(handle.address)
            try:
                hello_a = alice.exchange(canonical_json(
                    {"op": "hello", "tenant": "alice",
                     "strategy": "backtrack", "max_inflight": 2}))
                hello_b = bob.exchange(canonical_json(
                    {"op": "hello", "tenant": "bob", "strategy": "dp",
                     "max_inflight": 16}))
                assert hello_a["ok"] and hello_b["ok"]
                got_a = [canonical_json(alice.exchange(line))
                         for line in lines]
                got_b = [canonical_json(bob.exchange(line))
                         for line in lines]
                stats = handle.service.tenants.stats()
            finally:
                alice.close()
                bob.close()
        # Different strategies, same bytes: strategy affects timing
        # only, and each tenant's answers match the solo batch run.
        assert got_a == solo
        assert got_b == solo
        assert stats["alice"]["strategy"] == "backtrack"
        assert stats["bob"]["strategy"] == "dp"
        assert stats["alice"]["requests"] == len(lines)
        assert stats["bob"]["requests"] == len(lines)
        # Isolated sessions: each counted its own stream.
        assert stats["alice"]["tasks_evaluated"] == len(lines)
        assert stats["bob"]["tasks_evaluated"] == len(lines)

    def test_budget_trips_stay_per_tenant(self):
        heavy = canonical_json(make_hom_count_task(
            "slow-0", cycle_structure(6, relation="E"),
            clique_structure(8, relation="E")))
        with AsyncDaemonHandle(workers=2) as handle:
            tight = _LineClient(handle.address)
            roomy = _LineClient(handle.address)
            try:
                assert tight.exchange(canonical_json(
                    {"op": "hello", "tenant": "tight",
                     "deadline_ms": 0.001}))["ok"]
                assert roomy.exchange(canonical_json(
                    {"op": "hello", "tenant": "roomy"}))["ok"]
                tripped = tight.exchange(heavy)
                answered = roomy.exchange(heavy)
                stats = handle.service.tenants.stats()
            finally:
                tight.close()
                roomy.close()
        assert tripped["ok"] is False
        assert tripped["error_kind"] == "budget-exceeded"
        assert answered["ok"] is True
        assert stats["tight"]["budget_exceeded"] == 1
        assert stats["roomy"]["budget_exceeded"] == 0

    def test_hello_refuses_quota_reconfiguration(self):
        with AsyncDaemonHandle(workers=1) as handle:
            first = _LineClient(handle.address)
            second = _LineClient(handle.address)
            try:
                assert first.exchange(canonical_json(
                    {"op": "hello", "tenant": "t",
                     "max_inflight": 4}))["ok"]
                again = second.exchange(canonical_json(
                    {"op": "hello", "tenant": "t", "max_inflight": 9}))
                same = second.exchange(canonical_json(
                    {"op": "hello", "tenant": "t", "max_inflight": 4}))
            finally:
                first.close()
                second.close()
        assert again["ok"] is False
        assert "cannot reconfigure" in again["error"]
        assert same["ok"] is True and same["tenant"] == "t"

    def test_hello_rejects_unknown_keys_and_bad_values(self):
        with AsyncDaemonHandle(workers=1) as handle:
            client = _LineClient(handle.address)
            try:
                unknown = client.exchange(canonical_json(
                    {"op": "hello", "tenant": "x", "turbo": True}))
                bad_mode = client.exchange(canonical_json(
                    {"op": "hello", "mode": "chaos"}))
                anon_quota = client.exchange(canonical_json(
                    {"op": "hello", "max_inflight": 3}))
            finally:
                client.close()
        assert unknown["ok"] is False and "turbo" in unknown["error"]
        assert bad_mode["ok"] is False and "chaos" in bad_mode["error"]
        assert anon_quota["ok"] is False
        assert "tenant name" in anon_quota["error"]

    def test_anonymous_tenants_are_discarded_on_disconnect(self):
        line = _stream("hom", 1, seed=3)[0]
        with AsyncDaemonHandle(workers=1) as handle:
            client = _LineClient(handle.address)
            try:
                assert client.exchange(line)["ok"]
                during = set(handle.service.tenants.stats())
            finally:
                client.close()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                after = set(handle.service.tenants.stats())
                if after == {"default"}:
                    break
                time.sleep(0.01)
        assert any(name.startswith("conn-") for name in during)
        assert after == {"default"}

    def test_quota_validation(self):
        with pytest.raises(ReproError, match="max_inflight"):
            TenantQuota(max_inflight=0).validate()
        with pytest.raises(ReproError, match="deadline_ms"):
            TenantQuota(deadline_ms=-1.0).validate()
        with pytest.raises(ReproError, match="strategy"):
            TenantQuota(strategy="quantum").validate()

    def test_registry_rejects_unknown_override_keys(self):
        registry = TenantRegistry(MetricsRegistry())
        with pytest.raises(ReproError, match="turbo"):
            registry.get_or_create("t", {"turbo": 1})
        registry.close()


# ----------------------------------------------------------------------
# Backpressure + drain
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_overload_answers_structured_records(self):
        lines = _stream("hom", 8, seed=51)
        with AsyncDaemonHandle(workers=1, max_queue=1,
                               max_inflight=1) as handle:
            client = _LineClient(handle.address)
            try:
                for line in lines:
                    client.send(line)
                answers = [client.recv() for _ in lines]
            finally:
                client.close()
        rejected = [a for a in answers
                    if a.get("error_kind") == "overloaded"]
        answered = [a for a in answers if a.get("ok")]
        assert rejected, "flooding past the quota must reject"
        assert answered, "admitted work must still answer"
        assert len(rejected) + len(answered) == len(lines)
        for record in rejected:
            assert record["ok"] is False
            assert record["reason"] in ("tenant-quota", "queue-full")
        assert handle.service.stats()["service"]["overloaded"] == \
            len(rejected)

    @staticmethod
    def _stall_executor(service):
        """Park every executor thread on a gate so admitted work
        stays queued — a deterministic drain-with-in-flight window."""
        gate = threading.Event()
        for _ in range(service.workers):
            service._executor.submit(gate.wait)
        return gate

    def test_drain_answers_inflight_and_rejects_new(self):
        lines = _stream("hom", 6, seed=61)
        with AsyncDaemonHandle(workers=2) as handle:
            gate = self._stall_executor(handle.service)
            client = _LineClient(handle.address)
            control = DaemonClient(host=handle.address[0],
                                   port=handle.address[1])
            try:
                for line in lines:
                    client.send(line)
                # The tasks are admitted but cannot evaluate yet: the
                # drain arrives with all six genuinely in flight.
                answer = control.drain()
                assert answer["ok"] and answer["draining"]
                late = control.control("ping")
                assert late["ok"]  # control ops still answer
                gate.set()
                served = [client.recv() for _ in lines]
            finally:
                gate.set()
                control.close()
                client.close()
        # Everything admitted before the drain was answered (order
        # preserved); nothing was dropped mid-flight.
        assert [record["id"] for record in served] == \
            [json.loads(line)["id"] for line in lines]
        assert all(record.get("ok") for record in served)

    def test_draining_rejects_new_tasks_with_reason(self):
        lines = _stream("hom", 2, seed=3)
        with AsyncDaemonHandle(workers=1) as handle:
            gate = self._stall_executor(handle.service)
            client = _LineClient(handle.address)
            try:
                client.send(lines[0])       # admitted, held by the gate
                time.sleep(0.05)            # let admission happen
                handle.service.request_drain()
                client.send(lines[1])       # refused at admission
                gate.set()
                held = client.recv()
                refused = client.recv()
            finally:
                gate.set()
                client.close()
        assert held["ok"] is True
        assert refused["error_kind"] == "overloaded"
        assert refused["reason"] == "draining"


# ----------------------------------------------------------------------
# HTTP / WebSocket facade
# ----------------------------------------------------------------------
class TestHttpGate:
    def test_http_endpoints(self):
        line = _stream("hom", 1, seed=3)[0]
        expected = list(iter_results([line], workers=1))[0]
        with AsyncDaemonHandle(workers=1, http_port=0) as handle:
            host, port = handle.http_address
            base = f"http://{host}:{port}"
            health = json.loads(urllib.request.urlopen(
                base + "/healthz", timeout=10).read())
            assert health == {"draining": False, "ok": True}

            text = urllib.request.urlopen(
                base + "/metrics", timeout=10).read().decode()
            assert "service_workers" in text
            assert "# TYPE" in text

            request = urllib.request.Request(
                base + "/task", data=line.encode("utf-8"), method="POST")
            answer = urllib.request.urlopen(request, timeout=10).read()
            assert answer.decode("utf-8") == expected

            batch = urllib.request.Request(
                base + "/task", data=b'{"op": "batch"}', method="POST")
            with pytest.raises(urllib.error.HTTPError) as refused:
                urllib.request.urlopen(batch, timeout=10)
            body = json.loads(refused.value.read())
            refused.value.close()
            assert refused.value.code == 400
            assert body == {"error": "batch op needs a persistent "
                                     "connection; use the line protocol "
                                     "or /ws",
                            "ok": False, "op": "batch"}

            with pytest.raises(urllib.error.HTTPError) as missing:
                urllib.request.urlopen(base + "/nothing", timeout=10)
            missing.value.close()
            assert missing.value.code == 404

    def test_http_draining_maps_to_503(self):
        lines = _stream("hom", 2, seed=3)
        with AsyncDaemonHandle(workers=1, http_port=0) as handle:
            gate = TestBackpressure._stall_executor(handle.service)
            holder = _LineClient(handle.address)
            try:
                holder.send(lines[0])   # keeps the service in flight
                time.sleep(0.05)
                handle.service.request_drain()
                host, port = handle.http_address
                request = urllib.request.Request(
                    f"http://{host}:{port}/task",
                    data=lines[1].encode("utf-8"), method="POST")
                with pytest.raises(urllib.error.HTTPError) as refused:
                    urllib.request.urlopen(request, timeout=10)
                assert refused.value.code == 503
                body = json.loads(refused.value.read())
                refused.value.close()
                assert body["reason"] == "draining"
                gate.set()
                assert holder.recv()["ok"]
            finally:
                gate.set()
                holder.close()

    def test_websocket_round_trip_matches_batch(self):
        lines = _stream("hom", 4, seed=71)
        batch = list(iter_results(lines, workers=1))
        with AsyncDaemonHandle(workers=2, http_port=0) as handle:
            host, port = handle.http_address
            report = run_load(host, port, lines, clients=2,
                              requests_per_client=4, transport="ws")
            assert report.errors == 0
            assert report.requests == 8
            # And a correctness pass: one ws connection, each line
            # echoed byte-identical (ws connections are multiplexed,
            # so correlate by rid).
            from repro.service.loadgen import _WebSocketTransport

            channel = _WebSocketTransport(host, port, timeout=10)
            try:
                for line, expected in zip(lines, batch):
                    record = json.loads(line)
                    record["rid"] = record["id"]
                    answer = json.loads(
                        channel.exchange(json.dumps(record)))
                    assert answer.pop("rid") == record["id"]
                    assert canonical_json(answer) == expected
            finally:
                channel.close()


# ----------------------------------------------------------------------
# Persistent client
# ----------------------------------------------------------------------
class TestPersistentClient:
    def test_client_reuses_one_connection(self):
        with AsyncDaemonHandle(workers=1) as handle:
            client = DaemonClient(host=handle.address[0],
                                  port=handle.address[1])
            try:
                for _ in range(5):
                    assert client.ping()["ok"]
                assert client.stats()["ok"]
                assert client.connects == 1
            finally:
                client.close()

    def test_client_reconnects_after_daemon_restart(self):
        # Reserve a port, serve on it, kill the daemon, serve again:
        # the same client object must answer across the restart.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = DaemonClient(host="127.0.0.1", port=port, retries=4)
        try:
            with AsyncDaemonHandle(port=port, workers=1):
                assert client.ping()["ok"]
                assert client.connects == 1
            with AsyncDaemonHandle(port=port, workers=1):
                assert client.ping()["ok"]
            assert client.connects >= 2
        finally:
            client.close()

    def test_per_request_mode_still_works(self):
        with AsyncDaemonHandle(workers=1) as handle:
            client = DaemonClient(host=handle.address[0],
                                  port=handle.address[1],
                                  persistent=False)
            assert client.ping()["ok"]
            assert client.ping()["ok"]
            assert client.connects == 2


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
class TestLoadGen:
    def test_percentile(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0

    def test_run_load_reports_counts_and_latency(self):
        lines = default_task_lines(4, seed=99)
        with AsyncDaemonHandle(workers=2) as handle:
            host, port = handle.address
            report = run_load(host, port, lines, clients=4,
                              requests_per_client=6,
                              transport="persistent")
        assert report.requests == 24
        assert report.errors == 0
        assert report.throughput_rps > 0
        assert 0 < report.p50_ms <= report.p99_ms
        summary = report.summary()
        assert summary["clients"] == 4
        assert summary["transport"] == "persistent"

    def test_run_load_rejects_unknown_transport(self):
        with pytest.raises(ReproError, match="transport"):
            run_load("127.0.0.1", 1, ["{}"], transport="carrier-pigeon")

    def test_run_load_requires_lines(self):
        with pytest.raises(ReproError, match="task line"):
            run_load("127.0.0.1", 1, [])

    def test_overload_counts_as_errors(self):
        lines = default_task_lines(4, seed=99)
        with AsyncDaemonHandle(workers=1, max_queue=1,
                               max_inflight=1) as handle:
            host, port = handle.address
            report = run_load(host, port, lines, clients=8,
                              requests_per_client=4,
                              transport="persistent")
        # Eight clients share the default tenant quota of one:
        # someone must have been rejected, and rejections are errors.
        assert report.errors > 0


# ----------------------------------------------------------------------
# Store sharing
# ----------------------------------------------------------------------
class TestSharedStore:
    def test_tenants_share_one_persistent_store(self, tmp_path):
        lines = _stream("hom", 6, seed=81)
        solo = list(iter_results(lines, workers=1))
        store_path = str(tmp_path / "shared.sqlite3")
        with AsyncDaemonHandle(workers=2,
                               store_path=store_path) as handle:
            alice = _LineClient(handle.address)
            bob = _LineClient(handle.address)
            try:
                assert alice.exchange(
                    '{"op": "hello", "tenant": "alice"}')["ok"]
                assert bob.exchange(
                    '{"op": "hello", "tenant": "bob"}')["ok"]
                got_a = [canonical_json(alice.exchange(line))
                         for line in lines]
                got_b = [canonical_json(bob.exchange(line))
                         for line in lines]
            finally:
                alice.close()
                bob.close()
        assert got_a == solo
        assert got_b == solo

    def test_locked_store_delegates_under_lock(self):
        class Probe:
            def __init__(self):
                self.calls = []

            def lookup(self, component, leaf):
                self.calls.append(("lookup", component, leaf))
                return 42

            def record(self, component, leaf, count):
                self.calls.append(("record", count))

            def flush(self):
                self.calls.append(("flush",))

            def stats(self):
                return {"entries": 1}

            def close(self):
                self.calls.append(("close",))

        probe = Probe()
        store = LockedStore(probe)
        assert store.lookup("c", "l") == 42
        store.record("c", "l", 7)
        store.flush()
        assert store.stats() == {"entries": 1}
        store.close()
        assert ("close",) in probe.calls
