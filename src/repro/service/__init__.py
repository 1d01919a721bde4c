"""The resident request service (``repro serve``).

Turns the one-shot CLI into a long-running daemon: one
:class:`~repro.session.SolverSession` stays warm across an entire
request stream, so compiled targets, canonical-component memo entries
and the persistent store amortize over thousands of requests instead
of being rebuilt per process invocation.  See DESIGN.md §10.

One daemon serves every front end
(:mod:`repro.service.async_daemon`): stdio and TCP through one asyncio
dispatch core with per-tenant sessions, quotas, priorities,
admission-control backpressure, and an HTTP/WebSocket facade.  See
DESIGN.md §16.
"""

from repro.service.async_daemon import (
    AsyncDaemonHandle,
    AsyncSolverService,
    ServiceStats,
    serve_async_stdio,
    serve_async_tcp,
)
from repro.service.client import DaemonClient
from repro.service.loadgen import LoadReport, run_load
from repro.service.tenant import (
    LockedStore,
    Tenant,
    TenantQuota,
    TenantRegistry,
)

__all__ = [
    "AsyncDaemonHandle",
    "AsyncSolverService",
    "DaemonClient",
    "LoadReport",
    "LockedStore",
    "ServiceStats",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "run_load",
    "serve_async_stdio",
    "serve_async_tcp",
]
