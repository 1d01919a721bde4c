"""The async daemon of the ``serve`` workload, in a process of its own.

Started by ``run.py`` as ``python3 perfbench/daemon.py --trace 0|1
--spans PATH``.  It serves the line protocol on an ephemeral localhost
port with 2 workers, prints ``{"port": N}`` on stdout, then obeys
commands read from stdin, one per line:

* ``pin N`` -- move every thread of the daemon to CPU ``N`` and print
  ``{"pinned": N}``;
* ``reset`` -- forget the spans recorded so far and start the request
  latency count afresh;
* ``stop``  -- drain the daemon, print ``{"peak_rss_kb": ..,
  "trace": .., "latency_us": ..}`` and exit.  End of input means
  ``stop`` too.

With ``--trace 1`` the layer wrappers of ``tracer.py`` record spans in
the daemon's executor threads, and ``trace`` carries their summary.
``latency_us`` is the daemon's own request-latency histogram
(``service.request.latency_us``) since the last ``reset``, read in
process so that no control request adds spans of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import ROOT_DAEMON, Tracer  # noqa: E402
from workloads import pin_process  # noqa: E402


def _say(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="where to write the recorded spans")
    args = parser.parse_args()

    from repro.service.async_daemon import AsyncDaemonHandle

    tracer = None
    if args.trace:
        tracer = Tracer(root=ROOT_DAEMON)
        tracer.install()
    handle = AsyncDaemonHandle(workers=2)
    handle.start()

    def latency():
        return handle.service.metrics.snapshot()["service.request.latency_us"]

    since = latency()
    try:
        _say({"port": handle.address[1]})
        for line in sys.stdin:
            command = line.strip()
            if command == "reset":
                if tracer is not None:
                    tracer.reset()
                since = latency()
            elif command.startswith("pin "):
                cpu = int(command.split()[1])
                pin_process(cpu)
                _say({"pinned": cpu})
            elif command == "stop":
                break
    finally:
        handle.stop()
    now = latency()
    report = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": None,
        "latency_us": {"count": now["count"] - since["count"],
                       "sum": now["sum"] - since["sum"]},
    }
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    _say(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
