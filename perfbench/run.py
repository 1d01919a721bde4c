"""End-to-end, layer-attributed benchmark of the determinacy solver.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decide --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json``; layer notes in ``perfbench/layers.json``):
``decide`` and ``witness`` call ``evaluate_line`` on one
``SolverSession``; ``count`` runs ``iter_results(workers=2)`` against a
fresh sharded store; ``serve`` drives the async daemon, in a process of
its own, with one TCP client, both on one CPU at a time.  The program is
imported from the checkout's ``src/``; without it the benchmark exits
with code 2.

The corpus of a workload is fixed; ``--seed`` chooses the order in
which its tasks arrive (``perfbench/corpus.py`` says why).

``--trace 0`` measures with no tracing, in two fresh interpreters one
after another, and prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes in this interpreter and prints
the per-layer metrics.  Either way the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Before any timing, the results are checked against the digests recorded
in ``perfbench/digests.json``; every timed or traced pass must then
repeat them byte for byte, or the run reports ``"correct": false`` and
exits with code 1.

``--record`` rewrites ``digests.json`` from the current program;
``--tiny`` shrinks every corpus (the self-test size).
"""

import time

START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("decide", "witness", "count", "serve")
# An untraced run splits its time over this many fresh interpreters, run
# one after another: each sets up (a set-up sample) and then measures.
# Two, not more: every interpreter pays a set-up, and the time a run may
# take is better spent on timed passes, which the host's speed swings
# (15% between consecutive one-second passes) call for.
PARTS = 2


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end, layer-attributed benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test corpus size")
    parser.add_argument("--record", action="store_true",
                        help="rewrite digests.json from the current program")
    parser.add_argument("--part", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    return args


def _emit(correct, attempted, failed, metrics):
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _spawn_part(args, seconds):
    """Run one measuring interpreter (``--part``); its raw figures."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--part"]
    if args.tiny:
        command.append("--tiny")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    part = json.loads(lines[-1]) if lines else {"correct": False}
    if done.returncode != 0:
        part["correct"] = False
    return part


def _record():
    from workloads import digest_entry, reference_results

    table = {}
    for workload in WORKLOADS:
        table[workload] = {
            scale: digest_entry(reference_results(workload, scale == "tiny"))
            for scale in ("full", "tiny")}
        full = table[workload]["full"]
        print(f"{workload}: {full['tasks']} tasks, "
              f"{len(full['failures'])} failures", file=sys.stderr)
    with open(os.path.join(HERE, "digests.json"), "w",
              encoding="utf-8") as sink:
        json.dump(table, sink, indent=1, sort_keys=True)
        sink.write("\n")
    return 0


def _measure(args):
    """``--part`` and ``--trace 1``: set up, then measure, here."""
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, args.tiny, OUT_DIR)
    try:
        try:
            workload.setup()
            setup_s = time.perf_counter() - START
            if args.part:
                timed = workload.timed(args.seconds)
                print(json.dumps(timed.raw(setup_s, workload.peak_kb())))
                return 0
            spans = os.path.join(
                OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
            metrics = workloads.fill_unexercised(
                workload.traced(args.seconds, spans))
        finally:
            workload.close()
    except workloads.Mismatch as exc:
        print(f"perfbench {args.workload}: INCORRECT: {exc}", file=sys.stderr)
        if args.part:
            print(json.dumps({"correct": False}))
        else:
            _emit(False, 1, 1, {})
        return 1
    print(f"perfbench {args.workload}: traced, spans in {spans}",
          file=sys.stderr)
    _emit(True, len(workload.expected),
          workloads.failed_lines(workload.expected), metrics)
    return 0


def main(argv=None):
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.record:
        return _record()
    if args.part or args.trace:
        return _measure(args)

    from workloads import merge_parts

    parts = []
    for _ in range(PARTS):
        part = _spawn_part(args, args.seconds / PARTS)
        if not part.get("correct"):
            _emit(False, 1, 1, {})
            return 1
        parts.append(part)
    attempted, failed, metrics, note = merge_parts(parts)
    print(f"perfbench {args.workload}: {note}", file=sys.stderr)
    _emit(True, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
