"""Run one benchmark workload once and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload form_sqlite_rw --seed 1 --seconds 35 --trace 0

``--trace 0`` sets the workload up repeatedly, measures the last set-up for
``--seconds``, sets it up repeatedly again, and prints every end-to-end
metric (``setup_s`` is the median of all the set-ups).  ``--trace 1``
measures an untraced set-up for half the time, then a traced one for the
other half, and prints every per-layer metric; the spans and the per-layer
self-time budget land in ``.perfbench_work/``.

Every run checks its answers (see ``README.md``).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the provenance.  Exit codes: 0 measured; 1 a correctness check
failed; 2 the program under test is missing; 3 the load generator fell
behind, so the run is invalid.  Only exit code 0 prints a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"

#: Seconds an untraced run spends setting up before its timed run, and again
#: after it; ``setup_s`` reports the median of every set-up.  The shared host
#: runs the same code up to 1.6 times slower for seconds to minutes at a time,
#: so set-ups taken on both sides of the timed run sample more of that drift
#: than set-ups taken at once.
SETUP_SECONDS = 3.0
#: Set-ups on each side of the timed run, however long they take.
MIN_SETUPS = 2
#: A run whose generator sent its 99th-percentile request later than this
#: behind schedule did not offer the intended load.
LAG_LIMIT_MS = 50.0

WORKLOADS = ("form_mem", "form_sqlite_rw", "adhoc_plan", "form_sharded")


def _git_commit() -> str:
    """The checkout's commit, or ``"unknown"`` when it is not a git work tree."""
    try:
        completed = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = completed.stdout.split()
    # A checkout nested inside some other work tree must not report that tree.
    if completed.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def _provenance(args: argparse.Namespace, stack, record, report,
                setup_times: list[float]) -> dict:
    spec = stack.spec
    return {
        "commit": _git_commit(),
        "nproc": len(args.cpus),
        "pinned_cpu": args.pinned,
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": spec.scale,
        "rate_rps": getattr(spec, "rate", None),
        "window": getattr(spec, "window", 1),
        "setups": [round(seconds, 4) for seconds in setup_times],
        "samples": report.sample_counts(stack, record),
        "observed": report.observed(stack, record),
        "simulated": False,
    }


def _behind(record, stats) -> str | None:
    """Why the run's generator fell behind its schedule, or ``None``."""
    if not record.lags:
        return None
    lag_ms = stats.percentile(record.lags, 99) * 1000
    if lag_ms <= LAG_LIMIT_MS:
        return None
    return f"invalid run: generator lag p99 {lag_ms:.1f} ms exceeds {LAG_LIMIT_MS} ms"


def _fail(code: int, lines: list[str]) -> int:
    for line in lines:
        print(line, file=sys.stderr)
    return code


def _measure(args, workloads, label: str, seconds: float, minimum: int, tracer=None):
    """Set up at least ``minimum`` times and for at least ``seconds``; returns
    the last set-up and every set-up's time."""
    stack = None
    setup_times: list[float] = []
    started = time.perf_counter()
    while len(setup_times) < minimum or time.perf_counter() - started < seconds:
        if stack is not None:
            stack.close()
            stack = None
            gc.collect()
        stack = workloads.build(args.workload, args.seed, WORKDIR,
                                f"{label}{len(setup_times)}", tracer)
        setup_times.append(stack.setup_s)
    return stack, setup_times


def _measure_again(args, workloads) -> list[float]:
    """The set-ups after the timed run, each closed at once.

    The run's record and stack stay alive for the report; they are frozen out
    of the collector meanwhile, so these set-ups do not pay for scanning them.
    """
    gc.collect()
    gc.freeze()
    try:
        stack, setup_times = _measure(args, workloads, "after", SETUP_SECONDS, MIN_SETUPS)
        stack.close()
        del stack
        gc.collect()
    finally:
        gc.unfreeze()
    return setup_times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        return _fail(2, [f"no program to measure: {source / 'repro'} is missing"])
    sys.path.insert(0, str(source))
    from bcqbench import report, tracing, workloads

    # Every thread and process of a form workload shares one CPU.  Handing
    # work between threads on two CPUs of the shared host waits on the
    # hypervisor to wake the other CPU: over the same three seeds, form_mem's
    # closed loop ran at 1700-3800 req/s unpinned and at 4200-4700 pinned.  The
    # ad-hoc client is one thread and may run on whichever CPU is free.
    args.cpus = sorted(os.sched_getaffinity(0))
    args.pinned = None
    if isinstance(workloads.SPECS[args.workload], workloads.FormSpec):
        args.pinned = args.cpus[0]
        os.sched_setaffinity(0, {args.pinned})

    WORKDIR.mkdir(exist_ok=True)
    if args.trace:
        return _traced(args, report, tracing, workloads)

    stack, setup_times = _measure(args, workloads, "run", SETUP_SECONDS, MIN_SETUPS)
    record = workloads.RunRecord(args.seed)
    try:
        stack.run(args.seconds, record)
        rss_mb = report.peak_rss_mb(stack.shard_pids())
    finally:
        stack.close()
    stack.check(record)
    if record.errors:
        return _fail(1, ["correctness check failed:"] + record.errors)
    lagging = _behind(record, report.stats)
    if lagging:
        return _fail(3, [lagging])
    setup_times += _measure_again(args, workloads)
    metrics = report.end_to_end(setup_times, stack, record, rss_mb)
    return _emit(args, stack, record, report, metrics, setup_times)


def _traced(args, report, tracing, workloads) -> int:
    half = args.seconds / 2
    untraced_stack, setup_times = _measure(args, workloads, "plain", 0.0, 1)
    untraced = workloads.RunRecord(args.seed)
    try:
        untraced_stack.run(half, untraced)
    finally:
        untraced_stack.close()
    untraced_stack.check(untraced)
    gc.collect()

    tracer = tracing.Tracer()
    stack, _ = _measure(args, workloads, "traced", 0.0, 1, tracer)
    record = workloads.RunRecord(args.seed)
    engines = stack.engines()
    before = [report.cache_counts(engine) for engine in engines]
    tracing.install(tracer)
    try:
        del tracer.spans[:]
        stack.run(half, record, tracer)
    finally:
        tracer.unpatch()
    try:
        after = [report.cache_counts(engine) for engine in engines]
        caches = {
            name: (tuple(sum(b[name][i] for b in before) for i in (0, 1)),
                   tuple(sum(a[name][i] for a in after) for i in (0, 1)))
            for name in ("plan", "prepared")
        }
        service_stats = stack.service_counters()
        shapes = stack.plan_shapes()
    finally:
        stack.close()
    stack.check(record)
    errors = untraced.errors + record.errors
    if errors:
        return _fail(1, ["correctness check failed:"] + errors)
    lagging = [reason for reason in (_behind(run, report.stats) for run in (untraced, record))
               if reason]
    if lagging:
        return _fail(3, lagging)
    spans = tracer.spans
    metrics = report.per_layer(untraced_stack, untraced, stack, record, spans,
                               service_stats, caches, shapes)
    budget = tracing.budget(spans)
    tracing.write_spans(WORKDIR / f"spans-{args.workload}.jsonl", spans, budget)
    print("per-layer self time (s) of the traced half:", file=sys.stderr)
    for name, entry in sorted(budget.items(), key=lambda item: -item[1]["self_s"]):
        print(f"  {name:28s} {entry['layer']:10s} calls={entry['count']:7d} "
              f"total={entry['total_s']:8.3f} self={entry['self_s']:8.3f}", file=sys.stderr)
    record.attempted += untraced.attempted
    record.failures.update(untraced.failures)
    return _emit(args, stack, record, report, metrics, setup_times)


def _emit(args, stack, record, report, metrics, setup_times) -> int:
    provenance = _provenance(args, stack, record, report, setup_times)
    result = {
        "correct": True,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (WORKDIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
