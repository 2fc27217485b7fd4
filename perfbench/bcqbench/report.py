"""Turn a run's measurements into the named metrics the benchmark prints.

End-to-end metrics come from untraced runs only.  Per-layer metrics come
from a ``--trace 1`` run: those derived from spans from its traced half; the
set-up parts (the traced set-up wraps the store), the baseline for
``trace.overhead`` and the ungated end-to-end observations (latency and
write percentiles, ``failed_fraction``) from its untraced half.  A per-layer metric whose layer a workload never reaches reads 0.
"""

from __future__ import annotations

import resource
import statistics
from typing import Any, Sequence

from . import stats, tracing


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _p(values: Sequence[float], q: float) -> float:
    return stats.percentile(values, q) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def latencies(stack: Any, record: Any) -> list[float]:
    """Read latencies in seconds: open-loop from the scheduled send time;
    for the ad-hoc client, per query."""
    if record.query_s:
        return record.query_s
    return [done - due for phase, due, _, done, *_ in record.answers if phase == "open"]


def throughput(record: Any) -> float:
    """Closed-loop reads per second.

    The ad-hoc client instead reports distinct queries per second at each
    query's fastest time in the run: every pass over the population repeats
    the same work, and the host's cores drift between two speeds for seconds
    to minutes at a time, so the fastest of a query's passes is its cost on an
    undisturbed core.
    """
    if record.query_best:
        return len(record.query_best) / sum(record.query_best.values())
    return record.closed_reads / record.closed_s


def dq_tuples_mean(stack: Any, record: Any) -> float:
    """Mean tuples accessed per answered request (the paper's |D_Q|).

    The ad-hoc client counts each distinct query once: the population is
    fixed, so after a full pass this is the population's mean, whatever the
    position at which the time limit cut the last pass.
    """
    first_access = getattr(stack, "first_access", None)
    if first_access is not None:
        return _mean(list(first_access.values()))
    return _mean([answer[5] for answer in record.answers])


def peak_rss_mb(child_pids: Sequence[int]) -> float:
    """Peak resident memory of this process plus each live child, in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def end_to_end(setups: Sequence[float], stack: Any, record: Any,
               rss_mb: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (stats.median(setups), "s"),
        "throughput_rps": (throughput(record), "req/s"),
        "dq_tuples_mean": (dq_tuples_mean(stack, record), "tuples"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def observed(stack: Any, record: Any) -> dict[str, float]:
    """Latency percentiles of an untraced run, reported without a bound.

    Open-loop latency on a shared host swings with how often the host stalls
    the process (see the README), so it is recorded, not gated.
    """
    writes = [done - due for phase, due, done in record.writes if phase == "open"]
    return {
        "latency_p50_ms": _ms(_p(latencies(stack, record), 50)),
        "latency_p99_ms": _ms(_p(latencies(stack, record), 99)),
        "write_p50_ms": _ms(_p(writes, 50)),
        "write_p99_ms": _ms(_p(writes, 99)),
    }


def sample_counts(stack: Any, record: Any) -> dict[str, Any]:
    """The sample count behind each percentile, and the highest one it supports."""
    counts = {"latency": len(latencies(stack, record)),
              "closed_loop_reads": record.closed_reads,
              "writes": sum(1 for write in record.writes if write[0] == "open"),
              "generator_lag": len(record.lags)}
    return {name: {"samples": count, "highest_percentile": stats.highest_percentile(count)}
            for name, count in counts.items()}


def cache_counts(engine: Any) -> dict[str, tuple[int, int]]:
    info = engine.cache_info()
    return {name: (info[name].hits, info[name].misses) for name in ("plan", "prepared")}


def _hit_rate(before: tuple[int, int], after: tuple[int, int]) -> float:
    hits = after[0] - before[0]
    lookups = hits + after[1] - before[1]
    return hits / lookups if lookups else 0.0


def per_layer(untraced_stack: Any, untraced: Any, stack: Any, record: Any,
              spans: Sequence[tuple], service_stats: dict, caches: dict,
              plan_shapes: Sequence[tuple[int, int]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced half; see the benchmark's README for each."""
    answers = record.answers
    exec_s = [answer[4] for answer in answers]
    fetches = [span for span in spans if span[3] == "storage.fetch_many"]
    fetch_s = [span[5] - span[4] for span in fetches]
    own = tracing.self_times(spans)
    assemble_s = [own[span[0]] for span in spans
                  if span[3] in ("execution.serve", "execution.execute")]
    commit_s = tracing.durations(spans, "storage.apply_writes")
    seen = observed(untraced_stack, untraced)
    sharded = getattr(stack.spec, "sharded", False)
    open_answers = [answer for answer in answers if answer[0] == "open"]
    wait_s = [] if sharded else [done - due - run for _, due, _, done, run, *_ in open_answers]
    hop_s = [done - sent - run for _, _, sent, done, run, *_ in open_answers] if sharded else []
    routed = list(service_stats.get("routed", {}).values())
    verdicts = list(getattr(stack, "verdicts", {}).values())
    parts = untraced_stack.parts
    tuples = getattr(untraced_stack, "tuples", 0)
    execution = service_stats.get("execution", {})
    batches = service_stats.get("batches", 0)
    untraced_p50 = stats.percentile(latencies(untraced_stack, untraced), 50)
    traced_p50 = stats.percentile(latencies(stack, record), 50)
    answered = len(answers) or 1
    return {
        "loadgen.lag_p99_ms": (_ms(_p(record.lags, 99)), "ms"),
        "loadgen.sent": (float(record.attempted), "count"),
        "service.submit_us_p50": (
            _p(tracing.durations(spans, "service.submit"), 50) * 1e6, "us"),
        "service.wait_ms_p50": (_ms(_p(wait_s, 50)), "ms"),
        "service.wait_ms_p99": (_ms(_p(wait_s, 99)), "ms"),
        "service.batch_mean": (service_stats.get("completed", 0) / batches if batches else 0.0,
                               "count"),
        "service.rejected": (float(record.failures.get("rejected", 0)), "count"),
        **{name: (value, "ms") for name, value in seen.items()},
        "failed_fraction": (untraced.failed / untraced.attempted, "ratio"),
        "execution.exec_ms_p50": (_ms(_p(exec_s, 50)), "ms"),
        "execution.exec_ms_p99": (_ms(_p(exec_s, 99)), "ms"),
        "execution.lookups_per_req": (_mean([answer[8] for answer in answers]), "count"),
        "execution.rows_per_req": (_mean([answer[7] for answer in answers]), "count"),
        "execution.dq_over_bound": (
            _mean([answer[5] / answer[6] for answer in answers if answer[6]]), "ratio"),
        "execution.assemble_ms_p50": (_ms(_p(assemble_s, 50)), "ms"),
        "execution.plan_cache_hit_rate": (_hit_rate(*caches["plan"]), "ratio"),
        "execution.prepared_cache_hit_rate": (_hit_rate(*caches["prepared"]), "ratio"),
        "execution.invalidate_ms_p50": (
            _ms(_p(tracing.durations(spans, "execution.invalidate"), 50)), "ms"),
        "execution.prepare_s": (parts.get("execution.prepare_s", 0.0), "s"),
        "storage.fetch_per_req": (len(fetches) / answered, "count"),
        "storage.fetch_us_p50": (_p(fetch_s, 50) * 1e6, "us"),
        "storage.fetch_us_p99": (_p(fetch_s, 99) * 1e6, "us"),
        "storage.keys_per_fetch": (_mean([span[6][0] for span in fetches]), "count"),
        "storage.rows_per_fetch": (_mean([span[6][1] for span in fetches]), "count"),
        "storage.fetch_share": (sum(fetch_s) / sum(exec_s) if exec_s and sum(exec_s) else 0.0,
                                "ratio"),
        "storage.commit_ms_p50": (_ms(_p(commit_s, 50)), "ms"),
        "storage.commit_ms_p99": (_ms(_p(commit_s, 99)), "ms"),
        "storage.load_s": (parts.get("storage.load_s", 0.0), "s"),
        "storage.bytes_per_tuple": (
            untraced_stack.store_bytes / tuples if tuples else 0.0, "B/tuple"),
        "resilience.retries": (float(execution.get("retries", 0)), "count"),
        "resilience.breaker_trips": (float(execution.get("breaker_trips", 0)), "count"),
        "core.bcheck_ms_p50": (_ms(_p(tracing.durations(spans, "core.bcheck"), 50)), "ms"),
        "core.ebcheck_ms_p50": (_ms(_p(tracing.durations(spans, "core.ebcheck"), 50)), "ms"),
        "core.finddp_ms_p50": (_ms(_p(tracing.durations(spans, "core.finddp"), 50)), "ms"),
        "core.bounded_fraction": (_mean([float(v) for v in verdicts]), "ratio"),
        "planning.qplan_ms_p50": (_ms(_p(tracing.durations(
            spans, "planning.qplan", "planning.prepare_plan"), 50)), "ms"),
        "planning.steps_mean": (_mean([steps for steps, _ in plan_shapes]), "count"),
        "planning.bound_mean": (_mean([bound for _, bound in plan_shapes]), "tuples"),
        "analysis.verify_ms_p50": (_ms(_p(tracing.durations(
            spans, "analysis.verify_plan", "analysis.verify_prepared"), 50)), "ms"),
        "sharding.route_us_p50": (
            _p(tracing.durations(spans, "sharding.submit"), 50) * 1e6, "us"),
        "sharding.hop_ms_p50": (_ms(_p(hop_s, 50)), "ms"),
        "sharding.hop_ms_p99": (_ms(_p(hop_s, 99)), "ms"),
        "sharding.routed_skew": (max(routed) / _mean(routed) if routed and sum(routed) else 0.0,
                                 "ratio"),
        "sharding.shed_by_bound": (float(service_stats.get("shed_by_bound", 0)), "count"),
        "sharding.spawn_s": (parts.get("sharding.spawn_s", 0.0), "s"),
        "workloads.generate_s": (parts.get("workloads.generate_s", 0.0), "s"),
        "trace.overhead": (traced_p50 / untraced_p50, "ratio"),
    }
