"""Tracing is transparent: traced and untraced runs answer identically.

Each test serves the same seeded operations through an untraced set-up and
through a traced one (wrapped store, patched entry points) and requires the
rows, ``tuples_accessed`` and ``details["step_sizes"]`` of every answer to
match, and the spans to nest as the tracer promises.
"""

import dataclasses

from bcqbench import tracing, workloads
from repro.execution.prepared import PreparedQuery
from repro.service.service import QueryService


def _serve(stack, operations, tracer=None):
    """Serve ``operations`` one at a time; returns one observation per read."""
    observed = []
    for serial, operation in enumerate(operations):
        if operation[0] == "write":
            stack.service.apply_writes(operation[1])
            continue
        index, binding = operation[1]
        template = stack.templates[index]
        if tracer is None:
            future = stack.service.submit(template, **binding)
        else:
            tracer.expect(tracing.binding_key(template.query.name, binding), serial)
            with tracer.request(serial):
                future = stack.service.submit(template, **binding)
        result = future.result(30)
        observed.append((workloads.canonical(result.rows.rows), result.stats.tuples_accessed,
                         list(result.details["step_sizes"])))
    return observed


def _operations(stack, count, write_every=0):
    operations = []
    for serial in range(count):
        if write_every and serial % write_every == write_every - 1:
            operations.append(("write", stack.writes.next_batch()))
        else:
            operations.append(("read", stack.traffic.next_read()))
    return operations


def _traced_run(spec, tmp_path, count, write_every=0):
    plain = workloads.FormStack(spec, 3, tmp_path, "plain")
    try:
        expected = _serve(plain, _operations(plain, count, write_every))
    finally:
        plain.close()
    tracer = tracing.Tracer()
    traced = workloads.FormStack(spec, 3, tmp_path, "traced", tracer)
    tracing.install(tracer)
    try:
        observed = _serve(traced, _operations(traced, count, write_every), tracer)
    finally:
        tracer.unpatch()
        traced.close()
    return expected, observed, tracer.spans


def test_tracing_leaves_in_memory_answers_identical(tmp_path):
    spec = dataclasses.replace(workloads.FORM_MEM, scale=0.2, workers=1)
    expected, observed, spans = _traced_run(spec, tmp_path, 60)
    assert observed == expected
    by_id = {span[0]: span for span in spans}
    serves = [span for span in spans if span[3] == "execution.serve"]
    fetches = [span for span in spans if span[3] == "storage.fetch_many"]
    assert len(serves) == 60 and fetches
    for fetch in fetches:
        parent = by_id[fetch[1]]
        assert parent[3] == "execution.serve"
        assert fetch[2] == parent[2] is not None  # the serve's request id
        assert parent[4] <= fetch[4] <= fetch[5] <= parent[5]
    assert {span[2] for span in serves} == set(range(60))


def test_tracing_leaves_sqlite_answers_and_writes_identical(tmp_path):
    spec = dataclasses.replace(workloads.FORM_SQLITE_RW, scale=0.2, workers=1)
    expected, observed, spans = _traced_run(spec, tmp_path, 40, write_every=10)
    assert observed == expected
    names = {span[3] for span in spans}
    assert {"service.apply_writes", "storage.apply_writes", "execution.invalidate"} <= names


def test_tracing_leaves_adhoc_answers_identical(tmp_path):
    spec = dataclasses.replace(workloads.ADHOC_PLAN, pool=40)

    def answers(stack, tracer=None):
        out = []
        for serial, index in enumerate(stack.order):
            source, query = stack.population[index]
            engine, store = stack.engines()[source], stack.stores[source]
            if tracer is None:
                report, result = stack._answer(engine, query, store)
            else:
                with tracer.request(serial):
                    report, result = stack._answer(engine, query, store)
            out.append(None if result is None else (
                workloads.canonical(result.rows.rows), result.stats.tuples_accessed,
                list(result.details.get("step_sizes", ()))))
        return out

    expected = answers(workloads.AdhocStack(spec, 5, tmp_path, "plain"))
    tracer = tracing.Tracer()
    traced = workloads.AdhocStack(spec, 5, tmp_path, "traced", tracer)
    tracing.install(tracer)
    try:
        observed = answers(traced, tracer)
    finally:
        tracer.unpatch()
    assert observed == expected
    assert any(span[3] == "core.ebcheck" for span in tracer.spans)


def test_unpatch_restores_every_entry_point():
    originals = (QueryService.submit, PreparedQuery.serve)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert QueryService.submit is not originals[0]
    tracer.unpatch()
    assert (QueryService.submit, PreparedQuery.serve) == originals


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, 0, None, "execution.serve", 0.0, 10.0, None),
        (2, 1, None, "storage.fetch_many", 1.0, 4.0, (1, 1)),
        (3, 1, None, "storage.fetch_many", 3.0, 5.0, (1, 1)),  # overlaps span 2
        (4, 1, None, "storage.fetch_many", 7.0, 8.0, (1, 1)),
    ]
    own = tracing.self_times(spans)
    assert own[1] == 10.0 - (5.0 - 1.0) - (8.0 - 7.0)
    assert own[2] == 3.0
    table = tracing.budget(spans)
    assert table["storage.fetch_many"]["count"] == 3
    assert table["execution.serve"]["layer"] == "execution"
