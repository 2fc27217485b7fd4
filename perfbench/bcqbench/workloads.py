"""The four benchmark workloads: set-up, the timed run, and the correctness gate.

* ``form_mem`` — form traffic over an in-memory store, served by a 2-worker
  :class:`~repro.service.QueryService`.
* ``form_sqlite_rw`` — the same templates over a file-backed SQLite store
  with a resilience policy, and one write batch every ten operations.
* ``adhoc_plan`` — one client checks and, when effectively bounded, executes
  a stream of distinct generated SPC queries over TFACC, MOT and TPC-H.
* ``form_sharded`` — ``form_mem``'s data and traffic through a 2-process
  :class:`~repro.sharding.ShardedQueryService`.

No workload wraps its store in an injected-latency, injected-CPU-cost or
injected-fault backend: every number is real work on this host.
"""

from __future__ import annotations

import collections
import concurrent.futures
import gc
import itertools
import multiprocessing
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.ebcheck import ebcheck
from repro.errors import ServiceOverloadedError
from repro.execution import BoundedEngine
from repro.execution.naive import NaiveExecutor
from repro.service import QueryService
from repro.service.resilience import BreakerConfig, ResiliencePolicy, RetryPolicy
from repro.sharding import ShardedQueryService, ShardMap
from repro.storage.sqlite import SQLiteBackend
from repro.workloads import generate_tfacc_database, tfacc_access_schema
from repro.workloads.mot import generate_mot_database, mot_access_schema, mot_querygen_spec
from repro.workloads.querygen import generate_query
from repro.workloads.tfacc import tfacc_querygen_spec
from repro.workloads.tpch import (
    generate_tpch_database,
    tpch_access_schema,
    tpch_querygen_spec,
)

from .forms import FormTraffic, WriteStream, form_templates
from .loadgen import ANSWER_TIMEOUT_S, Reservoir, clock, closed_loop, open_loop, poisson_schedule
from .tracing import TracingBackend, Tracer, binding_key

#: Answers per run compared against the oracle.
SAMPLE_SIZE = 48
#: Requests per router-to-shard envelope in form_sharded: each request pays
#: its own IPC hop.  With the default coalescing of up to 16, batch sizes
#: followed scheduling noise and throughput swung by up to a factor of two
#: between identical runs.
SHARD_ENVELOPE = 1
#: Seconds of unrecorded open-loop traffic before a form workload's timed
#: phases, so the first timed requests do not pay for a cold start.
WARMUP_S = 2.0


@dataclass(frozen=True)
class FormSpec:
    """One form workload's fixed settings."""

    name: str
    #: TFACC scale (1.0 is ~33k tuples).
    scale: float
    #: ``"memory"`` or ``"sqlite"`` (a file in the work directory, WAL mode).
    store: str
    #: Open-loop arrival rate, requests per second.
    rate: float
    #: Closed-loop requests kept outstanding.
    window: int
    #: Every n-th operation is a write batch (0: read-only).
    write_every: int = 0
    sharded: bool = False
    resilient: bool = False
    workers: int = 2


@dataclass(frozen=True)
class AdhocSpec:
    name: str
    #: Scale of each of the three generated databases.
    scale: float
    #: Distinct queries in the population (more than the plan cache holds).
    pool: int


# Open-loop rates sit near half the closed-loop capacity measured on a shared
# 2-CPU host (form_mem ~1700-2600 req/s, form_sqlite_rw ~150, form_sharded
# ~1000-2000 on its one CPU); form_sqlite_rw stays lower because each write
# batch blocks the sending thread, and at 80 ops/s its send lag passed the
# validity limit.  form_sharded keeps 128 requests outstanding so that the
# pipeline to the shards never runs dry.
FORM_MEM = FormSpec("form_mem", scale=1.0, store="memory", rate=800.0, window=8)
FORM_SQLITE_RW = FormSpec("form_sqlite_rw", scale=4.0, store="sqlite", rate=40.0,
                          window=8, write_every=10, resilient=True)
FORM_SHARDED = FormSpec("form_sharded", scale=1.0, store="memory", rate=500.0,
                        window=128, sharded=True, workers=1)
ADHOC_PLAN = AdhocSpec("adhoc_plan", scale=0.25, pool=300)

SPECS = {spec.name: spec for spec in (FORM_MEM, FORM_SQLITE_RW, ADHOC_PLAN, FORM_SHARDED)}


def canonical(rows: Any) -> bytes:
    """An answer's rows as bytes, independent of row order (set semantics)."""
    return "\n".join(sorted(map(repr, rows))).encode()


@dataclass
class RunRecord:
    """Everything one timed run measured."""

    seed: int
    #: ``(phase, due, sent, done, exec_s, tuples, bound, rows, lookups, request)``
    answers: list[tuple] = field(default_factory=list)
    #: ``(phase, due, done)`` per committed write batch.
    writes: list[tuple] = field(default_factory=list)
    failures: collections.Counter = field(default_factory=collections.Counter)
    attempted: int = 0
    lags: list[float] = field(default_factory=list)
    #: Per-query latency of the ad-hoc client (check plus execute).
    query_s: list[float] = field(default_factory=list)
    #: ``pool index -> fastest check plus execute`` of the ad-hoc client.
    query_best: dict[int, float] = field(default_factory=dict)
    closed_s: float = 0.0
    closed_reads: int = 0
    sample: Reservoir | None = None
    #: Answers whose measured access exceeded their certificate, or lacked one.
    over_bound: list[tuple] = field(default_factory=list)
    #: Set by the correctness gate: one line per failed check.
    errors: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.sample = Reservoir(SAMPLE_SIZE, random.Random(self.seed ^ 0xC0FFEE))

    def answer(self, phase: str, due: float, sent: float, done: float,
               result: Any, request: int, key: Any) -> None:
        stats = result.stats
        self.answers.append((phase, due, sent, done, stats.elapsed_seconds,
                             stats.tuples_accessed, stats.plan_bound,
                             stats.result_rows, stats.lookups, request))
        self.check_bound(result, request)
        self.sample.offer((key, result))

    def check_bound(self, result: Any, request: int) -> None:
        stats = result.stats
        if stats.plan_bound is None or stats.tuples_accessed > stats.plan_bound:
            self.over_bound.append((request, stats.tuples_accessed, stats.plan_bound))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(f"{path}{suffix}")
        except FileNotFoundError:
            pass


# -- the form workloads ----------------------------------------------------------------


class FormStack:
    """One set-up of a form workload: data, store, service and warm templates."""

    def __init__(self, spec: FormSpec, seed: int, workdir: Path, label: str,
                 tracer: Tracer | None = None) -> None:
        self.spec = spec
        self.parts: dict[str, float] = {}
        self.templates = form_templates()
        access = tfacc_access_schema()
        self.store_path = workdir / f"{spec.name}-{label}.sqlite"
        self.store_bytes = 0

        started = clock()
        self.database = generate_tfacc_database(scale=spec.scale, seed=seed)
        self.traffic = FormTraffic(self.database, seed)
        self.writes = WriteStream(self.database, seed) if spec.write_every else None
        self.parts["workloads.generate_s"] = clock() - started

        if spec.sharded:
            started = clock()
            shard_map = ShardMap.for_template(self.templates[0], access, num_shards=2)
            self.service: Any = ShardedQueryService(
                self.database, access, shard_map=shard_map, shard_workers=spec.workers,
                max_batch=SHARD_ENVELOPE)
            self.backend = None
            self.engine = self.service.engine
            # The shards inherit the run's one CPU (see run.py): the workload
            # measures routing and the IPC hop, not parallel speed-up.
            self.parts["sharding.spawn_s"] = clock() - started
            started = clock()
            # Registering each template routes, certifies and warms it on
            # every shard that receives it.
            for index, template in enumerate(self.templates):
                for binding in self.traffic.examples(index):
                    self.service.run(template, **binding)
            self.parts["execution.prepare_s"] = clock() - started
        else:
            started = clock()
            if spec.store == "sqlite":
                _remove_store(self.store_path)
                self.store: Any = SQLiteBackend.from_database(self.database,
                                                              path=str(self.store_path))
            else:
                self.store = self.database.backend
            self.backend = (TracingBackend(self.store, tracer) if tracer is not None
                            else self.store)
            self.engine = BoundedEngine(access)
            self.engine.prepare(self.backend)
            self.parts["storage.load_s"] = clock() - started
            if spec.store == "sqlite":
                self.store_bytes = sum(
                    os.path.getsize(f"{self.store_path}{suffix}")
                    for suffix in ("", "-wal") if os.path.exists(f"{self.store_path}{suffix}"))
            started = clock()
            resilience = (ResiliencePolicy(retry=RetryPolicy(), breaker=BreakerConfig())
                          if spec.resilient else None)
            self.service = QueryService(self.backend, engine=self.engine,
                                        workers=spec.workers, resilience=resilience)
            for template in self.templates:
                self.engine.prepare_query(template).warm(self.backend)
            self.parts["execution.prepare_s"] = clock() - started
        self.setup_s = sum(self.parts.values())
        self.base_version = self.backend.data_version if self.backend is not None else 0
        self.tuples = sum(len(relation) for relation in self.database)

    def shard_pids(self) -> list[int]:
        return [child.pid for child in multiprocessing.active_children()]

    def engines(self) -> list[BoundedEngine]:
        return [self.engine]

    def plan_shapes(self) -> list[tuple[int, int]]:
        """``(fetch steps, certified bound)`` of each template's plan."""
        shapes = []
        for template in self.templates:
            prepared = self.engine.prepare_query(template)
            shapes.append((len(prepared.prepared.plan.steps), prepared.total_bound))
        return shapes

    def service_counters(self) -> dict[str, Any]:
        """Service counters; a sharded service's batches are counted by its shards."""
        if not self.spec.sharded:
            return self.service.stats()
        counters = self.service.stats(shard_timeout=5.0)
        shards = counters.get("per_shard", {}).values()
        counters["completed"] = sum(shard.get("completed", 0) for shard in shards)
        counters["batches"] = sum(shard.get("batches", 0) for shard in shards)
        return counters

    def close(self) -> None:
        self.service.close()
        if self.spec.store == "sqlite":
            self.store.close()
            _remove_store(self.store_path)

    # -- the timed run ---------------------------------------------------------------

    def run(self, seconds: float, record: RunRecord, tracer: Tracer | None = None) -> None:
        spec = self.spec
        templates = self.templates
        service = self.service
        traffic = self.traffic
        writes = self.writes
        serials = itertools.count()
        write_every = spec.write_every

        def send(phase: str, due: float, sent: float) -> Any:
            serial = next(serials)
            record.attempted += 1
            if write_every and serial % write_every == write_every - 1:
                batch = writes.next_batch()
                try:
                    service.apply_writes(batch)
                except Exception as error:  # counted; the replay gate then fails too
                    record.failures[f"write:{type(error).__name__}"] += 1
                    record.errors.append(f"write batch {len(writes.log)} failed: {error!r}")
                    return None
                record.writes.append((phase, due, clock()))
                return None
            index, binding = traffic.next_read()
            template = templates[index]
            key = (index, binding)
            try:
                if tracer is None:
                    future = service.submit(template, **binding)
                else:
                    tracer.expect(binding_key(template.query.name, binding), serial)
                    with tracer.request(serial):
                        future = service.submit(template, **binding)
            except ServiceOverloadedError:
                record.failures["rejected"] += 1
                return None
            return phase, due, sent, future, serial, key

        def finish(handle: Any) -> None:
            phase, due, sent, future, serial, key = handle
            waited = clock()
            try:
                result = future.result(ANSWER_TIMEOUT_S)
            except concurrent.futures.TimeoutError:
                record.failures["timed_out"] += 1
                return
            except Exception as error:  # a typed service error: counted as failed
                record.failures[type(error).__name__] += 1
                return
            done = clock()
            if tracer is not None:
                tracer.record("loadgen.wait", waited, done, serial)
            if phase == "warm":
                record.check_bound(result, serial)
            else:
                record.answer(phase, due, sent, done, result, serial, key)

        rng = random.Random(record.seed ^ 0x10AD)
        open_loop(poisson_schedule(spec.rate, WARMUP_S, rng),
                  lambda due, sent: send("warm", due, sent), finish)
        half = seconds / 2
        schedule = poisson_schedule(spec.rate, half, rng)
        record.lags = open_loop(schedule, lambda due, sent: send("open", due, sent), finish)
        before = len(record.answers)
        record.closed_s = closed_loop(half, spec.window,
                                      lambda due, sent: send("closed", due, sent), finish)
        record.closed_reads = len(record.answers) - before

    # -- the correctness gate --------------------------------------------------------

    def check(self, record: RunRecord) -> None:
        errors = record.errors
        if record.over_bound:
            errors.append(f"{len(record.over_bound)} answers accessed more than their "
                          f"certificate, e.g. {record.over_bound[0]}")
        samples = list(record.sample.items)
        naive = NaiveExecutor()
        if self.spec.sharded:
            reference = BoundedEngine(tfacc_access_schema())
            for (index, binding), result in samples:
                unsharded = reference.prepare_query(self.templates[index]).execute(
                    self.database, **binding)
                if canonical(unsharded.rows.rows) != canonical(result.rows.rows):
                    errors.append(f"sharded answer differs from unsharded for "
                                  f"{self.templates[index].query.name} {binding}")
        if self.writes is None:
            for (index, binding), result in samples:
                self._compare(naive, index, binding, result, errors)
            return
        # Replay the committed write prefix each sampled answer read.
        log = self.writes.log
        committed = self.backend.data_version - self.base_version
        if committed != len(log):
            errors.append(f"store committed {committed} write batches, "
                          f"the log holds {len(log)}")
            return
        applied = 0
        for (index, binding), result in sorted(
                samples, key=lambda item: item[1].details["data_version"]):
            version = result.details["data_version"] - self.base_version
            while applied < version:
                batch = log[applied]
                self.database.apply_writes(inserts=batch.inserts, deletes=batch.deletes)
                applied += 1
            self._compare(naive, index, binding, result, errors)

    def _compare(self, naive: NaiveExecutor, index: int, binding: dict, result: Any,
                 errors: list[str]) -> None:
        template = self.templates[index]
        expected = naive.execute(template.bind(**binding), self.database)
        if canonical(expected.rows.rows) != canonical(result.rows.rows):
            errors.append(f"answer differs from the naive oracle for "
                          f"{template.query.name} {binding} "
                          f"(data_version {result.details.get('data_version')})")


# -- the ad-hoc planning workload ------------------------------------------------------

#: Seed of the fixed query population; ``--seed`` picks the data and the order.
POPULATION_SEED = 2014

_ADHOC_SOURCES = (
    ("tfacc", tfacc_querygen_spec, tfacc_access_schema, generate_tfacc_database),
    ("mot", mot_querygen_spec, mot_access_schema, generate_mot_database),
    ("tpch", tpch_querygen_spec, tpch_access_schema, generate_tpch_database),
)


def query_population(size: int) -> list[tuple[int, Any]]:
    """``size`` distinct generated SPC queries as ``(source index, query)``.

    Shapes follow the paper's Exp-1 sets: 0–4 products, 4–8 selections, about
    four in five generated to prefer anchored (bounded) constants.
    """
    rng = random.Random(POPULATION_SEED)
    specs = [spec() for _, spec, _, _ in _ADHOC_SOURCES]
    seen = set()
    population = []
    while len(population) < size:
        source = rng.randrange(len(specs))
        query = generate_query(
            specs[source],
            num_products=rng.randint(0, 4),
            num_selections=rng.randint(4, 8),
            seed=rng.getrandbits(32),
            prefer_bounded=rng.random() < 0.8,
            name=f"{_ADHOC_SOURCES[source][0]}_{len(population)}",
        ).query
        shape = (source, str(query))
        if shape not in seen:
            seen.add(shape)
            population.append((source, query))
    return population


class AdhocStack:
    """One set-up of ``adhoc_plan``: three databases, three engines, the query stream."""

    def __init__(self, spec: AdhocSpec, seed: int, workdir: Path, label: str,
                 tracer: Tracer | None = None) -> None:
        self.spec = spec
        self.parts: dict[str, float] = {}
        started = clock()
        self.databases = [generate(scale=spec.scale, seed=seed)
                          for _, _, _, generate in _ADHOC_SOURCES]
        self.population = query_population(spec.pool)
        self.order = list(range(spec.pool))
        random.Random(seed).shuffle(self.order)
        self.parts["workloads.generate_s"] = clock() - started
        started = clock()
        self.access = [schema() for _, _, schema, _ in _ADHOC_SOURCES]
        self.stores = [TracingBackend(db, tracer) if tracer is not None else db.backend
                       for db in self.databases]
        self._engines = [BoundedEngine(access) for access in self.access]
        for engine, store in zip(self._engines, self.stores):
            engine.prepare(store)
        self.parts["storage.load_s"] = clock() - started
        self.setup_s = sum(self.parts.values())
        self.tuples = sum(len(relation) for db in self.databases for relation in db)
        self.store_bytes = 0
        #: ``pool index -> effectively bounded`` as the engine judged it.
        self.verdicts: dict[int, bool] = {}
        #: ``pool index -> tuples accessed`` by its first execution.
        self.first_access: dict[int, int] = {}
        #: ``pool index -> (fetch steps, plan bound)`` of each bounded query.
        self.shapes: dict[int, tuple[int, int]] = {}

    def shard_pids(self) -> list[int]:
        return []

    def engines(self) -> list[BoundedEngine]:
        return list(self._engines)

    def plan_shapes(self) -> list[tuple[int, int]]:
        return list(self.shapes.values())

    def service_counters(self) -> dict[str, Any]:
        return {}

    def close(self) -> None:
        pass

    def run(self, seconds: float, record: RunRecord, tracer: Tracer | None = None) -> None:
        """One client: check each query, execute it when effectively bounded."""
        population = self.population
        engines = self._engines
        stores = self.stores
        verdicts = self.verdicts
        position = 0
        start = clock()
        stop = start + seconds
        for serial in itertools.count():
            now = clock()
            if now >= stop:
                break
            index = self.order[position]
            position = (position + 1) % len(self.order)
            source, query = population[index]
            record.attempted += 1
            if tracer is None:
                report, result = self._answer(engines[source], query, stores[source])
            else:
                with tracer.request(serial):
                    report, result = self._answer(engines[source], query, stores[source])
            done = clock()
            record.query_s.append(done - now)
            record.query_best[index] = min(done - now, record.query_best.get(index, done - now))
            bounded = result is not None
            if verdicts.setdefault(index, bounded) != bounded:
                record.errors.append(f"query {query.name} changed verdict between passes")
            if result is None:
                continue
            self.shapes.setdefault(index, (len(report.plan.steps), report.plan.total_bound))
            record.answer("closed", now, now, done, result, serial, index)
            self.first_access.setdefault(index, result.stats.tuples_accessed)
        record.closed_s = clock() - start
        record.closed_reads = len(record.answers)

    @staticmethod
    def _answer(engine: BoundedEngine, query: Any, store: Any) -> tuple[Any, Any]:
        report = engine.check(query)
        if not report.effectively_bounded:
            return report, None
        return report, engine.execute(query, store)

    def check(self, record: RunRecord) -> None:
        errors = record.errors
        if record.over_bound:
            errors.append(f"{len(record.over_bound)} executions accessed more than their "
                          f"certificate, e.g. {record.over_bound[0]}")
        # The engine's verdicts against the checker called directly, with no
        # engine caches in between, for every query the run attempted.
        expected = sum(
            ebcheck(query, self.access[source]).effectively_bounded
            for source, query in (self.population[index] for index in self.verdicts))
        observed = sum(self.verdicts.values())
        if expected != observed:
            errors.append(f"{observed} effectively bounded verdicts, "
                          f"the checker alone gives {expected}")
        naive = NaiveExecutor()
        for index, result in record.sample.items:
            source, query = self.population[index]
            expected_rows = naive.execute(query, self.databases[source]).rows.rows
            if canonical(expected_rows) != canonical(result.rows.rows):
                errors.append(f"answer to {query.name} differs from the naive oracle")


def build(name: str, seed: int, workdir: Path, label: str,
          tracer: Tracer | None = None) -> Any:
    """Set up workload ``name`` once."""
    spec = SPECS[name]
    stack_type = AdhocStack if isinstance(spec, AdhocSpec) else FormStack
    stack = stack_type(spec, seed, workdir, label, tracer)
    gc.collect()
    return stack
