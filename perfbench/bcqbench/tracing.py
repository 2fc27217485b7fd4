"""In-memory span tracing around the public calls into each layer.

A traced run installs wrappers, from the benchmark's side only, around the
calls a request makes into the program: the service's ``submit`` and
``apply_writes``, ``PreparedQuery.serve``, the engine's ``check``,
``execute``, ``prepare_query`` and ``invalidate``, the analysis functions as
the engine module imports them (``bcheck``, ``ebcheck``,
``find_dominating_parameters``, ``qplan``, ``prepare_plan``), the plan
verifier, the sharded router's ``submit``, and — through a
:class:`~repro.storage.wrapper.WrapperBackend` — ``fetch_many`` on every
constraint view and the store's ``apply_writes``.

A span is ``(span_id, parent_id, request_id, name, start, end, extra)``.  The
parent is the innermost open span on the same thread; the request id is
inherited from the parent, set explicitly by the load generator around
``submit``, or — for ``serve`` on a service worker thread — matched from the
binding the generator registered with :meth:`Tracer.expect`.  Spans stay in
memory and are written out by :func:`write_spans` when the run ends.

Nothing here changes what the wrapped calls return: a wrapper only reads the
clock around the call, and the fetch view hands the same key sequence on.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.storage.wrapper import WrapperBackend

#: Layer of each span name (the module family the wrapped call belongs to).
SPAN_LAYERS = {
    "loadgen.wait": "loadgen",
    "service.submit": "service",
    "service.apply_writes": "service",
    "execution.serve": "execution",
    "execution.check": "execution",
    "execution.execute": "execution",
    "execution.prepare_query": "execution",
    "execution.invalidate": "execution",
    "core.bcheck": "core",
    "core.ebcheck": "core",
    "core.finddp": "core",
    "planning.qplan": "planning",
    "planning.prepare_plan": "planning",
    "analysis.verify_plan": "analysis",
    "analysis.verify_prepared": "analysis",
    "storage.fetch_many": "storage",
    "storage.apply_writes": "storage",
    "sharding.submit": "sharding",
}


class Tracer:
    """Collects spans from any thread; install wrappers with :meth:`patch`."""

    def __init__(self) -> None:
        #: ``(span_id, parent_id, request_id, name, start, end, extra)``;
        #: ``list.append`` is atomic, so threads share the list unlocked.
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._expected: dict[Any, collections.deque] = collections.defaultdict(
            collections.deque
        )
        self._expected_lock = threading.Lock()

    # -- the per-thread span stack -----------------------------------------------

    def _stack(self) -> list[tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id: Any) -> Iterator[None]:
        """Attribute every span opened inside the block to ``request_id``."""
        stack = self._stack()
        stack.append((0, request_id))
        try:
            yield
        finally:
            stack.pop()

    def expect(self, key: Any, request_id: Any) -> None:
        """Register a request whose ``serve`` will run on another thread."""
        with self._expected_lock:
            self._expected[key].append(request_id)

    def claim(self, key: Any) -> Any:
        """The oldest registered request id for ``key`` (``None`` if unknown)."""
        with self._expected_lock:
            pending = self._expected.get(key)
            return pending.popleft() if pending else None

    # -- recording -----------------------------------------------------------------

    def record(self, name: str, start: float, end: float, request_id: Any = None) -> None:
        """Record a span measured by the caller (no parent)."""
        self.spans.append((next(self._ids), 0, request_id, name, start, end, None))

    def wrap(
        self,
        name: str,
        function: Callable,
        request_of: Callable[[tuple, dict], Any] | None = None,
    ) -> Callable:
        """``function`` with a span named ``name`` around every call."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent, request_id = stack[-1] if stack else (0, None)
            if request_of is not None and request_id is None:
                request_id = request_of(args, kwargs)
            span_id = next(ids)
            stack.append((span_id, request_id))
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, request_id, name, start, end, None))

        return traced

    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        request_of: Callable[[tuple, dict], Any] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` (a class or module) with a traced wrapper."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, original, request_of))
        self._patches.append((owner, attribute, original))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def open_span(self) -> tuple[int, Any]:
        """The innermost open span on this thread, as ``(span_id, request_id)``."""
        stack = self._stack()
        return stack[-1] if stack else (0, None)

    def next_id(self) -> int:
        return next(self._ids)


def _serve_key(args: tuple, kwargs: dict) -> Any:
    """Request key of ``PreparedQuery.serve(self, source, params, ...)``."""
    prepared, params = args[0], args[2] if len(args) > 2 else kwargs["params"]
    return binding_key(prepared.template.query.name, params)


def binding_key(template_name: str, binding: Any) -> Any:
    """How the load generator and the ``serve`` wrapper name one request."""
    return template_name, tuple(sorted(binding.items()))


def install(tracer: Tracer) -> None:
    """Patch the public layer entry points for one traced run."""
    from repro.analysis import verify
    from repro.execution import engine
    from repro.execution.engine import BoundedEngine
    from repro.execution.prepared import PreparedQuery
    from repro.service.service import QueryService
    from repro.sharding.router import ShardedQueryService

    tracer.patch(QueryService, "submit", "service.submit")
    tracer.patch(QueryService, "apply_writes", "service.apply_writes")
    tracer.patch(ShardedQueryService, "submit", "sharding.submit")
    tracer.patch(
        PreparedQuery, "serve", "execution.serve",
        request_of=lambda args, kwargs: tracer.claim(_serve_key(args, kwargs)),
    )
    tracer.patch(BoundedEngine, "check", "execution.check")
    tracer.patch(BoundedEngine, "execute", "execution.execute")
    tracer.patch(BoundedEngine, "prepare_query", "execution.prepare_query")
    tracer.patch(BoundedEngine, "invalidate", "execution.invalidate")
    # The engine module imported these by name, so patch its bindings.
    tracer.patch(engine, "bcheck", "core.bcheck")
    tracer.patch(engine, "ebcheck", "core.ebcheck")
    tracer.patch(engine, "find_dominating_parameters", "core.finddp")
    tracer.patch(engine, "qplan", "planning.qplan")
    tracer.patch(engine, "prepare_plan", "planning.prepare_plan")
    # The engine imports the verifier lazily, at call time, from its module.
    tracer.patch(verify, "verify_plan", "analysis.verify_plan")
    tracer.patch(verify, "verify_prepared", "analysis.verify_prepared")


class _TracedView:
    """A constraint fetch view whose ``fetch_many`` records a span."""

    __slots__ = ("_view", "_tracer")

    def __init__(self, view: Any, tracer: Tracer) -> None:
        self._view = view
        self._tracer = tracer

    @property
    def constraint(self) -> Any:
        return self._view.constraint

    @property
    def relation(self) -> str:
        return self._view.relation

    @property
    def key(self) -> tuple[str, ...]:
        return self._view.key

    @property
    def value(self) -> tuple[str, ...]:
        return self._view.value

    def fetch(self, x_value: Sequence[Any]) -> list:
        return self._view.fetch(x_value)

    def fetch_many(self, x_values: Iterable[Sequence[Any]]) -> list:
        keys = x_values if isinstance(x_values, list) else list(x_values)
        tracer = self._tracer
        parent, request_id = tracer.open_span()
        start = time.perf_counter()
        rows = self._view.fetch_many(keys)
        end = time.perf_counter()
        tracer.spans.append(
            (tracer.next_id(), parent, request_id, "storage.fetch_many", start, end,
             (len(keys), len(rows)))
        )
        return rows

    def contains(self, x_value: Sequence[Any]) -> bool:
        return self._view.contains(x_value)


class TracingBackend(WrapperBackend):
    """A store wrapper that traces ``fetch_many`` on every view and ``apply_writes``."""

    def __init__(self, source: Any, tracer: Tracer) -> None:
        super().__init__(source)
        self.tracer = tracer
        self._apply = tracer.wrap("storage.apply_writes", self.inner.apply_writes)

    def wrap_view(self, view: Any) -> Any:
        return _TracedView(view, self.tracer)

    def apply_writes(self, batch: Any) -> dict[str, tuple[int, int]]:
        return self._apply(batch)


# -- analysis of the recorded spans --------------------------------------------------


def self_times(spans: Sequence[tuple]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for span in spans:
        if span[1]:
            children[span[1]].append((span[4], span[5]))
    result = {}
    for span in spans:
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted(children.get(span[0], ())):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        result[span[0]] = (span[5] - span[4]) - covered
    return result


def budget(spans: Sequence[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: count, total and self time in seconds, and its layer."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = table.setdefault(
            span[3],
            {"layer": SPAN_LAYERS.get(span[3], "other"), "count": 0,
             "total_s": 0.0, "self_s": 0.0},
        )
        entry["count"] += 1
        entry["total_s"] += span[5] - span[4]
        entry["self_s"] += own[span[0]]
    return table


def durations(spans: Sequence[tuple], *names: str) -> list[float]:
    """Durations, in seconds, of every span with one of ``names``."""
    wanted = set(names)
    return [span[5] - span[4] for span in spans if span[3] in wanted]


def write_spans(path: Any, spans: Sequence[tuple], summary: dict) -> None:
    """Write the budget summary, then one span per line, as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"budget": summary}) + "\n")
        for span in spans:
            handle.write(json.dumps(span) + "\n")
