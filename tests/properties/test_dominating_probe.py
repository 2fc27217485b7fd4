"""Hypothesis properties: findDPh's seeded probes against instantiated queries.

findDPh asks "would instantiating ``X_P`` make ``Q`` effectively bounded?"
without building ``Q(X_P = ā)``: it seeds the EBCheck closure under ``Q``'s
own ``Σ_Q`` with ``X_C ∪ X_P``.  Two oracles pin that down on generated
TFACC, MOT and TPC-H queries with 0–4 products:

1. **Probe level** — for a random candidate subset ``X_P``, the probe's
   verdict equals EBCheck on the query instantiated with one distinct
   constant per ``Σ_Q`` class of ``X_P``.
2. **Heuristic level** — :func:`find_dominating_parameters` returns the same
   ``found``, ``parameters`` and ``ratio`` as the instantiate-and-check
   findDPh below (one shared probe constant, pairwise ``Σ_Q`` scans), both
   called directly and through :meth:`BoundedEngine.check`, which hands it
   the check's own EBCheck verdict and actualization.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.access.schema import AccessSchema
from repro.core import ebcheck, find_dominating_parameters, makes_effectively_bounded
from repro.core.dominating import DominatingParametersResult
from repro.execution.engine import BoundedEngine
from repro.spc.atoms import AttrRef
from repro.spc.query import SPCQuery
from repro.workloads import generate_query
from repro.workloads.mot import mot_access_schema, mot_querygen_spec
from repro.workloads.tfacc import tfacc_access_schema, tfacc_querygen_spec
from repro.workloads.tpch import tpch_access_schema, tpch_querygen_spec

_SOURCES = {
    "tfacc": (tfacc_querygen_spec(), tfacc_access_schema()),
    "mot": (mot_querygen_spec(), mot_access_schema()),
    "tpch": (tpch_querygen_spec(), tpch_access_schema()),
}

_QUERIES = st.builds(
    lambda source, products, selections, seed, prefer: (
        generate_query(
            _SOURCES[source][0],
            num_products=products,
            num_selections=selections,
            seed=seed,
            prefer_bounded=prefer,
        ).query,
        _SOURCES[source][1],
    ),
    st.sampled_from(sorted(_SOURCES)),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
)


def _instantiate_per_class(query: SPCQuery, refs: frozenset[AttrRef]) -> SPCQuery:
    """``query`` with one distinct constant per ``Σ_Q`` class of ``refs``."""
    constants: dict[frozenset[AttrRef], str] = {}
    bindings = {}
    for ref in sorted(refs):
        members = query.closure.equivalent_refs(ref)
        bindings[ref] = constants.setdefault(members, f"__class_{len(constants)}__")
    return query.with_constants(bindings)


def _instantiate_and_check_findDPh(
    query: SPCQuery, access_schema: AccessSchema, alpha: float | None
) -> DominatingParametersResult:
    """findDPh as it ran before seeded probes: each probe instantiates ``Q``."""

    def makes_eb(refs) -> bool:
        instantiated = query.with_constants({ref: "__probe__" for ref in refs})
        return ebcheck(instantiated, access_schema).effectively_bounded

    candidates = query.all_refs() - query.constant_refs
    denominator = max(1, len(candidates))
    if ebcheck(query, access_schema).effectively_bounded:
        return DominatingParametersResult(found=True, parameters=frozenset(), ratio=0.0)
    initial = set()
    for ref in candidates:
        relation = query.atoms[ref.atom].relation_name
        if any(ref.attribute in c.covered for c in access_schema.for_relation(relation)):
            initial.add(ref)
    if not makes_eb(initial):
        return DominatingParametersResult(found=False, parameters=frozenset(), ratio=None)
    current = set(initial)
    closure_eq = query.closure
    changed = True
    while changed:
        changed = False
        for ref in sorted(current):
            if ref not in current:
                continue
            relation = query.atoms[ref.atom].relation_name
            removable = False
            for constraint in access_schema.for_relation(relation):
                if ref.attribute in constraint.x_set or ref.attribute not in constraint.y_set:
                    continue
                remaining = (current | query.constant_refs) - {ref}
                if all(
                    any(closure_eq.entails_eq(AttrRef(ref.atom, a), other) for other in remaining)
                    for a in constraint.x
                ):
                    removable = True
                    break
            if not removable:
                continue
            shrunk = current - {other for other in current if closure_eq.entails_eq(ref, other)}
            if shrunk:
                current = shrunk
                changed = True
    if not makes_eb(current):
        current = set(initial)
    ratio = len(current) / denominator
    found = alpha is None or ratio <= alpha
    return DominatingParametersResult(found=found, parameters=frozenset(current), ratio=ratio)


@given(_QUERIES, st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_seeded_probe_matches_instantiated_ebcheck(case, data):
    query, access_schema = case
    candidates = sorted(query.all_refs() - query.constant_refs)
    subset = frozenset(data.draw(st.lists(st.sampled_from(candidates), max_size=12)))
    instantiated = _instantiate_per_class(query, subset)
    assert makes_effectively_bounded(query, access_schema, subset) == (
        ebcheck(instantiated, access_schema).effectively_bounded
    )


@given(_QUERIES, st.sampled_from([None, 0.2, 0.5]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_find_dominating_parameters_matches_instantiate_and_check(case, alpha):
    query, access_schema = case
    expected = _instantiate_and_check_findDPh(query, access_schema, alpha)
    engine = BoundedEngine(access_schema, dominating_alpha=alpha)
    report = engine.check(query)
    direct = find_dominating_parameters(query, access_schema, alpha=alpha)
    via_engine = report.dominating
    if report.effectively_bounded:
        # check() plans instead of searching; the search itself must agree.
        assert expected.found and expected.parameters == frozenset()
        via_engine = direct
    for result in (direct, via_engine):
        assert (result.found, result.parameters, result.ratio) == (
            expected.found,
            expected.parameters,
            expected.ratio,
        )
