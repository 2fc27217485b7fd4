"""Structural regression tests: one check shares one actualization and one verdict.

:meth:`BoundedEngine.check` builds ``Γ = Actualize(A, Q)`` once and hands it to
BCheck, EBCheck, QPlan and findDPh, and runs EBCheck once, handing its verdict
on.  findDPh probes by seeding the closure, never by instantiating the query.
These tests count calls instead of timing them, so they repeat exactly.
"""

from __future__ import annotations

import sys

import pytest

from repro.core import find_dominating_parameters, find_minimum_dominating_parameters
from repro.core.closure import Actualization
from repro.core.deduction import actualize
from repro.core.ebcheck import ebcheck
from repro.errors import ApiMisuseError
from repro.execution.engine import BoundedEngine
from repro.spc.query import SPCQuery
from repro.workloads import (
    generate_query,
    query_q0,
    query_q1,
    social_access_schema,
    tpch_access_schema,
)
from repro.workloads.tpch import tpch_querygen_spec


def _count_calls(monkeypatch, function) -> list:
    """Route every ``repro`` module's binding of ``function`` through a counter."""
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


def _tpch_query(seed: int) -> SPCQuery:
    return generate_query(tpch_querygen_spec(), num_products=4, num_selections=6, seed=seed).query


CASES = {
    "paper-Q1": (query_q1, social_access_schema, False),
    "paper-Q0": (lambda: query_q0(album_id="a0", user_id="u0"), social_access_schema, True),
    "tpch-5-atoms-not-eb": (lambda: _tpch_query(6), tpch_access_schema, False),
    "tpch-5-atoms-eb": (lambda: _tpch_query(0), tpch_access_schema, True),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    make_query, make_schema, effectively_bounded = CASES[request.param]
    query = make_query()
    assert query.num_atoms == 5 or request.param.startswith("paper")
    return query, make_schema(), effectively_bounded


def test_check_actualizes_once_and_runs_ebcheck_once(case, monkeypatch):
    query, access_schema, effectively_bounded = case
    actualized = _count_calls(monkeypatch, actualize)
    checked = _count_calls(monkeypatch, ebcheck)
    report = BoundedEngine(access_schema).check(query)
    assert report.effectively_bounded == effectively_bounded
    # The non-EB cases exercise findDPh, the EB cases a cold-cache QPlan.
    assert (report.plan is not None) == effectively_bounded
    assert (report.dominating is not None) != effectively_bounded
    assert actualized == [query]
    assert checked == [query]


def test_find_dominating_parameters_never_instantiates(case, monkeypatch):
    query, access_schema, _ = case
    instantiations: list = []
    monkeypatch.setattr(SPCQuery, "with_constants", lambda self, bindings: instantiations.append(self))
    find_dominating_parameters(query, access_schema)
    find_dominating_parameters(query, access_schema, alpha=0.1)
    BoundedEngine(access_schema).check(query)
    assert instantiations == []


def test_exact_solver_never_instantiates(monkeypatch):
    instantiations: list = []
    monkeypatch.setattr(SPCQuery, "with_constants", lambda self, bindings: instantiations.append(self))
    assert find_minimum_dominating_parameters(query_q1(), social_access_schema()).found
    assert instantiations == []


def test_shared_inputs_are_bound_to_their_query(q0, q1, access_schema):
    with pytest.raises(ApiMisuseError):
        ebcheck(q0, access_schema, Actualization(q1, access_schema))
    with pytest.raises(ApiMisuseError):
        find_dominating_parameters(q1, access_schema, verdict=ebcheck(q0, access_schema))
