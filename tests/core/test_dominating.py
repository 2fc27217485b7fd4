"""Unit tests for dominating parameters (Section 4.3, Theorem 7)."""

import pytest

from repro.access import AccessConstraint, AccessSchema
from repro.core import (
    ebcheck,
    find_dominating_parameters,
    find_minimum_dominating_parameters,
    has_dominating_parameters,
    makes_effectively_bounded,
)
from repro.spc import SPCQueryBuilder


class TestFindDPh:
    def test_example9_heuristic_set(self, q1, access_schema):
        """Example 9: findDPh returns {aid, uid, tid2} for Q1 under A0 with α = 3/7."""
        result = find_dominating_parameters(q1, access_schema, alpha=3 / 7)
        assert result.found
        pretty = {ref.pretty(q1.atoms) for ref in result.parameters}
        assert pretty == {"ia.album_id", "f.user_id", "t.taggee_id"}
        assert result.ratio == pytest.approx(3 / 7)

    def test_returned_set_is_dominating(self, q1, access_schema):
        result = find_dominating_parameters(q1, access_schema)
        assert makes_effectively_bounded(q1, access_schema, result.parameters)

    def test_alpha_rejection(self, q1, access_schema):
        strict = find_dominating_parameters(q1, access_schema, alpha=0.1)
        assert not strict.found
        assert strict.ratio is not None and strict.ratio > 0.1
        assert "α" in strict.reason or "alpha" in strict.reason.lower()

    def test_example8_no_dominating_set(self, q1, access_schema):
        """Example 8: without the tagging index no instantiation helps."""
        tagging_constraint = access_schema.for_relation("tagging")[0]
        weakened = access_schema.without(tagging_constraint)
        result = find_dominating_parameters(q1, weakened)
        assert not result.found
        assert not has_dominating_parameters(q1, weakened)
        # The reason comes from step 2's seeded closure: every parameter is
        # covered, but tagging has no index to fetch its occurrence through.
        assert result.reason.splitlines() == [
            "instantiating every candidate parameter still leaves Q1 not effectively bounded:",
            "  parameters of occurrence 't' (tagging) are not indexed in A",
        ]

    def test_step2_failure_lists_uncovered_parameters(self, schema):
        """Parameters no constraint can reach are named, beside the unindexed occurrence."""
        access = AccessSchema([AccessConstraint("friends", ["user_id"], ["friend_id"], 10)])
        query = (
            SPCQueryBuilder(schema)
            .add_atom("friends", alias="f")
            .add_atom("tagging", alias="t")
            .where_eq("f.friend_id", "t.tagger_id")
            .select("t.photo_id")
            .build()
        )
        result = find_dominating_parameters(query, access)
        assert not result.found and result.parameters == frozenset()
        assert result.reason.splitlines() == [
            f"instantiating every candidate parameter still leaves {query.name} "
            "not effectively bounded:",
            "  parameters not deducible from the instantiated constants (X_C):",
            "    t.photo_id",
            "  parameters of occurrence 't' (tagging) are not indexed in A",
        ]

    def test_already_effectively_bounded_query(self, q0, access_schema):
        result = find_dominating_parameters(q0, access_schema)
        assert result.found
        # Nothing needs to be instantiated: Q0 already carries its constants.
        assert result.parameters == frozenset()

    def test_no_ratio_cap_by_default(self, q1, access_schema):
        assert find_dominating_parameters(q1, access_schema).found


class TestExactSolver:
    def test_exact_minimum_is_no_larger_than_heuristic(self, q1, access_schema):
        heuristic = find_dominating_parameters(q1, access_schema)
        exact = find_minimum_dominating_parameters(q1, access_schema)
        assert exact.found
        assert len(exact.parameters) <= len(heuristic.parameters)
        assert makes_effectively_bounded(q1, access_schema, exact.parameters)

    def test_exact_minimum_for_q1_is_two(self, q1, access_schema):
        """Instantiating aid and uid alone already makes Q1 effectively bounded."""
        exact = find_minimum_dominating_parameters(q1, access_schema)
        assert len(exact.parameters) == 2
        pretty = {ref.pretty(q1.atoms) for ref in exact.parameters}
        assert "ia.album_id" in pretty

    def test_exact_respects_alpha(self, q1, access_schema):
        result = find_minimum_dominating_parameters(q1, access_schema, alpha=0.05)
        assert not result.found

    def test_exact_refuses_large_candidate_sets(self, access_schema, schema):
        builder = SPCQueryBuilder(schema)
        for index in range(7):
            builder.add_atom("tagging", alias=f"t{index}")
        query = builder.select("t0.photo_id").build()
        with pytest.raises(ValueError):
            find_minimum_dominating_parameters(query, access_schema, max_parameters=10)

    def test_exact_reports_unachievable(self, q1, access_schema):
        tagging_constraint = access_schema.for_relation("tagging")[0]
        weakened = access_schema.without(tagging_constraint)
        result = find_minimum_dominating_parameters(q1, weakened)
        assert not result.found and "no subset" in result.reason


class TestInteractionWithEBCheck:
    def test_binding_suggested_parameters_yields_eb_query(self, q1, access_schema):
        result = find_dominating_parameters(q1, access_schema)
        # Bind every suggested parameter to the same constant: effective
        # boundedness depends only on which parameters carry a constant, and a
        # shared value keeps Σ_Q-equivalent parameters consistent.
        bound = q1.with_constants({ref: "probe" for ref in result.parameters})
        assert ebcheck(bound, access_schema).effectively_bounded

    def test_dominating_parameters_on_single_relation(self, schema):
        access = AccessSchema([AccessConstraint("friends", ["user_id"], ["friend_id"], 10)])
        query = (
            SPCQueryBuilder(schema)
            .add_atom("friends", alias="f")
            .select("f.friend_id")
            .build()
        )
        result = find_dominating_parameters(query, access)
        assert result.found
        assert {ref.attribute for ref in result.parameters} == {"user_id"}
