"""Dominating parameters (Section 4.3).

When a query is not effectively bounded, the paper asks whether instantiating
a small set ``X_P`` of its parameters (at most a fraction ``α`` of them) makes
it effectively bounded — and if so, for a minimum such set.  The decision
problem ``DP`` is NP-complete and the optimization problem ``MDP`` is
NPO-complete (Theorem 7), so the paper ships the heuristic ``findDPh``.

This module provides:

* :func:`find_dominating_parameters` — the three-step ``findDPh`` heuristic,
* :func:`find_minimum_dominating_parameters` — an exact (exponential-time)
  solver for small queries, used by tests and the ablation benchmark to
  quantify the heuristic's optimality gap,
* :func:`has_dominating_parameters` — the DP decision problem, answered by the
  heuristic with an exact fallback for small inputs.

Two conventions follow Example 9 of the paper rather than the terse problem
statement:

* *Candidate parameters.*  The paper treats ``Q_1`` as a template whose
  parameters include attributes (``aid``, ``uid``) that carry no condition in
  the query body; instantiating them *adds* a ``attr = constant`` conjunct.
  Accordingly, the candidate set here is every attribute of every occurrence
  that is not yet equated with a constant — not merely the attributes already
  appearing in ``C`` or ``Z``.
* *The α-ratio.*  The paper bounds ``|X_P| / |X_B| ≤ α``; Example 9 computes
  the ratio against all seven uninstantiated attributes of ``Q_1``, so the
  denominator used here is the number of candidate parameters, which
  reproduces the example's arithmetic (3/7) exactly.

Every "would instantiating ``X_P`` make ``Q`` effectively bounded?" question
is a *seeded probe*: the EBCheck closure under ``Q``'s own ``Σ_Q``, seeded with
``X_C ∪ X_P`` (and so with the ``Σ_Q`` classes of both), must cover
``X_Q ∪ X_P``.  That is the verdict of EBCheck on ``Q(X_P = ā)`` for any
constants ``ā`` that keep the query satisfiable, but no instantiated query is
built, and the classes of ``X_P`` stay apart instead of merging into one large
class that every constraint firing would walk.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from ..access.schema import AccessSchema
from ..errors import ApiMisuseError
from ..spc.atoms import AttrRef
from ..spc.query import SPCQuery
from .closure import Actualization, actualization
from .ebcheck import EffectiveBoundednessResult, ebcheck, effective_verdict


@dataclass
class DominatingParametersResult:
    """Outcome of a dominating-parameter search."""

    found: bool
    parameters: frozenset[AttrRef]
    #: Ratio ``|X_P| / |uninstantiated parameters|`` (None when not found).
    ratio: float | None
    #: Why the search failed, when it did.
    reason: str = ""

    def __bool__(self) -> bool:
        return self.found


def _candidate_refs(query: SPCQuery) -> frozenset[AttrRef]:
    """Candidate parameters for ``X_P``: occurrence attributes not yet instantiated."""
    return query.all_refs() - query.constant_refs


def _probe(
    query: SPCQuery,
    access_schema: AccessSchema,
    refs: Iterable[AttrRef],
    context: Actualization,
) -> EffectiveBoundednessResult:
    """EBCheck's verdict on ``Q(X_P = ā)`` for ``X_P = refs``, without building it.

    Instantiating ``X_P`` makes every ``Σ_Q`` class of ``X_P`` constant and
    adds ``X_P`` to the parameters, and nothing else: effective boundedness
    depends only on which parameters carry a constant, never on the values.
    So the closure runs under ``Q``'s own ``Σ_Q``, seeded with ``X_C ∪ X_P``
    (a seed brings its whole class in at bound 1), and must cover
    ``X_Q ∪ X_P``.
    """
    refs = frozenset(refs)
    return effective_verdict(
        query, access_schema, query.constant_refs | refs, query.parameters | refs, context
    )


def makes_effectively_bounded(
    query: SPCQuery, access_schema: AccessSchema, refs: Iterable[AttrRef]
) -> bool:
    """Whether instantiating ``refs`` makes ``query`` effectively bounded under ``A``."""
    query.closure.require_satisfiable()
    context = Actualization(query, access_schema)
    return _probe(query, access_schema, refs, context).effectively_bounded


def find_dominating_parameters(
    query: SPCQuery,
    access_schema: AccessSchema,
    alpha: float | None = None,
    *,
    verdict: EffectiveBoundednessResult | None = None,
    actualized: Actualization | None = None,
) -> DominatingParametersResult:
    """The ``findDPh`` heuristic (Section 4.3).

    Parameters
    ----------
    query, access_schema:
        The inputs of the DP problem.
    alpha:
        The fraction ``α ∈ (0, 1)`` limiting ``|X_P|`` relative to the number
        of uninstantiated parameters.  ``None`` disables the ratio check.
    verdict:
        ``query``'s EBCheck verdict, when the caller already has it.
    actualized:
        The caller's :class:`~repro.core.closure.Actualization` of ``query``
        under ``access_schema``; one is built when omitted.

    Cost: step 2 and the final check each cost one EBCheck closure over the
    shared ``Γ`` under ``Q``'s own ``Σ_Q``, and step 1 is ``O(|Q| · |A|)``,
    all within the paper's ``O(|Q|(|A| + |Q|))``.  Step 3 repeats its pass
    over ``X_P`` until nothing more can be dropped; a pass costs
    ``O(|X_P| · |A|)`` class lookups and every pass but the last drops at
    least one class, so its worst case is ``O(|X_P|² · |A|)``, above the
    paper's bound by a factor of ``|X_P|``.
    """
    query.closure.require_satisfiable()
    context = actualization(query, access_schema, actualized)
    candidates = _candidate_refs(query)
    denominator = max(1, len(candidates))

    # A query that is already effectively bounded needs no instantiation: the
    # empty set is trivially a minimum dominating-parameter set.
    if verdict is None:
        verdict = ebcheck(query, access_schema, context)
    elif verdict.query is not query:
        raise ApiMisuseError("verdict is an EBCheck result for a different query")
    if verdict.effectively_bounded:
        return DominatingParametersResult(found=True, parameters=frozenset(), ratio=0.0)

    # Step 1 (initial candidates): attributes not yet instantiated that appear
    # in the key or value side of some access constraint on their relation.
    initial: set[AttrRef] = set()
    for ref in candidates:
        relation = query.atoms[ref.atom].relation_name
        for constraint in access_schema.for_relation(relation):
            if ref.attribute in constraint.covered:
                initial.add(ref)
                break

    # Step 2 (checking): every occurrence's parameters must be indexed and
    # covered by the candidate set together with the already-instantiated
    # parameters; otherwise no dominating set exists at all (Example 8).
    probe = _probe(query, access_schema, initial, context)
    if not probe.effectively_bounded:
        return DominatingParametersResult(
            found=False,
            parameters=frozenset(),
            ratio=None,
            reason="\n".join([
                f"instantiating every candidate parameter still leaves {query.name} "
                f"not effectively bounded:",
                *probe.diagnostics(),
            ]),
        )

    # Step 3 (minimizing): drop parameters that can be recovered through a
    # constraint whose key side is still covered by the remaining candidates
    # (or by constants), removing the whole Σ_Q-equivalence class at once.
    # As in the paper, removability is a purely rule-based check (no repeated
    # EBCheck calls).  ``support`` counts, per Σ_Q class, the covered
    # references in it, so "some covered reference other than ``ref`` is
    # equivalent to this key" is one lookup.
    members = context.members
    current: set[AttrRef] = set(initial)
    support = Counter(members(ref) for ref in current)
    support.update(members(ref) for ref in query.constant_refs)
    changed = True
    while changed:
        changed = False
        for ref in sorted(current):
            if ref not in current:
                continue
            own_class = members(ref)
            relation = query.atoms[ref.atom].relation_name
            removable = False
            for constraint in access_schema.for_relation(relation):
                if ref.attribute in constraint.x_set:
                    continue
                if ref.attribute not in constraint.y_set:
                    continue
                if all(
                    support[key_class] > (key_class == own_class)
                    for key_class in (members(AttrRef(ref.atom, a)) for a in constraint.x)
                ):
                    removable = True
                    break
            if not removable:
                continue
            equivalence_class = current & own_class
            if len(equivalence_class) < len(current):
                current -= equivalence_class
                support[own_class] -= len(equivalence_class)
                changed = True

    # Final safety net: the rule-based minimization should preserve effective
    # boundedness; if an edge case slips through, fall back to the validated
    # (larger) candidate set from step 2.
    if not _probe(query, access_schema, current, context).effectively_bounded:
        current = set(initial)

    ratio = len(current) / denominator
    if alpha is not None and ratio > alpha:
        return DominatingParametersResult(
            found=False,
            parameters=frozenset(current),
            ratio=ratio,
            reason=f"smallest set found has ratio {ratio:.3f} > α = {alpha:.3f}",
        )
    return DominatingParametersResult(found=True, parameters=frozenset(current), ratio=ratio)


def find_minimum_dominating_parameters(
    query: SPCQuery,
    access_schema: AccessSchema,
    alpha: float | None = None,
    max_parameters: int = 16,
) -> DominatingParametersResult:
    """Exact minimum dominating-parameter set by exhaustive search.

    Exponential in the number of uninstantiated parameters (MDP is
    NPO-complete); refuses inputs with more than ``max_parameters`` candidates.
    Intended for tests and the heuristic-vs-exact ablation.
    """
    query.closure.require_satisfiable()
    candidates = sorted(_candidate_refs(query))
    if len(candidates) > max_parameters:
        raise ApiMisuseError(
            f"exact search limited to {max_parameters} candidate parameters, "
            f"query has {len(candidates)}"
        )
    denominator = max(1, len(candidates))
    context = Actualization(query, access_schema)
    for size in range(0, len(candidates) + 1):
        for subset in combinations(candidates, size):
            if _probe(query, access_schema, subset, context).effectively_bounded:
                ratio = size / denominator
                if alpha is not None and ratio > alpha:
                    return DominatingParametersResult(
                        found=False,
                        parameters=frozenset(subset),
                        ratio=ratio,
                        reason=f"minimum set has ratio {ratio:.3f} > α = {alpha:.3f}",
                    )
                return DominatingParametersResult(
                    found=True, parameters=frozenset(subset), ratio=ratio
                )
    return DominatingParametersResult(
        found=False,
        parameters=frozenset(),
        ratio=None,
        reason="no subset of parameters makes the query effectively bounded",
    )


def has_dominating_parameters(
    query: SPCQuery,
    access_schema: AccessSchema,
    alpha: float | None = None,
) -> bool:
    """The DP decision problem, answered heuristically (sound but incomplete).

    A ``True`` answer is always correct; a ``False`` answer may be a heuristic
    miss when an ``α`` constraint is supplied (the heuristic may find a larger
    set than necessary).  Use :func:`find_minimum_dominating_parameters` for an
    exact answer on small queries.
    """
    return find_dominating_parameters(query, access_schema, alpha).found
