"""QPlan: generating bounded query plans for effectively bounded queries.

Section 5.1 of the paper turns ``I_E`` proofs of ``X_C ↦ (X_Q^i, M_i)`` into a
query plan: a list of bounded fetches ``T_1, ..., T_m`` whose union is the
bounded subset ``D_Q``, followed by joins and projections over those fetches
only.  This module implements the planner as a provenance-aware saturation:

1. *Saturate.*  Starting from the constant-equated parameters ``X_C``, plan a
   fetch step for every actualized access constraint whose key attributes can
   be supplied — from constants or from columns of already-planned steps,
   following ``Σ_Q`` equalities.  This mirrors QPlan's worklist over
   ``X_C^{min+}`` (Fig. 4): each planned step corresponds to an object whose
   proof is "Reflexivity / Transitivity into the keys, then Actualization,
   then Augmentation to keep the keys alongside the fetched values".
2. *Cover.*  For each occurrence ``S_i``, pick the cheapest planned step whose
   outputs contain all of ``S_i``'s parameters ``X_Q^i`` (Theorem 4 guarantees
   one exists when the query is effectively bounded).  Occurrences that
   contribute no parameters need an empty-key constraint, since only a
   full-domain fetch can witness their non-emptiness within a bound.
3. *Prune.*  Keep only steps transitively needed by the covering steps and
   re-number them.

The resulting plan's access bound is the sum over steps of
``N · Π (bounds of the key-value sources)`` — for the paper's Example 1 this
reproduces the 7 000-tuple bound.
"""

from __future__ import annotations

from ..access.schema import AccessSchema
from ..core.closure import Actualization, actualization
from ..core.deduction import ActualizedConstraint
from ..core.ebcheck import ebcheck
from ..errors import NotEffectivelyBoundedError, PlanningError
from ..spc.atoms import AttrRef
from ..spc.parameters import ParameterizedQuery, ParamToken
from ..spc.query import SPCQuery
from .plan import (
    AtomProof,
    BoundedPlan,
    ColumnSource,
    ConstSource,
    FetchStep,
    ParamSource,
    PreparedPlan,
    ValueSource,
)

#: Cap on bound estimates, mirroring :data:`repro.core.closure.BOUND_CAP`.
_BOUND_CAP = 10**18


def _step_bound(constraint_bound: int, key_sources: dict[str, ValueSource], steps: list[FetchStep]) -> int:
    """Bound on rows fetched: N times the number of candidate key combinations.

    Key attributes drawn from the same earlier step vary jointly, so each
    distinct source step contributes its bound once; constants contribute 1.
    """
    bound = constraint_bound
    seen_steps: set[int] = set()
    for source in key_sources.values():
        if isinstance(source, ColumnSource) and source.step not in seen_steps:
            seen_steps.add(source.step)
            bound = min(_BOUND_CAP, bound * steps[source.step].bound)
    return bound


def qplan(
    query: SPCQuery,
    access_schema: AccessSchema,
    check: bool = True,
    actualized: Actualization | None = None,
) -> BoundedPlan:
    """Generate a bounded plan for ``query`` under ``access_schema``.

    ``check=False`` skips EBCheck, for a caller that already holds a positive
    verdict; ``actualized`` is that caller's
    :class:`~repro.core.closure.Actualization` of ``query`` (one is built when
    omitted), shared by the check and the saturation below.

    Raises
    ------
    NotEffectivelyBoundedError
        When ``check`` is true and EBCheck rejects the query.
    PlanningError
        When no covering step can be found for some occurrence despite the
        query passing EBCheck (indicates an internal inconsistency).
    """
    context = actualization(query, access_schema, actualized)
    if check:
        verdict = ebcheck(query, access_schema, context)
        if not verdict.effectively_bounded:
            raise NotEffectivelyBoundedError(verdict.explain())
    else:
        query.closure.require_satisfiable()

    closure_eq = query.closure

    steps: list[FetchStep] = []
    #: Best (lowest-bound) source for every attribute reference whose values
    #: the plan can already enumerate.
    sources: dict[AttrRef, ValueSource] = {}
    source_bounds: dict[AttrRef, int] = {}

    for ref in query.constant_refs:
        sources[ref] = ConstSource(closure_eq.constant_of(ref))
        source_bounds[ref] = 1

    def find_source(key_ref: AttrRef) -> ValueSource | None:
        """A source for ``key_ref``: itself, or any Σ_Q-equivalent available reference."""
        if key_ref in sources:
            return sources[key_ref]
        for candidate, source in sources.items():
            if closure_eq.entails_eq(key_ref, candidate):
                return source
        return None

    # -- step 1: saturation -----------------------------------------------------------
    pending: list[ActualizedConstraint] = list(context.gamma)
    progress = True
    while progress:
        progress = False
        still_pending: list[ActualizedConstraint] = []
        for item in pending:
            key_refs = {AttrRef(item.atom, a) for a in item.constraint.x}
            bindings: dict[str, ValueSource] = {}
            feasible = True
            for key_ref in sorted(key_refs):
                source = find_source(key_ref)
                if source is None:
                    feasible = False
                    break
                bindings[key_ref.attribute] = source
            if not feasible:
                still_pending.append(item)
                continue
            outputs = tuple(
                AttrRef(item.atom, attribute) for attribute in item.constraint.fetch_attributes
            )
            step = FetchStep(
                index=len(steps),
                atom=item.atom,
                constraint=item.constraint,
                key_sources=bindings,
                outputs=outputs,
                bound=_step_bound(item.constraint.bound, bindings, steps),
            )
            steps.append(step)
            for ref in outputs:
                if ref not in sources or step.bound < source_bounds.get(ref, _BOUND_CAP):
                    sources[ref] = ColumnSource(step.index, ref)
                    source_bounds[ref] = step.bound
            progress = True
        pending = still_pending

    # -- step 2: choose covering steps ---------------------------------------------------
    covering: dict[int, int] = {}
    proofs: dict[int, AtomProof] = {}
    for atom_index in range(query.num_atoms):
        needed = query.atom_parameters(atom_index)
        candidates = []
        for step in steps:
            if step.atom != atom_index:
                continue
            if needed and not needed <= set(step.outputs):
                continue
            if not needed and step.constraint.x:
                # A parameter-less occurrence only needs a non-emptiness
                # witness; fetching by a specific key value could miss it.
                continue
            candidates.append(step)
        if not candidates:
            raise PlanningError(
                f"no covering fetch step for occurrence {query.atoms[atom_index].alias!r}; "
                f"the access schema changed between checking and planning?"
            )
        best = min(candidates, key=lambda s: (s.bound, s.index))
        covering[atom_index] = best.index

    # -- step 3: prune unreachable steps and re-number -----------------------------------
    needed_steps: set[int] = set()

    def mark(step_index: int) -> None:
        if step_index in needed_steps:
            return
        needed_steps.add(step_index)
        for dependency in steps[step_index].depends_on:
            mark(dependency)

    for step_index in covering.values():
        mark(step_index)

    kept = sorted(needed_steps)
    renumber = {old: new for new, old in enumerate(kept)}
    pruned: list[FetchStep] = []
    for old_index in kept:
        original = steps[old_index]
        new_sources: dict[str, ValueSource] = {}
        for attribute, source in original.key_sources.items():
            if isinstance(source, ColumnSource):
                new_sources[attribute] = ColumnSource(renumber[source.step], source.column)
            else:
                new_sources[attribute] = source
        pruned.append(
            FetchStep(
                index=renumber[old_index],
                atom=original.atom,
                constraint=original.constraint,
                key_sources=new_sources,
                outputs=original.outputs,
                bound=original.bound,
            )
        )
    new_covering = {atom: renumber[step_index] for atom, step_index in covering.items()}

    for atom_index, step_index in new_covering.items():
        used = {step_index}
        frontier = [step_index]
        while frontier:
            current = frontier.pop()
            for dependency in pruned[current].depends_on:
                if dependency not in used:
                    used.add(dependency)
                    frontier.append(dependency)
        proofs[atom_index] = AtomProof(
            atom=atom_index,
            covered=query.atom_parameters(atom_index),
            steps=tuple(sorted(used)),
            bound=pruned[step_index].bound,
        )

    return BoundedPlan(
        query=query,
        access_schema=access_schema,
        steps=pruned,
        covering=new_covering,
        proofs=proofs,
    )


def prepare_plan(
    template: ParameterizedQuery,
    access_schema: AccessSchema,
    check: bool = True,
) -> PreparedPlan:
    """Compile a :class:`ParameterizedQuery` template into a reusable plan.

    The template is planned once with its parameters bound to symbolic
    :class:`~repro.spc.parameters.ParamToken` constants; BCheck/EBCheck/QPlan
    consult only *which* references are constant-equated, never the values, so
    the resulting plan is structurally identical to the plan of any concrete
    binding.  Every fetch-step key fed by a token is then rewritten into a
    named :class:`ParamSource` slot, making the plan executable against any
    request values without re-planning.

    Raises
    ------
    NotEffectivelyBoundedError
        When ``check`` is true and the template (with all declared parameters
        instantiated) is not effectively bounded under ``access_schema``.
    """
    symbolic, tokens = template.bind_symbolic()
    plan = qplan(symbolic, access_schema, check=check)

    def desymbolize(source: ValueSource) -> ValueSource:
        if isinstance(source, ConstSource) and isinstance(source.value, ParamToken):
            return ParamSource(source.value.name)
        return source

    slotted_steps = [
        FetchStep(
            index=step.index,
            atom=step.atom,
            constraint=step.constraint,
            key_sources={
                attribute: desymbolize(source)
                for attribute, source in step.key_sources.items()
            },
            outputs=step.outputs,
            bound=step.bound,
        )
        for step in plan.steps
    ]
    slotted = BoundedPlan(
        query=plan.query,
        access_schema=plan.access_schema,
        steps=slotted_steps,
        covering=plan.covering,
        proofs=plan.proofs,
    )
    return PreparedPlan(
        template=template,
        plan=slotted,
        tokens=tokens,
        slot_members=template.slot_groups(),
    )


def plan_access_bound(query: SPCQuery, access_schema: AccessSchema) -> int:
    """The access bound of the default plan for ``query`` (raises when not EB)."""
    return qplan(query, access_schema).total_bound
