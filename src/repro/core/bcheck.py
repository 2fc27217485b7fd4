"""BCheck: deciding boundedness of an SPC query under an access schema.

Implements Theorem 3 / Fig. 3 of the paper: ``Q(Z)`` is bounded under ``A``
iff every parameter in ``X_B ∪ Z`` is in the access closure of ``X_B ∪ X_C``.
The closure engine lives in :mod:`repro.core.closure`; this module adds the
seed selection, the final containment check and a structured, explainable
result object.

Complexity: ``O(|Q|(|A| + |Q|))`` (Theorem 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..access.schema import AccessSchema
from ..spc.atoms import AttrRef
from ..spc.query import SPCQuery
from .closure import Actualization, ClosureResult, compute_closure
from .deduction import Proof


@dataclass
class BoundednessResult:
    """Verdict of BCheck, with enough detail to explain and to reuse.

    Attributes
    ----------
    bounded:
        Whether ``Q`` is bounded under ``A``.
    closure:
        The access closure ``(X_B ∪ X_C)^*`` computed by the algorithm.
    required:
        The parameters that must be covered (``X_B ∪ Z``).
    missing:
        Required parameters not covered; empty iff ``bounded``.
    """

    bounded: bool
    closure: ClosureResult
    required: frozenset[AttrRef]
    missing: frozenset[AttrRef]
    query: SPCQuery
    access_schema: AccessSchema

    def __bool__(self) -> bool:
        return self.bounded

    def proof_of(self, ref: AttrRef) -> Proof:
        """An ``I_B`` proof that the seeds determine ``ref`` (for covered refs)."""
        return self.closure.proof_of(ref)

    def explain(self) -> str:
        """A human-readable explanation of the verdict."""
        atoms = self.query.atoms
        if self.bounded:
            lines = [
                f"{self.query.name} is BOUNDED under the access schema "
                f"({self.access_schema.cardinality} constraints)."
            ]
            for ref in sorted(self.required):
                bound = self.closure.bound_of(ref)
                lines.append(f"  {ref.pretty(atoms)}: bounded by {bound}")
        else:
            lines = [
                f"{self.query.name} is NOT bounded under the access schema: the "
                f"following parameters cannot be bounded from X_B ∪ X_C:"
            ]
            lines.extend(f"  {ref.pretty(atoms)}" for ref in sorted(self.missing))
        return "\n".join(lines)


def bcheck(
    query: SPCQuery,
    access_schema: AccessSchema,
    actualized: Actualization | None = None,
) -> BoundednessResult:
    """Decide whether ``query`` is bounded under ``access_schema`` (Theorem 3).

    The query must be satisfiable; an unsatisfiable query raises
    :class:`~repro.errors.UnsatisfiableQueryError` (the paper assumes
    satisfiability w.l.o.g. — an unsatisfiable query is trivially bounded by
    the empty set, but reporting it as such would mask a query-authoring bug).
    ``actualized`` is the check's shared
    :class:`~repro.core.closure.Actualization`; one is built when omitted.
    """
    query.closure.require_satisfiable()
    seeds = query.condition_only_refs | query.constant_refs
    closure = compute_closure(query, access_schema, seeds, actualized)
    required = query.condition_only_refs | frozenset(query.output)
    missing = closure.missing(required)
    return BoundednessResult(
        bounded=not missing,
        closure=closure,
        required=required,
        missing=missing,
        query=query,
        access_schema=access_schema,
    )


def is_bounded(query: SPCQuery, access_schema: AccessSchema) -> bool:
    """Convenience wrapper returning just the Boolean verdict of :func:`bcheck`."""
    return bcheck(query, access_schema).bounded
