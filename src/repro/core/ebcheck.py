"""EBCheck: deciding effective boundedness (Theorem 4 / Section 4.2).

``Q(Z)`` is effectively bounded under ``A`` iff, writing ``X_Q^i`` for the
parameters of occurrence ``S_i`` and ``X_C`` for the constant-equated
parameters,

1. every ``X_Q^i`` is contained in the access closure ``X_C^*`` (computed with
   the same engine as BCheck but seeded with ``X_C`` only), and
2. every ``X_Q^i`` is *indexed in A* — there is a constraint
   ``X_R -> (W, N)`` on ``S_i``'s relation with ``X_R ⊆ X_Q^i ⊆ X_R ∪ W``.

Condition (1) of Theorem 4 (``X_C^i ⊆ W`` for some ``W ∈ X^A``) is implied by
the indexing check, as the paper notes in Section 4.2.

Complexity: ``O(|Q|(|A| + |Q|))`` (Theorem 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..access.schema import AccessSchema
from ..spc.atoms import AttrRef
from ..spc.query import SPCQuery
from .closure import Actualization, ClosureResult, compute_closure, indexed_per_atom


@dataclass
class EffectiveBoundednessResult:
    """Verdict of EBCheck, with per-occurrence diagnostics."""

    effectively_bounded: bool
    closure: ClosureResult
    #: Parameters (across all occurrences) not covered by ``X_C^*``.
    uncovered: frozenset[AttrRef]
    #: Occurrence indexes whose parameter set ``X_Q^i`` is not indexed in ``A``.
    unindexed_atoms: tuple[int, ...]
    query: SPCQuery
    access_schema: AccessSchema

    def __bool__(self) -> bool:
        return self.effectively_bounded

    def explain(self) -> str:
        """A human-readable explanation of the verdict."""
        if self.effectively_bounded:
            return (
                f"{self.query.name} is EFFECTIVELY BOUNDED under the access schema "
                f"({self.access_schema.cardinality} constraints)."
            )
        return "\n".join([f"{self.query.name} is NOT effectively bounded:", *self.diagnostics()])

    def diagnostics(self) -> list[str]:
        """One indented line per uncovered parameter and per unindexed occurrence."""
        atoms = self.query.atoms
        lines = []
        if self.uncovered:
            lines.append("  parameters not deducible from the instantiated constants (X_C):")
            lines.extend(f"    {ref.pretty(atoms)}" for ref in sorted(self.uncovered))
        for atom_index in self.unindexed_atoms:
            alias = atoms[atom_index].alias
            relation = atoms[atom_index].relation_name
            lines.append(
                f"  parameters of occurrence {alias!r} ({relation}) are not indexed in A"
            )
        return lines


def ebcheck(
    query: SPCQuery,
    access_schema: AccessSchema,
    actualized: Actualization | None = None,
) -> EffectiveBoundednessResult:
    """Decide whether ``query`` is effectively bounded under ``access_schema``.

    ``actualized`` is the check's shared :class:`~repro.core.closure.Actualization`
    of ``query`` under ``access_schema``; one is built when it is omitted.
    """
    query.closure.require_satisfiable()
    return effective_verdict(
        query, access_schema, query.constant_refs, query.parameters, actualized
    )


def effective_verdict(
    query: SPCQuery,
    access_schema: AccessSchema,
    seeds: Iterable[AttrRef],
    parameters: Iterable[AttrRef],
    actualized: Actualization | None = None,
) -> EffectiveBoundednessResult:
    """Theorem 4's two conditions for an explicit seed set and parameter set.

    :func:`ebcheck` passes ``X_C`` and ``X_Q``.  findDPh's probes pass
    ``X_C ∪ X_P`` and ``X_Q ∪ X_P`` for a candidate set ``X_P``: the seeds
    and the parameters the instantiated query ``Q(X_P = ā)`` would have, up
    to ``Σ_Q`` classes, which the closure adds itself.
    """
    closure = compute_closure(query, access_schema, seeds, actualized)
    required = frozenset(parameters)
    uncovered = closure.missing(required)
    indexed = indexed_per_atom(query, access_schema, required)
    unindexed = tuple(sorted(index for index, ok in indexed.items() if not ok))
    return EffectiveBoundednessResult(
        effectively_bounded=not uncovered and not unindexed,
        closure=closure,
        uncovered=uncovered,
        unindexed_atoms=unindexed,
        query=query,
        access_schema=access_schema,
    )


def is_effectively_bounded(query: SPCQuery, access_schema: AccessSchema) -> bool:
    """Convenience wrapper returning just the Boolean verdict of :func:`ebcheck`."""
    return ebcheck(query, access_schema).effectively_bounded
