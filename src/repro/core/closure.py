"""Access-closure computation (the worklist engine of BCheck / EBCheck).

Both checking algorithms of Section 4 reduce to one computation: starting from
a *seed* set of attribute references (``X_B ∪ X_C`` for boundedness, ``X_C``
for effective boundedness), repeatedly fire actualized access constraints whose
key side is covered — modulo the equality closure ``Σ_Q`` — and add the value
side (and everything ``Σ_Q``-equates with it) to the closure.

The implementation follows Fig. 3 of the paper: a worklist ``B`` of newly added
attributes, a per-constraint counter of still-uncovered key attributes, and a
per-attribute list ``L[A]`` of constraints the attribute can contribute to.
The counters are replaced by explicit "remaining key attributes" sets, which is
equivalent and robust to one attribute of ``B`` covering several key attributes
of the same constraint (all ``Σ_Q``-equivalent); each (constraint, key
attribute) pair is still processed at most once, preserving the
``O(|Q|(|A| + |Q|))`` behaviour of the paper.

``Γ``, ``L[A]`` and the ``Σ_Q`` classes depend only on ``Q`` and ``A``, not on
the seeds, so they live in an :class:`Actualization` that one check builds once
and hands to every closure it runs (BCheck, EBCheck, QPlan and the findDPh
probes).  A class lookup is then one dictionary hit, with no copy of the
class.  Adding an attribute walks its whole ``Σ_Q`` class, and ``L[A]`` lists
a constraint once per member of each key attribute's class, so one closure
costs ``O(|seeds| + Σ_{γ ∈ Γ} Σ_{x ∈ X_γ ∪ Y_γ} |class(x)|)`` set operations
beyond building that context: linear in ``|Γ|`` while classes stay small, and
a factor of up to ``|Q|`` more when one class spans the whole query.

Beyond the yes/no closure, the engine records *provenance* (which constraint
added which attribute, and from which premises) and a per-attribute bound
estimate; QPlan-style consumers use the provenance to rebuild proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..access.schema import AccessSchema
from ..errors import ApiMisuseError
from ..spc.atoms import AttrRef
from ..spc.query import SPCQuery
from .deduction import (
    ACTUALIZATION,
    REFLEXIVITY,
    TRANSITIVITY,
    ActualizedConstraint,
    DeducedFact,
    Proof,
    ProofStep,
    actualize,
)

#: Bound estimates are capped so pathological chains do not overflow into
#: astronomically large integers; the cap is still recognisably "bounded".
BOUND_CAP = 10**18


@dataclass(frozen=True)
class FiredConstraint:
    """Provenance record: one actualized constraint fired during the closure."""

    constraint: ActualizedConstraint
    #: The closure attributes (one per key attribute) that covered the keys.
    covered_by: tuple[AttrRef, ...]
    #: Bound estimate for the values contributed by this firing.
    bound: int


@dataclass
class ClosureResult:
    """The outcome of one access-closure computation."""

    #: Every attribute reference proven bounded from the seeds.
    attributes: frozenset[AttrRef]
    #: Seed references the computation started from.
    seeds: frozenset[AttrRef]
    #: Upper bound on the number of distinct values per attribute (≥ 1).
    bounds: dict[AttrRef, int] = field(default_factory=dict)
    #: For every non-seed attribute, the constraint firing that added it.
    provenance: dict[AttrRef, FiredConstraint] = field(default_factory=dict)
    #: All firings, in the order they happened.
    firings: list[FiredConstraint] = field(default_factory=list)

    def contains(self, refs: Iterable[AttrRef]) -> bool:
        """Whether every reference in ``refs`` is in the closure."""
        return set(refs) <= self.attributes

    def missing(self, refs: Iterable[AttrRef]) -> frozenset[AttrRef]:
        """The references of ``refs`` not covered by the closure."""
        return frozenset(refs) - self.attributes

    def bound_of(self, ref: AttrRef) -> int | None:
        """Bound estimate for one attribute, or ``None`` when not in the closure."""
        return self.bounds.get(ref)

    def proof_of(self, ref: AttrRef) -> Proof:
        """A proof (in the sense of ``I_B``) that the seeds determine ``ref``.

        The proof is reconstructed from provenance: seeds are justified by
        Reflexivity, constraint firings by Actualization followed by
        Transitivity through the covering attributes.
        """
        proof = Proof()
        visited: set[AttrRef] = set()

        def build(target: AttrRef) -> None:
            if target in visited:
                return
            visited.add(target)
            if target in self.seeds or target not in self.provenance:
                proof.add(
                    ProofStep(
                        REFLEXIVITY,
                        DeducedFact(self.seeds, frozenset((target,)), 1),
                        note=f"{target} is a seed",
                    )
                )
                return
            firing = self.provenance[target]
            for premise in firing.covered_by:
                build(premise)
            actualized_fact = firing.constraint.as_fact()
            proof.add(
                ProofStep(
                    ACTUALIZATION,
                    actualized_fact,
                    constraint=firing.constraint,
                    note=str(firing.constraint.constraint),
                )
            )
            proof.add(
                ProofStep(
                    TRANSITIVITY,
                    DeducedFact(self.seeds, frozenset((target,)), firing.bound),
                    premises=(actualized_fact,),
                    note=f"keys covered via {', '.join(str(r) for r in firing.covered_by) or 'constants'}",
                )
            )

        build(ref)
        return proof


class Actualization:
    """``Γ = Actualize(A, Q)`` with its ``L[A]`` index and the ``Σ_Q`` classes.

    Everything a closure over ``Q`` needs that does not depend on the seeds.
    Build one per check and pass it to every closure of that check; it holds
    no state a closure mutates.  It is deliberately not cached on the query
    or in module state: queries are long-lived (plan-cache keys), and the
    serving workers share one engine.
    """

    __slots__ = ("query", "access_schema", "gamma", "classes", "applicable")

    def __init__(self, query: SPCQuery, access_schema: AccessSchema) -> None:
        self.query = query
        self.access_schema = access_schema
        #: ``Γ``: every constraint of ``A`` on every occurrence it constrains.
        self.gamma: tuple[ActualizedConstraint, ...] = tuple(actualize(query, access_schema))
        #: The ``Σ_Q`` class of every attribute the condition mentions; an
        #: attribute missing here is alone in its class.
        self.classes: dict[AttrRef, frozenset[AttrRef]] = {
            member: members for members in query.closure.classes() for member in members
        }
        #: ``L[A]``: positions in ``Γ`` of the constraints whose key side
        #: mentions an attribute ``Σ_Q``-equivalent to ``A``.
        self.applicable: dict[AttrRef, list[int]] = {}
        for position, item in enumerate(self.gamma):
            for key_ref in item.x:
                for member in self.classes.get(key_ref) or (key_ref,):
                    self.applicable.setdefault(member, []).append(position)

    def members(self, ref: AttrRef) -> frozenset[AttrRef]:
        """The ``Σ_Q`` class of ``ref``."""
        members = self.classes.get(ref)
        return members if members is not None else frozenset((ref,))


def actualization(
    query: SPCQuery,
    access_schema: AccessSchema,
    actualized: Actualization | None = None,
) -> Actualization:
    """``actualized`` when given and built for ``query`` under ``access_schema``, else a new one."""
    if actualized is None:
        return Actualization(query, access_schema)
    if actualized.query is not query or actualized.access_schema is not access_schema:
        raise ApiMisuseError(
            "an Actualization serves only the query and access schema it was built for"
        )
    return actualized


def compute_closure(
    query: SPCQuery,
    access_schema: AccessSchema,
    seeds: Iterable[AttrRef],
    actualized: Actualization | None = None,
) -> ClosureResult:
    """Compute the access closure of ``seeds`` under ``A`` for ``Q``.

    This is the engine shared by BCheck (seeds ``X_B ∪ X_C``) and EBCheck
    (seeds ``X_C``); see Fig. 3 of the paper.  Pass the check's shared
    :class:`Actualization` as ``actualized`` to skip rebuilding ``Γ``.
    """
    context = actualization(query, access_schema, actualized)
    gamma = context.gamma
    classes = context.classes

    seed_set = frozenset(seeds)
    closure: set[AttrRef] = set()
    bounds: dict[AttrRef, int] = {}
    provenance: dict[AttrRef, FiredConstraint] = {}
    firings: list[FiredConstraint] = []

    def add_attribute(ref: AttrRef, bound: int, firing: FiredConstraint | None) -> list[AttrRef]:
        """Add ``ref`` and all its Σ_Q-equivalents; return the genuinely new ones."""
        added: list[AttrRef] = []
        for member in classes.get(ref) or (ref,):
            if member not in closure:
                closure.add(member)
                bounds[member] = min(bound, BOUND_CAP)
                if firing is not None:
                    provenance[member] = firing
                added.append(member)
            elif bound < bounds.get(member, BOUND_CAP):
                bounds[member] = bound
        return added

    # Seeds and their Σ_Q-equivalents enter the closure with bound 1
    # (Reflexivity: given a value of the seed set, each seed attribute has
    # exactly one value per assignment).
    worklist: list[AttrRef] = []
    for seed in seed_set:
        worklist.extend(add_attribute(seed, 1, None))

    # Per-constraint bookkeeping: which key attributes are still uncovered,
    # and which closure attribute covered each key attribute (for provenance).
    remaining: list[set[AttrRef]] = [set(item.x) for item in gamma]
    covered_by: list[dict[AttrRef, AttrRef]] = [dict() for _ in gamma]
    fired = [False] * len(gamma)

    def fire(position: int) -> None:
        item = gamma[position]
        fired[position] = True
        cover = tuple(covered_by[position].get(key_ref, key_ref) for key_ref in sorted(item.x))
        key_bound = 1
        for key_ref in item.x:
            key_bound = min(BOUND_CAP, key_bound * bounds.get(key_ref, 1))
        value_bound = min(BOUND_CAP, key_bound * item.bound)
        firing = FiredConstraint(constraint=item, covered_by=cover, bound=value_bound)
        firings.append(firing)
        for value_ref in item.y:
            worklist.extend(add_attribute(value_ref, value_bound, firing))

    # Constraints with no key attributes fire unconditionally.
    for position, item in enumerate(gamma):
        if not item.x and not fired[position]:
            fire(position)

    applicable = context.applicable
    while worklist:
        attribute = worklist.pop()
        equivalents = classes.get(attribute) or (attribute,)
        for position in applicable.get(attribute, ()):
            if fired[position]:
                continue
            still_needed = remaining[position]
            newly_covered = [key_ref for key_ref in still_needed if key_ref in equivalents]
            for key_ref in newly_covered:
                still_needed.discard(key_ref)
                covered_by[position][key_ref] = attribute
            if not still_needed:
                fire(position)

    return ClosureResult(
        attributes=frozenset(closure),
        seeds=seed_set,
        bounds=bounds,
        provenance=provenance,
        firings=firings,
    )


def is_indexed(
    query: SPCQuery,
    access_schema: AccessSchema,
    refs: Iterable[AttrRef],
) -> bool:
    """Whether a per-occurrence set of references is *indexed in A* (Section 3.2).

    ``refs`` must all belong to one occurrence ``S_i``; the set ``Y_R`` of their
    attribute names is indexed when there exists ``X_R ⊆ Y_R`` with a constraint
    ``X_R -> (W, N)`` in ``A`` on the occurrence's relation and
    ``Y_R ⊆ X_R ∪ W``.  An empty ``refs`` is vacuously indexed here; the
    per-occurrence policy for occurrences that contribute no parameters at all
    lives in :func:`indexed_per_atom`, which requires an empty-key constraint
    (there is no way to fetch witnesses we cannot address through any index).
    """
    refs = list(refs)
    if not refs:
        return True
    atoms = {ref.atom for ref in refs}
    if len(atoms) != 1:
        raise ApiMisuseError("is_indexed expects references from a single occurrence")
    atom_index = atoms.pop()
    relation = query.atoms[atom_index].relation_name
    names = {ref.attribute for ref in refs}
    for constraint in access_schema.for_relation(relation):
        if constraint.x_set <= names and names <= constraint.covered:
            return True
    return False


def indexed_per_atom(
    query: SPCQuery,
    access_schema: AccessSchema,
    refs: Iterable[AttrRef],
) -> dict[int, bool]:
    """Split ``refs`` by occurrence and report which occurrences are indexed.

    This implements the query-level "Y is indexed in A" notion of Section 3.2:
    ``Y = (Y_1, ..., Y_n)`` is indexed when each per-occurrence ``Y_i`` is.
    Occurrences with no references are reported with the verdict of the empty
    set, i.e. indexed only when the relation carries an empty-key constraint.
    """
    by_atom: dict[int, list[AttrRef]] = {index: [] for index in range(query.num_atoms)}
    for ref in refs:
        by_atom[ref.atom].append(ref)
    result: dict[int, bool] = {}
    for atom_index, atom_refs in by_atom.items():
        if atom_refs:
            result[atom_index] = is_indexed(query, access_schema, atom_refs)
        else:
            relation = query.atoms[atom_index].relation_name
            result[atom_index] = any(
                not constraint.x for constraint in access_schema.for_relation(relation)
            )
    return result
