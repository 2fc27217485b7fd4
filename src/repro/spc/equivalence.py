"""The equality closure ``Σ_Q`` of an SPC query's selection condition.

``Σ_Q`` is "the set of all equality atoms ... derived from the selection
condition ``C`` of ``Q`` by the transitivity of equality" (Section 3.1).  It
is the oracle every rule system in the paper consults (``Σ_Q ⊢ x = y``), and
it determines

* ``X_C`` — attribute references equated (transitively) with a constant,
* ``X_B`` — references that participate only in condition checking, i.e. are
  not equivalent to any output attribute (and not already constant),
* satisfiability — ``Σ_Q`` must not equate two distinct constants.

The implementation is a union–find over attribute references and constants
that additionally maintains, per equivalence class, its member references and
its constant (if any).  With union by rank and path compression,
``entails_eq``, ``constant_of`` and ``has_constant`` take amortized
``O(α(n))`` time, effectively constant.  ``equivalent_refs`` copies the
class into a new frozenset on every call, so it costs ``O(|class|)``;
``classes`` costs ``O(n)`` for ``n`` mentioned references.  The checking
algorithms therefore call ``classes`` once per check (see
:class:`~repro.core.closure.Actualization`) and look classes up in the
result, instead of calling ``equivalent_refs`` per attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from ..errors import QueryError, UnsatisfiableQueryError
from .atoms import AttrEq, AttrRef, ConstEq, EqualityAtom


@dataclass(frozen=True)
class _ConstNode:
    """Union–find node wrapping a constant value (kept distinct from AttrRefs)."""

    value: Any

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"const({self.value!r})"


class _MissingType:
    """Sentinel distinguishing "no constant" from a constant that is ``None``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<no constant>"


MISSING = _MissingType()


class EqualityClosure:
    """Union–find closure of the equality atoms of a selection condition."""

    def __init__(self, conditions: Iterable[EqualityAtom] = ()) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._rank: dict[Hashable, int] = {}
        #: root -> attribute references in the class
        self._members: dict[Hashable, set[AttrRef]] = {}
        #: root -> the constant the class is pinned to (if any)
        self._constants: dict[Hashable, Any] = {}
        self._conflict: tuple[Any, Any] | None = None
        for atom in conditions:
            self.add(atom)

    # -- union-find machinery -------------------------------------------------------

    def _ensure(self, node: Hashable) -> Hashable:
        if node not in self._parent:
            self._parent[node] = node
            self._rank[node] = 0
            if isinstance(node, AttrRef):
                self._members[node] = {node}
            else:
                self._constants[node] = node.value
        return node

    def _find(self, node: Hashable) -> Hashable:
        parent = self._parent
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def _union(self, a: Hashable, b: Hashable) -> None:
        self._ensure(a)
        self._ensure(b)
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        # Merge per-class bookkeeping into the surviving root.
        members_b = self._members.pop(rb, set())
        if members_b:
            self._members.setdefault(ra, set()).update(members_b)
        if rb in self._constants:
            constant_b = self._constants.pop(rb)
            if ra in self._constants:
                if self._constants[ra] != constant_b and self._conflict is None:
                    self._conflict = (self._constants[ra], constant_b)
            else:
                self._constants[ra] = constant_b

    # -- building the closure ---------------------------------------------------------

    def add(self, atom: EqualityAtom) -> None:
        """Incorporate one equality atom into the closure."""
        if isinstance(atom, AttrEq):
            self._union(atom.left, atom.right)
        elif isinstance(atom, ConstEq):
            self._union(atom.ref, _ConstNode(atom.value))
        else:  # pragma: no cover - defensive
            raise QueryError(f"unknown equality atom type: {type(atom).__name__}")

    # -- queries -----------------------------------------------------------------------

    @property
    def is_satisfiable(self) -> bool:
        """Whether no equivalence class contains two distinct constants."""
        return self._conflict is None

    def conflict(self) -> tuple[Any, Any] | None:
        """The pair of clashing constants, when the condition is unsatisfiable."""
        return self._conflict

    def require_satisfiable(self) -> None:
        """Raise :class:`UnsatisfiableQueryError` when the condition is unsatisfiable."""
        if self._conflict is not None:
            a, b = self._conflict
            raise UnsatisfiableQueryError(
                f"selection condition equates distinct constants {a!r} and {b!r}"
            )

    def entails_eq(self, left: AttrRef, right: AttrRef) -> bool:
        """``Σ_Q ⊢ left = right``."""
        if left == right:
            return True
        if left not in self._parent or right not in self._parent:
            return False
        return self._find(left) == self._find(right)

    def constant_of(self, ref: AttrRef) -> Any:
        """The constant ``ref`` is equated with, or :data:`MISSING`."""
        if ref not in self._parent:
            return MISSING
        root = self._find(ref)
        return self._constants.get(root, MISSING)

    def has_constant(self, ref: AttrRef) -> bool:
        """Whether ``Σ_Q ⊢ ref = c`` for some constant ``c``."""
        return self.constant_of(ref) is not MISSING

    def equivalent_refs(self, ref: AttrRef) -> frozenset[AttrRef]:
        """All attribute references in the same equivalence class as ``ref``.

        Always contains ``ref`` itself, even when it never appears in ``C``.
        Costs ``O(|class|)``: the class is copied into a new frozenset.
        """
        if ref not in self._parent:
            return frozenset((ref,))
        root = self._find(ref)
        members = self._members.get(root, set())
        if ref in members:
            return frozenset(members)
        return frozenset(members | {ref})

    def classes(self) -> list[frozenset[AttrRef]]:
        """All equivalence classes restricted to attribute references."""
        # Roots may be stale after path compression; group by current root.
        by_root: dict[Hashable, set[AttrRef]] = {}
        for root, members in self._members.items():
            by_root.setdefault(self._find(root), set()).update(members)
        return [frozenset(members) for members in by_root.values()]

    def known_refs(self) -> frozenset[AttrRef]:
        """Every attribute reference mentioned by the condition."""
        refs: set[AttrRef] = set()
        for members in self._members.values():
            refs.update(members)
        return frozenset(refs)

    def constant_refs(self) -> frozenset[AttrRef]:
        """References equated with a constant — the paper's ``X_C`` (over ``C``)."""
        refs: set[AttrRef] = set()
        for root, members in self._members.items():
            if self._find(root) in self._constants or root in self._constants:
                refs.update(members)
        return frozenset(ref for ref in refs if self.has_constant(ref))

    def equivalent_any(self, ref: AttrRef, others: Iterable[AttrRef]) -> bool:
        """Whether ``ref`` is ``Σ_Q``-equivalent to at least one of ``others``."""
        return any(self.entails_eq(ref, other) for other in others)
