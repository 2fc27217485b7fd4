"""The paper's primary contribution: boundedness theory for SPC queries.

* :mod:`repro.core.deduction` — deduced facts, actualized constraints, proofs.
* :mod:`repro.core.closure` — the access-closure worklist engine (Fig. 3).
* :mod:`repro.core.rules` — symbolic ``I_B`` / ``I_E`` entailment (Figs. 1–2).
* :mod:`repro.core.bcheck` — boundedness checking (Theorems 3 and 5).
* :mod:`repro.core.ebcheck` — effective-boundedness checking (Theorems 4 and 6).
* :mod:`repro.core.dominating` — dominating parameters (Section 4.3, Theorem 7).
"""

from .bcheck import BoundednessResult, bcheck, is_bounded
from .closure import (
    BOUND_CAP,
    Actualization,
    ClosureResult,
    FiredConstraint,
    compute_closure,
    indexed_per_atom,
    is_indexed,
)
from .deduction import (
    ACTUALIZATION,
    AUGMENTATION,
    COMBINATION,
    REFLEXIVITY,
    TRANSITIVITY,
    ActualizedConstraint,
    DeducedFact,
    Proof,
    ProofStep,
    actualize,
)
from .dominating import (
    DominatingParametersResult,
    find_dominating_parameters,
    find_minimum_dominating_parameters,
    has_dominating_parameters,
    makes_effectively_bounded,
)
from .ebcheck import EffectiveBoundednessResult, ebcheck, is_effectively_bounded
from .rules import Derivation, ib_derives, ie_derives

__all__ = [
    "ACTUALIZATION",
    "AUGMENTATION",
    "Actualization",
    "BOUND_CAP",
    "COMBINATION",
    "REFLEXIVITY",
    "TRANSITIVITY",
    "ActualizedConstraint",
    "BoundednessResult",
    "ClosureResult",
    "DeducedFact",
    "Derivation",
    "DominatingParametersResult",
    "EffectiveBoundednessResult",
    "FiredConstraint",
    "Proof",
    "ProofStep",
    "actualize",
    "bcheck",
    "compute_closure",
    "ebcheck",
    "find_dominating_parameters",
    "find_minimum_dominating_parameters",
    "has_dominating_parameters",
    "ib_derives",
    "ie_derives",
    "indexed_per_atom",
    "is_bounded",
    "is_effectively_bounded",
    "is_indexed",
    "makes_effectively_bounded",
]
