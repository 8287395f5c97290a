"""Timepiece's core: temporal interfaces and the modular verification engine.

This package is the paper's primary contribution.  Users annotate a
:class:`~repro.routing.algebra.Network` with per-node temporal interfaces and
properties (:func:`annotate`), then verify it through the unified API in
:mod:`repro.verify`::

    from repro.verify import Modular, Monolithic, verify

    report = verify(annotated, Modular())
    baseline = verify(annotated, Monolithic(timeout=60))

This package holds the engine primitives those strategies drive: the three
verification conditions, the per-class checking function (:func:`check_class`,
which builds every node in its own destination numbering) and the raw
per-node reference (:func:`check_node`), the symmetry partitioner, the
monolithic and strawperson engines and the report types.
"""

from repro.core.annotations import AnnotatedNetwork, DestinationSymmetry, annotate
from repro.core.checker import assert_verified, check_class, check_node
from repro.core.conditions import (
    CONDITION_KINDS,
    INDUCTIVE,
    INITIAL,
    SAFETY,
    VerificationCondition,
    canonical_node_conditions,
    inductive_condition,
    initial_condition,
    node_conditions,
    safety_condition,
)
from repro.core.symmetry import (
    SYMMETRY_MODES,
    partition_nodes,
)
from repro.core.counterexample import Counterexample
from repro.core.monolithic import (
    erased_property,
    run_monolithic,
    stable_state_constraints,
)
from repro.core.results import (
    ConditionResult,
    ModularReport,
    MonolithicReport,
    NodeReport,
    condition_verdicts,
    percentile,
)
from repro.core.strawperson import (
    StrawpersonReport,
    erased_interfaces,
    run_strawperson,
)
from repro.core.temporal import (
    StatePredicate,
    TemporalPredicate,
    always_false,
    always_true,
    finally_,
    finally_dynamic,
    globally,
    lift,
    until,
    until_dynamic,
)

__all__ = [
    # temporal operators
    "TemporalPredicate",
    "StatePredicate",
    "globally",
    "until",
    "finally_",
    "until_dynamic",
    "finally_dynamic",
    "always_true",
    "always_false",
    "lift",
    # annotation
    "AnnotatedNetwork",
    "DestinationSymmetry",
    "annotate",
    # conditions
    "VerificationCondition",
    "initial_condition",
    "inductive_condition",
    "safety_condition",
    "node_conditions",
    "canonical_node_conditions",
    "CONDITION_KINDS",
    "INITIAL",
    "INDUCTIVE",
    "SAFETY",
    # symmetry reduction
    "SYMMETRY_MODES",
    "partition_nodes",
    # checking
    "check_node",
    "check_class",
    "assert_verified",
    "run_monolithic",
    "stable_state_constraints",
    "erased_property",
    "run_strawperson",
    "erased_interfaces",
    # results
    "ConditionResult",
    "NodeReport",
    "ModularReport",
    "MonolithicReport",
    "StrawpersonReport",
    "Counterexample",
    "condition_verdicts",
    "percentile",
]
