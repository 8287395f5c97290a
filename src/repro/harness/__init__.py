"""The experiment harness: sweeps, result records, table printers, CLI.

Sweeps are parameterised by :mod:`repro.verify` strategy objects (pass
``modular=Modular(...)`` / ``monolithic=Monolithic(...)``, or ``None`` to
skip an engine) and build their networks through
:mod:`repro.networks.registry`.
"""

from repro.harness.runner import (
    DEFAULT_MODULAR,
    DEFAULT_MONOLITHIC,
    ExperimentResult,
    results_to_json,
    run_point,
    scaling_comparison,
    sweep_fattree,
    sweep_wan,
)
from repro.harness.tables import (
    cache_statistics_table,
    figure14_table,
    format_table,
    ghost_state_table,
    internet2_table,
    lines_of_code_table,
    scaling_table,
    symmetry_table,
)

__all__ = [
    "DEFAULT_MODULAR",
    "DEFAULT_MONOLITHIC",
    "ExperimentResult",
    "results_to_json",
    "run_point",
    "sweep_fattree",
    "sweep_wan",
    "scaling_comparison",
    "format_table",
    "scaling_table",
    "figure14_table",
    "internet2_table",
    "ghost_state_table",
    "lines_of_code_table",
    "symmetry_table",
    "cache_statistics_table",
]
