"""Benchmark networks: fattrees (Reach/Len/Vf/Hijack), the synthetic WAN and
ghost-state constructions.

These are the networks of the paper's evaluation (§6).  Each builder returns
an :class:`~repro.core.annotations.AnnotatedNetwork` complete with the
interfaces and properties described in the paper, ready for a
:class:`repro.verify.Session` under any strategy.

Construct networks by name through :mod:`repro.networks.registry`
(``registry.build("fattree/reach", pods=4)``) — the single validated path
used by the harness, CLI, benchmarks and tests.
"""

from repro.networks import registry
from repro.networks.registry import BenchmarkSpec, BuiltBenchmark, benchmark_names

from repro.networks.benchmarks import (
    COMPACT_WIDTHS,
    DOWN_COMMUNITY,
    FATTREE_DIAMETER,
    HIJACKER,
    POLICIES,
    FattreeBenchmark,
    build_hijack,
    build_length,
    build_reach,
    build_valley_freedom,
)
from repro.networks.fattree import (
    AGGREGATION,
    CORE,
    EDGE,
    Fattree,
    FattreeNode,
    fattree_size,
    pods_for_node_budget,
)
from repro.networks.ghost import (
    GhostStateRow,
    ghost_state_catalog,
    no_transit_network,
    reachability_from_destination,
    unordered_waypoint_network,
)
from repro.networks.wan import WanBenchmark, block_to_external_predicate, build_wan_benchmark

__all__ = [
    "BenchmarkSpec",
    "BuiltBenchmark",
    "benchmark_names",
    "registry",
    "Fattree",
    "FattreeNode",
    "fattree_size",
    "pods_for_node_budget",
    "CORE",
    "AGGREGATION",
    "EDGE",
    "FattreeBenchmark",
    "build_reach",
    "build_length",
    "build_valley_freedom",
    "build_hijack",
    "POLICIES",
    "COMPACT_WIDTHS",
    "FATTREE_DIAMETER",
    "DOWN_COMMUNITY",
    "HIJACKER",
    "WanBenchmark",
    "build_wan_benchmark",
    "block_to_external_predicate",
    "GhostStateRow",
    "ghost_state_catalog",
    "reachability_from_destination",
    "unordered_waypoint_network",
    "no_transit_network",
]
