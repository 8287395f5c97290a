"""The benchmark registry: every verifiable network behind one named path.

Harness sweeps, the CLI, the benchmark suite and the tests all construct
networks through a single namespace of ``family/property`` names —

* ``fattree/reach``, ``fattree/length``, ``fattree/valley_freedom``,
  ``fattree/hijack`` (the all-pairs ``Ap`` variants via ``all_pairs=True``);
* ``wan/block_to_external`` (alias ``wan/reach``): the synthetic Internet2;
* ``ghost/reach`` (alias of the Figure 10 ``fromw`` construction),
  ``ghost/no_transit``, ``ghost/waypoint``;

— each mapping to a builder with *declared, validated* parameters: unknown
parameter names, wrong types and out-of-range values are rejected with a
:class:`~repro.errors.BenchmarkError` naming the benchmark and the allowed
values, before any network is built.  The catalogue is one literal table of
:class:`BenchmarkSpec` entries at the end of this module.

Every build returns an object satisfying the small
:class:`BuiltBenchmark` contract (``name``, ``annotated``, ``node_count``,
``parameters``), whatever shape the underlying builder produces, so callers
can hand the result straight to :class:`repro.verify.Session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping

from repro.config.generator import WanParameters
from repro.core.annotations import AnnotatedNetwork
from repro.errors import BenchmarkError
from repro.networks.benchmarks import build_fattree
from repro.networks.ghost import (
    no_transit_network,
    reachability_from_destination,
    unordered_waypoint_network,
)
from repro.networks.wan import WanBenchmark, build_wan_benchmark


@dataclass(frozen=True)
class Parameter:
    """One declared, validated parameter of a registered benchmark."""

    name: str
    kind: type
    default: Any
    description: str = ""
    #: Optional extra validation; returns an error string or ``None``.
    check: Callable[[Any], str | None] | None = None

    def validate(self, benchmark: str, value: Any) -> Any:
        if self.kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        # None is legal only for parameters whose declared default is None
        # (e.g. optional overrides); elsewhere it is a type error like any
        # other, reported before the check callback runs.
        if self.kind is not Any and not (value is None and self.default is None):
            if not isinstance(value, self.kind) or (self.kind is int and isinstance(value, bool)):
                raise BenchmarkError(
                    f"benchmark {benchmark!r}: parameter {self.name!r} must be "
                    f"{self.kind.__name__}, got {type(value).__name__}"
                )
        if self.check is not None:
            problem = self.check(value)
            if problem is not None:
                raise BenchmarkError(
                    f"benchmark {benchmark!r}: parameter {self.name!r} {problem} "
                    f"(got {value!r})"
                )
        return value


@dataclass(frozen=True)
class BenchmarkSpec:
    """A registered benchmark: a named builder with declared parameters."""

    name: str
    builder: Callable[..., Any]
    description: str
    parameters: tuple[Parameter, ...] = ()
    aliases: tuple[str, ...] = ()

    def build(self, **overrides: Any) -> "BuiltBenchmark":
        declared = {parameter.name: parameter for parameter in self.parameters}
        unknown = set(overrides) - set(declared)
        if unknown:
            raise BenchmarkError(
                f"benchmark {self.name!r} has no parameters {sorted(unknown)}; "
                f"allowed: {sorted(declared) or 'none'}"
            )
        arguments = {}
        for parameter in self.parameters:
            value = overrides.get(parameter.name, parameter.default)
            arguments[parameter.name] = parameter.validate(self.name, value)
        built = self.builder(**arguments)
        return BuiltBenchmark(
            name=getattr(built, "name", self.name),
            annotated=built if isinstance(built, AnnotatedNetwork) else built.annotated,
            parameters=dict(arguments),
            raw=built,
        )


@dataclass
class BuiltBenchmark:
    """The uniform result of :func:`build`: ready for a verification session."""

    name: str
    annotated: AnnotatedNetwork
    parameters: dict[str, Any] = field(default_factory=dict)
    #: The underlying builder result (e.g. a ``FattreeBenchmark``), for
    #: callers that need family-specific details.
    raw: Any = None

    @property
    def network(self):
        return self.annotated.network

    @property
    def node_count(self) -> int:
        return self.annotated.network.topology.node_count


def benchmark_names(include_aliases: bool = False) -> tuple[str, ...]:
    """The registered benchmark names, sorted."""
    names = set(_REGISTRY)
    if include_aliases:
        names |= set(_ALIASES)
    return tuple(sorted(names))


def get_spec(name: str) -> BenchmarkSpec:
    """Look up a spec by name or alias; raises with the known names."""
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise BenchmarkError(
            f"unknown benchmark {name!r}; choose one of {list(benchmark_names(include_aliases=True))}"
        ) from None


def build(name: str, **parameters: Any) -> BuiltBenchmark:
    """Build a registered benchmark with validated parameters."""
    return get_spec(name).build(**parameters)


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------


def _even_pods(value: int) -> str | None:
    return None if value >= 2 and value % 2 == 0 else "must be an even pod count >= 2"


def _positive_peers(value: int) -> str | None:
    return None if value > 0 else "must be a positive peer count"


def _widths_check(value: Any) -> str | None:
    if value is None or isinstance(value, Mapping):
        return None
    return "must be a mapping of field-width overrides or None"


def _build_wan(**parameters: Any) -> WanBenchmark:
    return build_wan_benchmark(WanParameters(**parameters))


_FATTREE = (
    Parameter("pods", int, 4, "fattree pod count k", _even_pods),
    Parameter("all_pairs", bool, False, "symbolic-destination (Ap) variant"),
    Parameter("widths", Any, None, "route field-width overrides", _widths_check),
)

_SPECS = (
    BenchmarkSpec(
        "fattree/reach",
        partial(build_fattree, "reach"),
        "every node eventually has a route (Reach)",
        _FATTREE,
    ),
    BenchmarkSpec(
        "fattree/length",
        partial(build_fattree, "length"),
        "bounded path length to the destination (Len)",
        _FATTREE,
    ),
    BenchmarkSpec(
        "fattree/valley_freedom",
        partial(build_fattree, "valley_freedom"),
        "reachability under valley-freedom tagging (Vf)",
        _FATTREE,
    ),
    BenchmarkSpec(
        "fattree/hijack",
        partial(build_fattree, "hijack"),
        "route filtering against an adversarial peer (Hijack)",
        _FATTREE,
    ),
    BenchmarkSpec(
        "wan/block_to_external",
        _build_wan,
        "BlockToExternal on the synthetic Internet2 WAN",
        (
            Parameter(
                "internal_routers",
                int,
                10,
                "internal ring size",
                lambda v: None if v >= 3 else "must be at least 3",
            ),
            Parameter("external_peers", int, 40, "external peer count", _positive_peers),
            Parameter("buggy", bool, False, "plant the missing-export-filter bug"),
        ),
        aliases=("wan/reach",),
    ),
    BenchmarkSpec(
        "ghost/reach",
        reachability_from_destination,
        "the running example with the fromw ghost bit (Figure 10)",
    ),
    BenchmarkSpec(
        "ghost/no_transit",
        no_transit_network,
        "two providers and a customer that must not provide transit",
    ),
    BenchmarkSpec(
        "ghost/waypoint",
        unordered_waypoint_network,
        "a service chain whose routes must traverse every waypoint",
        (
            Parameter(
                "waypoints",
                tuple,
                ("firewall", "scrubber"),
                "waypoint node names, in chain order",
                lambda v: None if len(v) >= 1 else "must name at least one waypoint",
            ),
        ),
    ),
)

_REGISTRY = {spec.name: spec for spec in _SPECS}
_ALIASES = {alias: spec.name for spec in _SPECS for alias in spec.aliases}
