"""Shared pytest configuration for the test-suite."""

from __future__ import annotations

import pytest

from repro.symbolic import reset_fresh_names


@pytest.fixture(autouse=True)
def _fresh_symbolic_names():
    """Keep symbolic variable names deterministic within each test."""
    reset_fresh_names()
    yield


@pytest.fixture
def one_failing_node_annotated():
    """Factory: a path network whose ``failing`` node cannot satisfy its interface.

    The shared failure-injection fixture for run-level fail-fast tests: every
    node eventually has a route except ``failing``, whose interface claims it
    never does — its inductive condition (and its successors') must fail.
    """
    from repro import core
    from repro.routing import path_topology, shortest_path_network

    def build(length=8, failing="n2"):
        topology = path_topology(length)
        network = shortest_path_network(topology, "n0")
        interfaces = {
            node: core.finally_(index, core.globally(lambda r: r.is_some))
            for index, node in enumerate(topology.nodes)
        }
        interfaces[failing] = core.globally(lambda r: r.is_none)
        return core.annotate(network, interfaces)

    return build


@pytest.fixture
def check_classes():
    """Drain ``iter_class_batches`` barrier-style.

    Returns the member reports in class order and the summed cache deltas
    (``None`` with ``incremental=False``); keyword arguments default to a
    plain full check.
    """
    from repro.core import CONDITION_KINDS
    from repro.core.parallel import iter_class_batches
    from repro.smt.incremental import add_cache_statistics

    def run(annotated, classes, jobs, **options):
        options = {"delay": 0, "conditions": CONDITION_KINDS, "fail_fast": True, **options}
        indexed, totals = {}, {}
        for index, reports, delta in iter_class_batches(annotated, classes, jobs=jobs, **options):
            indexed[index] = reports
            totals = add_cache_statistics(totals, delta)
        flattened = [report for index in sorted(indexed) for report in indexed[index]]
        return flattened, (totals if options.get("incremental", True) else None)

    return run


@pytest.fixture
def assert_scopes_follow_size():
    """The one rotation rule, as a check on a cache-statistics delta.

    A SAT scope retires only once it has outgrown ``max_scope_clauses`` — never
    at a node, class or run boundary — so the scopes a run opens are bounded
    by the clauses it shipped, whatever the number of work items.
    """
    from repro.smt.incremental import IncrementalSolver

    default = IncrementalSolver().max_scope_clauses

    def check(cache, bound=default):
        assert 0 <= cache["scopes"] <= cache["clauses_shipped"] // bound + 1

    return check


@pytest.fixture
def no_process_pool(monkeypatch):
    """Simulate a platform whose ``fork`` context cannot set up a pool."""
    import multiprocessing

    class _FailingContext:
        def _unavailable(self, *args, **kwargs):
            raise OSError("no semaphores on this platform")

        Event = Pool = _unavailable

    monkeypatch.setattr(multiprocessing, "get_context", lambda kind: _FailingContext())
