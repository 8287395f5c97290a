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

    Returns the member reports in class order and the summed cache deltas;
    ``delay`` defaults to 0.
    """
    from repro.core.parallel import iter_class_batches
    from repro.smt.incremental import add_cache_statistics

    def run(annotated, classes, jobs, delay=0, **options):
        indexed, totals = {}, {}
        batches = iter_class_batches(annotated, classes, delay=delay, jobs=jobs, **options)
        for index, reports, delta in batches:
            indexed[index] = reports
            totals = add_cache_statistics(totals, delta)
        flattened = [report for index in sorted(indexed) for report in indexed[index]]
        return flattened, totals

    return run


def reference_report(annotated, nodes=None):
    """The oracle every engine mode is held to: the paper's loop, nothing shared.

    Each selected node's raw conditions (no destination numbering, no
    class) are discharged by ``check_node`` on a facade
    :class:`repro.smt.Solver` — a fresh SAT instance per condition, with no
    engine loop, no scheduler and no incremental solver — and the node
    reports are merged in selection order.  Every engine mode builds a node
    in its own numbering, so this is an independent check of that build.
    """
    from repro import smt
    from repro.core.checker import check_node
    from repro.core.results import merge_reports

    selected = annotated.nodes if nodes is None else tuple(nodes)
    reports = [check_node(annotated, node, solver=smt.Solver()) for node in selected]
    return merge_reports(reports, wall_time=0.0, parallelism=1)


@pytest.fixture(name="reference_report")
def _reference_report():
    """:func:`reference_report`, for tests."""
    return reference_report


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
    import concurrent.futures

    def unavailable(*args, **kwargs):
        raise OSError("no semaphores on this platform")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unavailable)
