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


def _value_variables(value):
    """The variable names of a symbolic value, in field order (test-local)."""
    from repro.smt.terms import free_variables
    from repro.symbolic import SymBool, SymBV, SymEnum, SymOption, SymRecord, SymSet

    if isinstance(value, (SymBool, SymBV)):
        return list(free_variables(value.term))
    if isinstance(value, SymEnum):
        return list(free_variables(value.index.term))
    if isinstance(value, SymOption):
        parts = [value.is_some, value.payload]
    elif isinstance(value, SymSet):
        parts = [value.contains(name) for name in value.universe]
    elif isinstance(value, SymRecord):
        parts = [part for _, part in value]
    else:
        return []
    return [name for part in parts for name in _value_variables(part)]


def _left_to_right_variables(roots):
    """Variable names under ``roots`` in order of first appearance, left to right."""
    names, seen, stack = {}, set(), list(reversed(roots))
    while stack:
        term = stack.pop()
        if term.term_id in seen:
            continue
        seen.add(term.term_id)
        if term.op == "var":
            names.setdefault(term.payload)
        stack.extend(reversed(term.args))
    return list(names)


def sliced_and_renamed(network, conditions):
    """The canonical conditions' slice and positional symbolic names, re-derived.

    An oracle written apart from ``core/conditions.py``: the precondition's
    conjuncts are merged into variable-sharing groups by a pairwise fixpoint,
    a condition keeps the groups that share a variable with its other
    assumptions or its goal, and every variable of a symbolic is renamed
    ``vc$symbolic.%<i>.<j>:<sort>`` (``i``: the symbolic's order of first
    appearance, left to right, in the other assumptions, the goal, then the
    kept groups; ``j``: the variable's position in the symbolic's value).
    Renamed equalities are rebuilt through ``builder.eq``, which orders its
    sides.  With fewer than two groups the conditions are returned as they are.
    """
    from dataclasses import replace

    from repro.smt import builder
    from repro.smt.terms import free_variables, make_term
    from repro.symbolic import SymBool

    precondition = network.symbolic_constraints().term
    groups = []
    for conjunct in precondition.args if precondition.op == "and" else ():
        group = [set(free_variables(conjunct)), [conjunct]]
        for other in [other for other in groups if other[0] & group[0]]:
            groups.remove(other)
            group = [group[0] | other[0], group[1] + other[1]]
        groups.append(group)
    if len(groups) < 2:
        return conditions
    owner = {}
    for index, symbolic in enumerate(network.symbolics):
        for position, name in enumerate(dict.fromkeys(_value_variables(symbolic.value))):
            owner.setdefault(name, (index, position))
    group_of = {conjunct: variables for variables, members in groups for conjunct in members}
    result = []
    for condition in conditions:
        assumptions = condition.assumptions.term
        conjuncts = assumptions.args if assumptions.op == "and" else (assumptions,)
        rest = [conjunct for conjunct in conjuncts if conjunct not in group_of]
        support = set()
        for root in [*rest, condition.goal.term]:
            support |= set(free_variables(root))
        kept = [c for c in conjuncts if c not in group_of or group_of[c] & support]
        order = {}
        walked = [*rest, condition.goal.term, *(c for c in kept if c in group_of)]
        for name in _left_to_right_variables(walked):
            if name in owner:
                order.setdefault(owner[name][0], len(order))
        done = {}
        for root in [*kept, condition.goal.term]:
            stack = [root]
            while stack:
                term = stack[-1]
                pending = [arg for arg in term.args if arg.term_id not in done]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                args = tuple(done[arg.term_id] for arg in term.args)
                if term.op == "var" and term.payload in owner:
                    index, position = owner[term.payload]
                    name = f"vc$symbolic.%{order[index]}.{position}:{term.sort!r}"
                    done[term.term_id] = make_term("var", (), name, term.sort)
                elif term.op == "eq" and args != term.args:
                    done[term.term_id] = builder.eq(*args)
                else:
                    done[term.term_id] = make_term(term.op, args, term.payload, term.sort)
        result.append(
            replace(
                condition,
                assumptions=SymBool(builder.and_(*(done[c.term_id] for c in kept))),
                goal=SymBool(done[condition.goal.term.term_id]),
            )
        )
    return result


@pytest.fixture(name="sliced_and_renamed")
def _sliced_and_renamed():
    """:func:`sliced_and_renamed`, for tests."""
    return sliced_and_renamed


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
