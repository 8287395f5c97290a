"""The outside-in tracer: spans around the layers' public callables.

Nothing under ``src/`` knows about this file.  :func:`install` wraps the
public entry points of each layer *in place* — class methods by replacing the
class attribute, module functions by rebinding every ``repro.*`` module
attribute that ``is`` the original (``session.py`` imports some at module top
and some inside functions, so the defining module alone is not enough) — and
:meth:`Tracer.remove` puts every original back.

Spans are kept in memory with their parent's index; a span's *self time* is
its duration minus the time its children cover.  Calls made ~10^6 times a run
(``CdclSolver.add_clause*``) are *leaves*: a count and a summed time charged
to the enclosing span, with no per-call span object.  Self times of one tree
therefore sum exactly to its root's duration.

Wrappers cost time too (the leaf wrapper's own bookkeeping lands in its
parent's self time), which is why end-to-end metrics are only ever taken from
untraced samples and the traced run reports ``trace.overhead_share``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
from time import perf_counter
from typing import Any, Callable, Iterator

#: ``(module, class, method, span name, mode)``; modes: ``span`` (one span per
#: call), ``outermost`` (recursive callable: only the outermost call opens a
#: span) and ``leaf`` (aggregated count + time).
METHODS = (
    ("repro.smt.sat.solver", "CdclSolver", "solve", "sat.solve", "span"),
    ("repro.smt.sat.solver", "CdclSolver", "add_clause", "sat.load", "leaf"),
    ("repro.smt.sat.solver", "CdclSolver", "add_clause_unchecked", "sat.load", "leaf"),
    ("repro.smt.bitblast", "BitBlaster", "blast", "bitblast.blast", "span"),
    ("repro.smt.tseitin", "TseitinEncoder", "literal_for", "tseitin.literal_for", "outermost"),
    ("repro.smt.incremental", "IncrementalSolver", "check", "incremental.check", "span"),
    ("repro.verify.store", "DeltaStore", "open", "store.open", "span"),
    ("repro.verify.store", "DeltaStore", "save", "store.save", "span"),
)

#: ``(defining module, function, span name)``.
FUNCTIONS = (
    ("repro.core.conditions", "node_conditions", "conditions.node_conditions"),
    ("repro.core.conditions", "canonical_node_conditions", "conditions.canonical_node_conditions"),
    ("repro.core.symmetry", "partition_nodes", "symmetry.partition_nodes"),
    ("repro.core.checker", "check_node", "checker.check_node"),
    ("repro.core.checker", "check_class", "checker.check_class"),
    ("repro.core.fingerprint", "dependency_fingerprints", "fingerprint.dependency_fingerprints"),
    ("repro.core.fingerprint", "node_condition_fingerprints", "fingerprint.node_condition_fingerprints"),
    ("repro.core.fingerprint", "network_fingerprint", "fingerprint.network_fingerprint"),
)

#: Modules that bind the functions above lazily or by ``from`` import; loaded
#: before patching so their bindings are rebound (and restored) too.
CONSUMERS = ("repro.core", "repro.core.parallel", "repro.verify.session")


class Span:
    """One traced call: name, parent index, interval, and time covered by children."""

    __slots__ = ("name", "parent", "start", "end", "children_s")

    def __init__(self, name: str, parent: int | None, start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """In-memory span recorder plus the patches it installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Leaf name -> ``[calls, seconds, busy]`` (``busy`` guards re-entry).
        self.leaves: dict[str, list] = {}
        self._stack: list[int] = []
        #: ``(owner, attribute, original, replacement)`` for every patch made.
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # -- recording ---------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else None, perf_counter()))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (the roots)."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, function: Callable, name: str, outermost: bool = False) -> Callable:
        """``function`` with a span around each (or each outermost) call."""
        depth = [0]

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if outermost and depth[0]:
                return function(*args, **kwargs)
            depth[0] += 1
            index = self.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(index)
                depth[0] -= 1

        return traced

    def wrap_leaf(self, function: Callable, name: str) -> Callable:
        """``function`` counted and timed in aggregate, charged to the open span.

        Leaves sharing a name share a re-entry guard: ``add_clause_unchecked``
        falls back to ``add_clause``, which must not be counted twice.
        """
        record = self.leaves.setdefault(name, [0, 0.0, False])
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if record[2]:
                return function(*args, **kwargs)
            record[2] = True
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                record[2] = False
                record[0] += 1
                record[1] += elapsed
                if stack:
                    spans[stack[-1]].children_s += elapsed

        return traced

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, original: Any, replacement: Any) -> None:
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original, replacement))

    def patch_method(self, cls: type, attribute: str, name: str, mode: str) -> None:
        original = cls.__dict__[attribute]
        is_classmethod = isinstance(original, classmethod)
        function = original.__func__ if is_classmethod else original
        if mode == "leaf":
            traced = self.wrap_leaf(function, name)
        else:
            traced = self.wrap(function, name, outermost=(mode == "outermost"))
        self._patch(cls, attribute, original, classmethod(traced) if is_classmethod else traced)

    def patch_function(self, module_name: str, attribute: str, name: str) -> None:
        original = getattr(importlib.import_module(module_name), attribute)
        traced = self.wrap(original, name)
        for module in _repro_modules():
            for bound_as, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, bound_as, original, traced)

    def remove(self) -> None:
        """Put every original back, including bindings made while installed."""
        late = {id(replacement): original for _, _, original, replacement in self._patches}
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        # A module first imported during the traced run copied the wrapper.
        for module in _repro_modules():
            for bound_as, value in list(vars(module).items()):
                if id(value) in late:
                    setattr(module, bound_as, late[id(value)])

    # -- reading -----------------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, tuple[int, float]]]:
        """A position in the recording; pass to the readers to skip what came before."""
        return len(self.spans), {name: (r[0], r[1]) for name, r in self.leaves.items()}

    def named(self, name: str, since: int = 0) -> list[Span]:
        return [span for span in self.spans[since:] if span.name == name]

    def leaf(self, name: str, since: dict[str, tuple[int, float]] | None = None) -> tuple[int, float]:
        """``(calls, seconds)`` of a leaf since ``since``."""
        calls, seconds, _ = self.leaves.get(name, (0, 0.0, False))
        before = (since or {}).get(name, (0, 0.0))
        return calls - before[0], seconds - before[1]

    def self_seconds(self, prefix: str, since: int = 0) -> float:
        """Summed self time of the spans whose name starts with ``prefix``."""
        return sum(span.self_s for span in self.spans[since:] if span.name.startswith(prefix))

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome-trace (``chrome://tracing``, Perfetto) JSON."""
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": os.getpid(),
                "tid": 0,
                "args": {"self_s": span.self_s},
            }
            for span in self.spans
        ]
        leaves = {name: {"calls": r[0], "seconds": r[1]} for name, r in self.leaves.items()}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "otherData": {"leaves": leaves}}, handle)


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install() -> Tracer:
    """Wrap every layer entry point; the caller must ``remove()`` the result."""
    tracer = Tracer()
    for module_name in CONSUMERS:
        importlib.import_module(module_name)
    try:
        for module_name, class_name, attribute, name, mode in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            tracer.patch_method(cls, attribute, name, mode)
        for module_name, attribute, name in FUNCTIONS:
            tracer.patch_function(module_name, attribute, name)
    except BaseException:
        tracer.remove()
        raise
    return tracer
