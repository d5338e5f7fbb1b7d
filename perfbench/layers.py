"""Layer spans recorded from outside the program.

The traced run replaces each layer's entry point, at the module attribute
its caller looks up, with a wrapper that records one span per call: the
layer name, start, end, the enclosing span and a few exact counts read
from the call's arguments or result.  Nothing under ``src/`` changes; the
originals are put back when the :class:`LayerTracer` context exits.

A layer's self time is its spans' duration minus the part covered by
child spans.  Coverage is the share of an operation's wall time that
falls inside top-level spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field


def _lp_counts(args, kwargs, _result):
    c = args[0] if args else kwargs["c"]
    rows = 0
    for key in ("A_ub", "A_eq"):
        a = kwargs.get(key)
        if a is not None:
            rows += a.shape[0]
    return {"columns": len(c), "rows": rows}


def _milp_counts(args, kwargs, _result):
    model = args[0] if args else kwargs["model"]
    return {"vars": int(model.c.shape[0])}


def _cluster_counts(_args, _kwargs, result):
    return {"clusters": int(result.n_clusters)}


#: (module, attribute, layer, count function).  Each attribute is the name
#: the layer's caller imports, so patching it intercepts exactly the calls
#: the flows and the ECO path make.
WRAPPED: tuple[tuple[str, str, str, object], ...] = (
    ("repro.core.flows", "global_place", "placement.global_place", None),
    ("repro.core.flows", "abacus_legalize", "placement.abacus", None),
    ("repro.core.flows", "refine_detailed", "placement.refine_detailed", None),
    ("repro.core.flows", "make_mlef_library", "placement.mlef", None),
    ("repro.core.flows", "make_floorplan", "placement.floorplan", None),
    ("repro.core.flows", "make_mixed_floorplan", "placement.floorplan", None),
    ("repro.core.flows", "build_placed_design", "placement.build_db", None),
    ("repro.core.flows", "hpwl_total", "placement.hpwl", None),
    ("repro.core.flows", "cluster_minority_cells", "clustering.kmeans",
     _cluster_counts),
    ("repro.core.flows", "compute_rap_costs", "cost.rap_costs", None),
    ("repro.core.cost", "compute_rap_costs", "cost.rap_costs", None),
    ("repro.core.flows", "solve_rap_resilient", "rap.solve", None),
    ("repro.core.flows", "solve_rap_nheight_resilient", "heights.solve", None),
    ("repro.core.sparse_rap", "linprog", "solvers.lp", _lp_counts),
    ("repro.core.heights", "linprog", "solvers.lp", _lp_counts),
    ("repro.core.sparse_rap", "solve_milp", "solvers.milp", _milp_counts),
    ("repro.core.heights", "solve_milp", "solvers.milp", _milp_counts),
    ("repro.core.rap", "solve_milp", "solvers.milp", _milp_counts),
    ("repro.core.flows", "baseline_row_assignment", "baseline.row_assign",
     None),
    ("repro.core.flows", "baseline_row_assignment_nheight",
     "baseline.row_assign", None),
    ("repro.core.flows", "fence_region_legalize", "legalize.fence", None),
    ("repro.core.flows", "fence_region_legalize_nheight", "legalize.fence",
     None),
    ("repro.core.flows", "abacus_rc_legalize", "legalize.abacus_rc", None),
    ("repro.core.flows", "abacus_rc_legalize_nheight", "legalize.abacus_rc",
     None),
    ("repro.eco", "apply_delta", "eco.apply_delta", None),
    ("repro.eco", "_sync_mixed_frame", "eco.sync_frame", None),
    ("repro.eco", "hpwl_total", "placement.hpwl", None),
    ("repro.eco", "hpwl_delta", "placement.hpwl", None),
    ("repro.eco", "_repair_classes", "eco.repair_rap", None),
    ("repro.eco", "legalize_row_windows", "eco.windows", None),
    ("repro.eco", "_run_fallback", "eco.fallback", None),
)


@dataclass
class SpanRecord:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict[str, int] = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class LayerTracer:
    """Context manager that patches every entry point in ``wrapped``.

    Spans of one operation are opened under :meth:`operation`; the
    operation span is the root the coverage is measured against.
    """

    def __init__(self, wrapped=WRAPPED) -> None:
        self.wrapped = wrapped
        self.spans: list[SpanRecord] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        for module_name, attr, layer, count in self.wrapped:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, count))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(SpanRecord(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> SpanRecord:
        rec = self.spans[index]
        rec.end = time.perf_counter()
        self._stack.pop()
        if rec.parent is not None:
            self.spans[rec.parent].child_s += rec.duration
        return rec

    def _wrap(self, fn, layer: str, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec = self._close(index)
            if count is not None:
                rec.counts.update(count(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def operation(self, name: str = "op"):
        """The root span of one timed operation."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    # -- summaries ---------------------------------------------------------

    def roots(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent is None]

    def children(self, index: int) -> list[SpanRecord]:
        return [s for s in self.spans if s.parent == index]

    def root_of(self, index: int) -> str:
        while self.spans[index].parent is not None:
            index = self.spans[index].parent
        return self.spans[index].name

    def count_roots(self, name: str) -> int:
        return sum(self.spans[r].name == name for r in self.roots())

    def by_layer(self, root: str | None = None) -> dict[str, dict[str, float]]:
        """Layer -> total seconds, self seconds, calls and summed counts.

        With ``root``, only spans inside operations of that name count.
        """
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is None:
                continue
            if root is not None and self.root_of(i) != root:
                continue
            row = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += s.duration
            row["self_s"] += s.self_s
            row["calls"] += 1
            for key, value in s.counts.items():
                row[key] = row.get(key, 0) + value
        return out

    def coverage(self, root: str | None = None) -> tuple[float, float]:
        """(covered seconds, operation seconds) over root spans.

        With ``root``, only operations of that name count.
        """
        covered = total = 0.0
        for r in self.roots():
            if root is not None and self.spans[r].name != root:
                continue
            total += self.spans[r].duration
            covered += self.spans[r].child_s
        return covered, total

    def gaps(self, min_s: float = 1.0) -> list[tuple[str, str, str, float]]:
        """Uncovered stretches of at least ``min_s`` inside each root.

        Each entry is (root, span before, span after, seconds); the
        operation's own start and end stand in at the edges.
        """
        found = []
        for r in self.roots():
            root = self.spans[r]
            cursor, before = root.start, "start"
            for child in sorted(self.children(r), key=lambda s: s.start):
                if child.start - cursor >= min_s:
                    found.append(
                        (root.name, before, child.name, child.start - cursor)
                    )
                cursor, before = child.end, child.name
            if root.end - cursor >= min_s:
                found.append((root.name, before, "end", root.end - cursor))
        return found

