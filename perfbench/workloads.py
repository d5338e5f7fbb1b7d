"""The benchmark's workloads: inputs from a seed, operations, and metrics.

Every workload generates its netlist from the run's ``--seed`` through the
public API and measures closed-loop with one client: the next placement
job or ECO delta starts only after the previous one returned.  Seed 0
reproduces the canonical Table II twin: instance ``i`` of run seed ``s``
uses the testcase's crc32 seed plus ``1000 s + i``.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import sys
import time
import traceback

from checks import (
    check_flow,
    check_placement,
    check_row_assignment,
    pair_counts,
)
from hostspeed import ReferenceKernel, normalized
from layers import LayerTracer

from repro import (
    FlowKind,
    FlowRunner,
    HeightSpec,
    RCPPParams,
    make_asap7_library,
    prepare_initial_placement,
)
from repro.eco import make_eco_delta
from repro.experiments.testcases import (
    NHEIGHT_TESTCASES,
    NHeightTestcaseSpec,
    TestcaseSpec,
    build_nheight_testcase,
    build_testcase,
    testcase_by_id,
)

#: RAP span names whose ``outcome`` attribute is the solver's verdict.
RAP_SPANS = ("rap.sparse", "rap.nheight")
#: Outcomes that certify optimality outright.  ``dense`` (a full-mask
#: solve) certifies only when its MILP call reports ``optimal``.
CERTIFIED_OUTCOMES = ("certified", "full")

#: Placement instances per untraced run, at least; a run places more
#: while its seconds last and reports medians, so that a netlist with a
#: slow RAP (several times its neighbours' place time, about one twin in
#: ten) cannot decide a run.  QoR is the median over exactly these.
MIN_INSTANCES = 3
MIN_TRACED_INSTANCES = 1  # a traced run places each instance three times
#: No instance starts after this many seconds of a run, so that one
#: pathological RAP instance cannot push a run past three minutes.
START_CUTOFF_S = 90.0
INSTANCE_STRIDE = 1000  # run seed s uses generator offsets 1000 s + i
ECO_FRACTION = 0.01
#: Deltas a stream takes at least, past its deadline if need be: a
#: fallback delta is a full flow (2.6-3.4 s on aes_400).
ECO_MIN_DELTAS = 10
ECO_DELTA_SEED = 100  # run seed s streams delta seeds 100 + 1000 s, ...
TRACKS_3H = (6.0, 7.5, 9.0)


@dataclasses.dataclass(frozen=True)
class _SeededTestcase(TestcaseSpec):
    offset: int = 0

    @property
    def seed(self) -> int:
        return (TestcaseSpec.seed.fget(self) + self.offset) & 0x7FFFFFFF


@dataclasses.dataclass(frozen=True)
class _SeededNHeightTestcase(NHeightTestcaseSpec):
    offset: int = 0

    @property
    def seed(self) -> int:
        return (NHeightTestcaseSpec.seed.fget(self) + self.offset) & 0x7FFFFFFF


def _seeded(spec, seed: int):
    cls = (
        _SeededNHeightTestcase
        if isinstance(spec, NHeightTestcaseSpec)
        else _SeededTestcase
    )
    fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    return cls(**fields, offset=seed)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    testcase: str
    scale: float
    flows: tuple[FlowKind, ...] = (FlowKind.FLOW5,)
    three_height: bool = False
    eco: bool = False

    def library(self):
        if self.three_height:
            return make_asap7_library(tracks=TRACKS_3H)
        return make_asap7_library()

    @property
    def heights(self) -> HeightSpec | None:
        if not self.three_height:
            return None
        return HeightSpec(majority=6.0, minority=self.spec.minority_tracks)

    @property
    def spec(self):
        if self.three_height:
            return next(s for s in NHEIGHT_TESTCASES if s.name == self.testcase)
        return testcase_by_id(self.testcase)

    def build(self, library, seed: int, scale: float | None = None):
        spec = _seeded(self.spec, seed)
        build = build_nheight_testcase if self.three_height else build_testcase
        return build(spec, library, scale=self.scale if scale is None else scale)

    def params(self) -> RCPPParams:
        # One process: the RAP runs inline, never on the worker pool.
        return RCPPParams(heights=self.heights, rap_workers=1)


WORKLOADS = {
    w.name: w
    for w in (
        # The traced run streams ECO deltas onto its flow-(5) incumbent.
        Workload("five_flows_aes400", "aes_400", 1.0, flows=tuple(FlowKind),
                 eco=True),
        Workload("flow5_3h_fpu", "fpu3h_4500", 0.3, three_height=True),
    )
}


# -- small helpers ------------------------------------------------------------


def rap_outcomes(span_dict) -> list[bool]:
    """Certified flag of every RAP solve in a ``provenance.spans`` tree."""
    found: list[bool] = []

    def milp_status(node):
        status = None
        for child in node.get("children", ()):
            if child["name"].startswith("milp."):
                status = child.get("attrs", {}).get("status", status)
            deeper = milp_status(child)
            status = deeper if deeper is not None else status
        return status

    def walk(node):
        if node["name"] in RAP_SPANS and "outcome" in node.get("attrs", {}):
            outcome = node["attrs"]["outcome"]
            found.append(
                outcome in CERTIFIED_OUTCOMES
                or (outcome == "dense" and milp_status(node) == "optimal")
            )
            return
        for child in node.get("children", ()):
            walk(child)

    if span_dict:
        walk(span_dict)
    return found


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond.

    Below 11 samples no percentile has ten beyond it; the median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 50.0, statistics.median(ordered)
    index = n - 11
    return 100.0 * (index + 1) / n, ordered[index]


#: Per-layer metric -> (wrapped layer, field), per traced operation.
LAYER_METRICS = {
    "placement.global_place_s": ("placement.global_place", "s"),
    "placement.abacus_s": ("placement.abacus", "s"),
    "placement.refine_detailed_s": ("placement.refine_detailed", "s"),
    "clustering.kmeans_s": ("clustering.kmeans", "s"),
    "clustering.n_clusters": ("clustering.kmeans", "clusters"),
    "cost.rap_costs_s": ("cost.rap_costs", "s"),
    "cost.calls": ("cost.rap_costs", "calls"),
    "rap.solve_s": ("rap.solve", "s"),
    "rap.self_s": ("rap.solve", "self_s"),
    "solvers.lp_s": ("solvers.lp", "s"),
    "solvers.lp_calls": ("solvers.lp", "calls"),
    "solvers.lp_columns": ("solvers.lp", "columns"),
    "solvers.lp_rows": ("solvers.lp", "rows"),
    "solvers.milp_s": ("solvers.milp", "s"),
    "solvers.milp_calls": ("solvers.milp", "calls"),
    "solvers.milp_vars": ("solvers.milp", "vars"),
    "heights.solve_s": ("heights.solve", "s"),
    "heights.self_s": ("heights.solve", "self_s"),
    "baseline.row_assign_s": ("baseline.row_assign", "s"),
    "legalize.fence_s": ("legalize.fence", "s"),
    "legalize.abacus_rc_s": ("legalize.abacus_rc", "s"),
    "eco.apply_delta_s": ("eco.apply_delta", "s"),
    "eco.repair_rap_s": ("eco.repair_rap", "s"),
    "eco.windows_s": ("eco.windows", "s"),
    "eco.fallback_s": ("eco.fallback", "s"),
    "eco.rap_costs_s": ("cost.rap_costs", "s"),
}


class Run:
    """One benchmark run: its operations, failures, samples and spans.

    Placement workloads place a new netlist per instance (instance ``i``
    of run seed ``s`` uses generator offset ``1000 s + i``) until
    ``seconds`` have passed and at least :data:`MIN_INSTANCES` are done,
    and report every per-instance figure as the median over instances;
    QoR uses the first :data:`MIN_INSTANCES` only.  In a traced run each
    instance is placed untraced, traced and untraced again, which gives
    the tracing overhead on identical inputs; on an ``eco`` workload the
    first instance's flow-(5) result then takes a stream of ECO deltas
    for the rest of the run.
    """

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.library = workload.library()
        self.attempted = 0
        self.failed = 0
        self.tracer = LayerTracer()
        self.n_traced = 0
        self.overheads: list[float] = []
        self.certified: list[bool] = []
        self.samples: dict[str, list[float]] = {}
        self.kernel = ReferenceKernel()
        self.refs: list[float] = []  # reference kernel times
        self.values: dict[str, float] = {}

    def _sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def _attempt(self, fn, name: str, traced: bool = False,
                 calibrated: bool = False):
        """Run one operation; returns (wall seconds, result), or None.

        None means the operation raised.  A ``calibrated`` operation reads
        the host speed just before and after it (:meth:`_timed`).
        """
        self.attempted += 1

        def op():
            if not traced:
                return fn()
            with self.tracer, self.tracer.operation(name):
                return fn()

        try:
            if calibrated:
                dt, result = self._timed(op)
            else:
                t0 = time.perf_counter()
                result = op()
                dt = time.perf_counter() - t0
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        self.n_traced += traced
        print(f"{name}{' (traced)' if traced else ''}: {dt:.3f} s",
              file=sys.stderr)
        return dt, result

    def _timed(self, fn):
        """(wall seconds, result) of ``fn``, host speed read next to it.

        The reference kernel runs just before and just after ``fn``; the
        run's mean reference time turns its median wall times into
        normalized times (``hostspeed``).
        """
        self.refs.append(self.kernel.seconds())
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        self.refs.append(self.kernel.seconds())
        before, after = self.refs[-2:]
        print(f"reference: {1e3 * before:.2f} {1e3 * after:.2f} ms",
              file=sys.stderr)
        return dt, result

    def _verdict(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            print(f"check failed: {problems[:5]}", file=sys.stderr)

    # -- workload phases -----------------------------------------------------

    def warm_up(self) -> None:
        """A tiny instance through the same path, untimed.

        Loads the solver libraries and fills lazy caches so that the first
        timed job does not pay for them.
        """
        self.kernel.seconds()
        design = self.workload.build(self.library, self.seed, scale=0.01)
        init = prepare_initial_placement(
            design, self.library, heights=self.workload.heights
        )
        runner = FlowRunner(init, self.workload.params())
        result = runner.run(FlowKind.FLOW5)
        if self.workload.eco:
            delta = make_eco_delta(
                design, ECO_FRACTION, seed=0, library=self.library
            )
            runner.run_eco(delta, result)

    def build(self, index: int):
        """Generate and size instance ``index``; one ``setup_s`` sample."""
        dt, design = self._timed(lambda: self.workload.build(
            self.library, INSTANCE_STRIDE * self.seed + index
        ))
        self._sample("setup_wall_s", dt)
        return design

    def place(self, design, traced: bool = False, qor: bool = True):
        """One placement job: initial placement plus the workload's flows.

        Returns (wall seconds, runner, results by flow) or None.  With ``qor``
        the prior-art flow (2) also runs, untimed, when the workload does
        not time it, for its HPWL ratio.
        """
        def job():
            init = prepare_initial_placement(
                design, self.library, heights=self.workload.heights
            )
            runner = FlowRunner(init, self.workload.params())
            return runner, [runner.run(kind) for kind in self.workload.flows]

        out = self._attempt(job, "place", traced, calibrated=True)
        if out is None:
            return None
        dt, (runner, results) = out
        results = {r.kind: r for r in results}
        problems = []
        if qor and FlowKind.FLOW2 not in results:
            try:
                results[FlowKind.FLOW2] = runner.run(FlowKind.FLOW2)
            except Exception as exc:
                problems.append(f"flow (2) raised {exc!r}")
        for result in results.values():
            problems += check_flow(runner, result)
            self.certified += rap_outcomes(result.provenance.spans)
        self._verdict(problems)
        return dt, runner, results

    def _record_qor(self, runner, results) -> None:
        """Table IV QoR of one placement job: HPWL ratios against flow 1."""
        base = runner.initial.hpwl
        self._sample("hpwl_overhead", results[FlowKind.FLOW5].hpwl / base)
        self._sample("displacement", results[FlowKind.FLOW5].displacement)
        for kind, key in (
            (FlowKind.FLOW2, "hpwl_overhead_prior"),
            (FlowKind.FLOW3, "flow3.hpwl_overhead"),
            (FlowKind.FLOW4, "flow4.hpwl_overhead"),
        ):
            if kind in results:
                self._sample(key, results[kind].hpwl / base)

    def run_place(self) -> None:
        start = time.perf_counter()
        least = MIN_TRACED_INSTANCES if self.trace else MIN_INSTANCES
        index = 0
        while time.perf_counter() - start < START_CUTOFF_S and (
            time.perf_counter() - start < self.seconds or index < least
        ):
            design = self.build(index)
            # QoR comes from the instances every run places, so that it
            # does not depend on how many more the clock allowed.
            qor = index < least
            if not self.trace:
                out = self.place(design, qor=qor)
                if out is not None:
                    self._sample("place_wall_s", out[0])
                    if qor:
                        self._record_qor(*out[1:])
                index += 1
                continue
            # Untraced, traced, untraced: the traced job is compared with
            # the mean of its neighbours, so neither a cold first job nor
            # a warm second one biases the overhead.
            times = {False: [], True: []}
            for traced in (False, True, False):
                out = self.place(design, traced, qor=False)
                if out is not None:
                    times[traced].append(out[0])
                    if not traced:
                        self._sample("place_wall_s", out[0])
                    if qor and traced:
                        self._record_qor(*out[1:])
            if times[True] and times[False]:
                self.overheads.append(
                    times[True][0] / statistics.mean(times[False]) - 1.0
                )
            index += 1
            if self.workload.eco and out is not None:
                # The last untraced job is the incumbent of the stream,
                # which takes the rest of the run.
                runner, results = out[1:]
                self.stream_eco(design, runner, results[FlowKind.FLOW5],
                                start + self.seconds)
                return

    def stream_eco(self, design, runner, incumbent, deadline: float) -> None:
        """1% deltas through ``run_eco`` until ``deadline``; half traced.

        At least :data:`ECO_MIN_DELTAS` deltas run.

        Closed loop, composed as ``repro eco --repeat`` composes them: each
        delta's result is the next delta's incumbent.
        """
        latencies, traced_flags, fallback_flags = [], [], []
        dirty = moved = stale = 0
        base_seed = ECO_DELTA_SEED + INSTANCE_STRIDE * self.seed
        while (time.perf_counter() < deadline
               or len(latencies) < ECO_MIN_DELTAS):
            delta = make_eco_delta(
                design, ECO_FRACTION, seed=base_seed + len(latencies),
                library=self.library,
            )
            traced = len(latencies) % 2 == 1
            out = self._attempt(
                lambda: runner.run_eco(delta, incumbent), "eco", traced
            )
            if out is None:
                break  # the runner's state is unknown after a crash
            dt, res = out
            latencies.append(dt)
            traced_flags.append(traced)
            fallback_flags.append(res.fallback)
            problems = check_placement(res.placed, res.hpwl)
            if res.fallback:
                problems += check_row_assignment(runner, res.assignment)
            else:
                # A repair keeps the incumbent's row map by design, so its
                # pair counts are the budget; how often that differs from
                # the budget a cold run would derive now is recorded.
                frozen = pair_counts(incumbent.assignment)
                problems += check_row_assignment(
                    runner, res.assignment, budgets={
                        t: frozen.get(t, 0) for t in runner.spec.minority_tracks
                    },
                )
                stale += any(
                    frozen.get(t, 0) != n
                    for t, n in runner.row_budgets.items()
                )
            self._verdict(problems)
            if res.fallback:
                self.certified += rap_outcomes(res.flow.provenance.spans)
                incumbent = res.flow
            else:
                self.certified.append(bool(res.certified))
                dirty += res.n_dirty_clusters
                moved += res.moved_cells
                incumbent = dataclasses.replace(
                    incumbent, hpwl=res.hpwl, placed=res.placed,
                    assignment=res.assignment,
                )
        n = max(1, len(latencies))
        fallbacks = sum(fallback_flags)
        pct, tail = tail_percentile(latencies or [float("nan")])
        self.values.update({
            "eco_stream_s": sum(latencies),
            "eco_p50_ms": 1e3 * statistics.median(latencies or [float("nan")]),
            "eco_tail_ms": 1e3 * tail,
            "eco_tail_pct": pct,
            "eco_deltas": len(latencies),
            "eco_fallback_frac": fallbacks / n,
            "eco.repaired_frac": (len(latencies) - fallbacks) / n,
            "eco.dirty_clusters": dirty / n,
            "eco.moved_cells": moved / n,
            "eco.stale_budget_frac": stale / max(1, n - fallbacks),
        })
        # Overhead from repaired deltas only: a fallback is a full flow and
        # would compare a different kind of work.
        repaired = [
            (t, lat)
            for t, lat, fb in zip(traced_flags, latencies, fallback_flags)
            if not fb
        ]
        on = [lat for t, lat in repaired if t]
        off = [lat for t, lat in repaired if not t]
        if on and off:
            self.overheads.append(
                statistics.median(on) / statistics.median(off) - 1.0
            )

        # Cold placement of the post-stream design: the re-placement the
        # stream replaces and the reference for the streamed HPWL.
        out = self.place(design, qor=False)
        if out is not None:
            self.values["eco_hpwl_drift"] = (
                incumbent.hpwl / out[2][FlowKind.FLOW5].hpwl
            )

    def execute(self) -> None:
        self.warm_up()
        self.run_place()
        for key, samples in self.samples.items():
            self.values.setdefault(key, statistics.median(samples))
        # Wall times at the nominal host speed.  The host switches between
        # a fast and a slow state many times a minute; a job's time sums
        # over both, and so does the mean of the run's reference times.
        ref = statistics.mean(self.refs)
        self.values["host.ref_ms"] = 1e3 * ref
        for key in ("place", "setup"):
            if f"{key}_wall_s" in self.values:
                self.values[f"{key}_s"] = normalized(
                    self.values[f"{key}_wall_s"], ref
                )
        self.values["certified_frac"] = (
            sum(self.certified) / len(self.certified)
            if self.certified else 0.0
        )
        self.values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        self._layer_values()

    # -- traced-run metrics --------------------------------------------------

    def _layer_values(self) -> None:
        # ECO layers are per traced delta, every other layer per traced
        # placement job.
        ops = {
            root: (self.tracer.by_layer(root),
                   max(1, self.tracer.count_roots(root)))
            for root in ("place", "eco")
        }
        v = self.values
        for metric, (layer, key) in LAYER_METRICS.items():
            layers, n_ops = ops["eco" if metric.startswith("eco.") else "place"]
            v[metric] = layers.get(layer, {}).get(key, 0.0) / n_ops
        place_layers = ops["place"][0]
        rap_s = sum(
            place_layers.get(name, {}).get("s", 0.0)
            for name in ("rap.solve", "heights.solve")
        )
        place_total = self.tracer.coverage("place")[1]
        v["rap.share"] = rap_s / place_total if place_total else 0.0
        covered, total = self.tracer.coverage()
        v["trace.coverage"] = covered / total if total else 0.0
        v["trace.overhead"] = (
            statistics.median(self.overheads) if self.overheads else 0.0
        )
        # Layers a workload never reaches read 0.
        for key in ("eco_stream_s", "eco_p50_ms", "eco_tail_ms", "eco_tail_pct",
                    "eco_deltas", "eco_fallback_frac", "eco_hpwl_drift",
                    "eco.repaired_frac", "eco.dirty_clusters",
                    "eco.moved_cells", "eco.stale_budget_frac",
                    "hpwl_overhead_prior",
                    "flow3.hpwl_overhead", "flow4.hpwl_overhead"):
            v.setdefault(key, 0.0)

    def trace_report(self) -> str:
        """Self time per layer, coverage, long uncovered stretches, overhead."""
        layers = self.tracer.by_layer()
        covered, total = self.tracer.coverage()
        lines = [
            f"traced run: {self.n_traced} traced of {self.attempted} "
            "operations",
            f"{'layer':28s} {'calls':>6s} {'total s':>9s} {'self s':>9s} "
            f"{'self %':>7s}",
        ]
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            share = 100.0 * row["self_s"] / total if total else 0.0
            lines.append(
                f"{name:28s} {row['calls']:6d} {row['s']:9.3f} "
                f"{row['self_s']:9.3f} {share:6.1f}%"
            )
        lines.append(
            f"coverage: {covered:.3f} of {total:.3f} s "
            f"({100.0 * self.values['trace.coverage']:.1f}%)"
        )
        gaps = self.tracer.gaps(1.0)
        for root, before, after, seconds in gaps:
            lines.append(
                f"uncovered: {seconds:.3f} s in {root} between {before} "
                f"and {after}"
            )
        if not gaps:
            lines.append("uncovered: no stretch of 1 s or more")
        lines.append(
            f"tracing overhead: {100.0 * self.values['trace.overhead']:+.1f}% "
            "(traced over untraced time on the same work, median)"
        )
        return "\n".join(lines)
