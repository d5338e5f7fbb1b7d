"""Shared experiment runner: build a testcase, run flows, collect metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import RunConfig
from repro.core.flows import (
    FlowKind,
    FlowResult,
    FlowRunner,
    InitialPlacement,
    prepare_initial_placement,
)
from repro.experiments.testcases import (
    NHeightTestcaseSpec,
    TestcaseSpec,
    build_nheight_testcase,
    build_testcase,
)
from repro.netlist.db import Design
from repro.techlib.asap7 import TRACK_6T, make_asap7_library
from repro.techlib.cells import StdCellLibrary


@dataclass
class TestcaseRun:
    """All flow artifacts of one testcase."""

    spec: TestcaseSpec | NHeightTestcaseSpec
    design: Design
    initial: InitialPlacement
    runner: FlowRunner
    results: dict[FlowKind, FlowResult] = field(default_factory=dict)

    def run(self, kind: FlowKind) -> FlowResult:
        if kind not in self.results:
            self.results[kind] = self.runner.run(kind)
        return self.results[kind]


def resolve_run_config(config: RunConfig | None) -> RunConfig:
    """The run configuration of an entry point: ``config`` or the default."""
    return config or RunConfig()


def run_testcase(
    spec: TestcaseSpec | NHeightTestcaseSpec,
    flows: tuple[FlowKind, ...],
    config: RunConfig | None = None,
    *,
    library: StdCellLibrary | None = None,
    initial: InitialPlacement | None = None,
) -> TestcaseRun:
    """Build the testcase, place it, run the requested flows.

    ``config`` carries scale, method parameters, resilience policy and
    floorplan knobs; ``initial`` short-circuits netlist generation and
    initial placement with a prebuilt (e.g. cache-loaded) Flow-(1)
    artifact.
    """
    config = resolve_run_config(config)
    if initial is None:
        if isinstance(spec, NHeightTestcaseSpec):
            if library is None:
                library = make_asap7_library(
                    tracks=(TRACK_6T,) + spec.minority_tracks[::-1]
                )
            design = build_nheight_testcase(spec, library, scale=config.scale)
        else:
            library = library or make_asap7_library()
            design = build_testcase(spec, library, scale=config.scale)
        initial = prepare_initial_placement(
            design,
            library,
            utilization=config.utilization,
            aspect_ratio=config.aspect_ratio,
            heights=config.params.heights,
        )
    else:
        design = initial.design
    runner = FlowRunner(
        initial,
        config.params,
        policy=config.policy,
        fault_plan=config.fault_plan,
    )
    run = TestcaseRun(spec=spec, design=design, initial=initial, runner=runner)
    for kind in flows:
        run.run(kind)
    return run
