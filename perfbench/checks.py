"""Output checks run on every operation, outside the timed region.

The row-assignment check is plain numpy over the design's own masters; it
does not trust the solver's bookkeeping.
"""

from __future__ import annotations

import math

import numpy as np

from repro.placement.hpwl import hpwl_total


def pair_counts(assignment) -> dict[float, int]:
    """Track -> number of pairs the assignment gives that track."""
    tracks = np.asarray(assignment.pair_tracks, dtype=float)
    return {float(t): int(n) for t, n in zip(*np.unique(tracks, return_counts=True))}


def check_row_assignment(runner, assignment, budgets=None) -> list[str]:
    """Violations of the row assignment ``assignment`` on ``runner``.

    * every pair hosts exactly one track of the runner's height spec, and
      each minority cell sits in a pair of its own track (so no pair hosts
      two classes);
    * each class owns exactly ``budgets[track]`` pairs, by default
      ``runner.row_budgets``;
    * the original-master width assigned to a pair is within
      ``row_fill`` times its capacity.
    """
    design = runner.initial.design
    capacity = np.asarray(runner.initial.pair_capacity, dtype=float)
    tracks = np.asarray(assignment.pair_tracks, dtype=float)
    if tracks.shape != capacity.shape:
        return [f"{len(tracks)} pair tracks for {len(capacity)} pairs"]
    problems = []
    unknown = sorted(set(tracks.tolist()) - set(runner.spec.tracks))
    if unknown:
        problems.append(f"pairs host tracks {unknown} outside the spec")
    if budgets is None:
        budgets = runner.row_budgets
    views = assignment.by_track or {
        runner.spec.minority_tracks[0]: (
            assignment.cluster_to_pair,
            assignment.cell_to_pair,
        )
    }
    limit = runner.params.row_fill * capacity
    for track, budget in budgets.items():
        owned = int(np.count_nonzero(tracks == track))
        if owned != budget:
            problems.append(f"{track:g}T owns {owned} pairs, budget {budget}")
        if track not in views:
            problems.append(f"no assignment for {track:g}T")
            continue
        cell_to_pair = np.asarray(views[track][1], dtype=np.int64)
        cells = np.flatnonzero(design.minority_mask(track))
        if cell_to_pair.shape != cells.shape:
            problems.append(
                f"{track:g}T: {len(cell_to_pair)} assigned of {len(cells)}"
            )
            continue
        if len(cells) == 0:
            continue
        if cell_to_pair.min() < 0 or cell_to_pair.max() >= len(tracks):
            problems.append(f"{track:g}T: pair index out of range")
            continue
        misplaced = int(np.count_nonzero(tracks[cell_to_pair] != track))
        if misplaced:
            problems.append(f"{track:g}T: {misplaced} cells in foreign pairs")
        widths = np.array(
            [design.instances[i].master.width for i in cells], dtype=float
        )
        load = np.bincount(cell_to_pair, weights=widths, minlength=len(tracks))
        over = np.flatnonzero(load > limit + 1e-6)
        if len(over):
            p = int(over[0])
            problems.append(
                f"{track:g}T: {len(over)} pairs over row_fill capacity "
                f"(pair {p}: {load[p]:g} > {limit[p]:g})"
            )
    return problems


def check_placement(placed, reported_hpwl: float) -> list[str]:
    """Legality plus the reported HPWL against a fresh ``hpwl_total``."""
    problems = [f"illegal: {v}" for v in placed.check_legal()[:3]]
    actual = hpwl_total(placed)
    if not math.isclose(reported_hpwl, actual, rel_tol=1e-9, abs_tol=1e-6):
        problems.append(f"reported HPWL {reported_hpwl!r} != {actual!r}")
    return problems


def check_flow(runner, result) -> list[str]:
    """Every check that applies to one ``FlowResult``."""
    problems = check_placement(result.placed, result.hpwl)
    if result.assignment is not None:
        problems += check_row_assignment(runner, result.assignment)
    return problems
