"""Prior-art row-constraint legalization: Abacus modified for row islands.

Flows (2) and (4) use the legalization of Lin & Chang [10]: starting from
the initial placement, each minority cell's preferred y is moved to its
assigned minority row pair, then Abacus runs per row class — minority cells
over minority rows only, majority cells over majority rows only.  The step
*considers the initial placement* (preferred positions drive the cluster
collapse), which is why it yields the small displacements of Table IV at
the cost of wirelength the fence-based method recovers.
"""

from __future__ import annotations

import numpy as np

from repro.core.legalize_rc import RcLegalizationResult
from repro.placement.db import PlacedDesign
from repro.placement.legalize import abacus_legalize
from repro.utils.timer import StageTimes


def abacus_rc_legalize(
    placed: PlacedDesign,
    classes: dict[float, tuple[np.ndarray, np.ndarray]],
) -> RcLegalizationResult:
    """Run the [10]-style legalization in-place on the mixed-frame placement.

    ``classes`` maps each minority track to ``(cell_indices,
    cell_to_pair)`` — the class's instance indices and their assigned
    row pairs from the row assignment.  [10] moves every minority cell
    to its *assigned* row: each minority pair legalizes independently
    with only that pair's two rows, so the row-assignment decision is
    honored exactly and its quality (or lack of it) shows up in
    displacement and wirelength.  Majority cells legalize over the rows
    no class owns.
    """
    times = StageTimes()
    x0, y0 = placed.clone_positions()
    fp = placed.floorplan
    pairs = fp.row_pairs()
    pair_center = np.array([p.center_y for p in pairs])

    with times.measure("legalize"):
        all_minority = []
        for indices, cell_to_pair in classes.values():
            indices = np.asarray(indices, dtype=int)
            cell_to_pair = np.asarray(cell_to_pair, dtype=int)
            all_minority.append(indices)
            target = pair_center[cell_to_pair]
            placed.y[indices] = target - placed.heights[indices] / 2.0
            for pair_index in np.unique(cell_to_pair):
                members = indices[cell_to_pair == pair_index]
                pair = pairs[pair_index]
                abacus_legalize(placed, [pair.lower, pair.upper], members)

        minority_tracks = set(classes)
        majority_rows = [
            r for r in fp.rows if r.track_height not in minority_tracks
        ]
        n = placed.design.num_instances
        mask = np.zeros(n, dtype=bool)
        mask[np.concatenate(all_minority)] = True
        majority_indices = np.flatnonzero(~mask)
        if len(majority_indices):
            abacus_legalize(placed, majority_rows, majority_indices)

    cx0 = x0 + placed.widths / 2.0
    cy0 = y0 + placed.heights / 2.0
    cx1, cy1 = placed.centers()
    displacement = float(np.abs(cx1 - cx0).sum() + np.abs(cy1 - cy0).sum())
    return RcLegalizationResult(displacement=displacement, times=times)
