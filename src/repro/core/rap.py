"""Row Assignment Problem: the reference ILP (paper Eqs. 1-5) and its result.

Variables: ``x_cr`` (cluster c assigned to row pair r) and the row
indicators ``y_r`` that linearize Eq. (5)'s ``max_c x_cr``:

* min  sum f_cr x_cr                                   (Eqs. 1-2)
* sum_r x_cr = 1                  for every cluster    (Eq. 3)
* sum_c w(c) x_cr <= w(r) y_r     for every row pair   (Eq. 4, linking)
* y_r <= sum_c x_cr               ("minority row" means hosting a cluster)
* sum_r y_r = N_minR                                   (Eq. 5)

"Row" everywhere means a *pair* of physical rows (N-well sharing rule).
:func:`build_rap_model` is the literal one-class model; solves run
through :func:`~repro.core.sparse_rap.solve_rap_sparse`, the
class-indexed engine.  A greedy assignment heuristic is included as warm
start / ablation reference.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.solvers.milp import MilpModel
from repro.utils.errors import InfeasibleError, ValidationError

# The benchmark's layer tracer (perfbench/layers.py) patches ``solve_milp``
# on this module; it is imported only so that table still resolves (RAP
# solves run in repro.core.sparse_rap).  A later benchmark change can
# drop it.
from repro.solvers.milp import solve_milp  # noqa: F401

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RowAssignment:
    """Solution of the RAP.

    ``pair_tracks[p]`` is the track height of pair ``p``;
    ``cluster_to_pair[c]`` the minority pair hosting cluster ``c``;
    ``cell_to_pair[i]`` the same per minority cell (via its cluster label).

    ``cluster_to_pair`` / ``cell_to_pair`` are concatenated class-major
    in spec order; ``classes`` records the split, one ``(track,
    clusters, cells)`` entry per minority class, and :attr:`by_track`
    views each class's slices.
    """

    pair_tracks: list[float]
    minority_pairs: np.ndarray
    cluster_to_pair: np.ndarray
    cell_to_pair: np.ndarray
    objective: float
    ilp_runtime_s: float
    num_variables: int
    solver_nodes: int = 0
    classes: tuple[tuple[float, int, int], ...] = ()

    @property
    def n_minority_rows(self) -> int:
        return len(self.minority_pairs)

    @property
    def by_track(self) -> dict[float, tuple[np.ndarray, np.ndarray]]:
        """Track -> that class's ``(cluster_to_pair, cell_to_pair)``."""
        out: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        c0 = i0 = 0
        for track, n_clusters, n_cells in self.classes:
            out[track] = (
                self.cluster_to_pair[c0:c0 + n_clusters],
                self.cell_to_pair[i0:i0 + n_cells],
            )
            c0 += n_clusters
            i0 += n_cells
        return out

    @classmethod
    def from_classes(
        cls,
        by_track: "dict[float, tuple[np.ndarray, np.ndarray]]",
        majority_track: float,
        n_pairs: int,
        objective: float,
        ilp_runtime_s: float = 0.0,
        num_variables: int = 0,
        solver_nodes: int = 0,
    ) -> "RowAssignment":
        """Assemble an assignment from per-class maps (spec order).

        ``by_track`` maps each minority track to its ``(cluster_to_pair,
        cell_to_pair)``; every pair a class uses takes that class's
        track.  Raises :class:`InfeasibleError` when a cluster is left
        unassigned (``-1``) or two classes claim one pair.
        """
        pair_tracks = [majority_track] * n_pairs
        opened_all: list[np.ndarray] = []
        for track, (cluster_to_pair, _) in by_track.items():
            if np.any(cluster_to_pair < 0):
                raise InfeasibleError(
                    f"RAP solution leaves {track:g}T cluster(s) unassigned"
                )
            opened = np.unique(cluster_to_pair)
            for p in opened.tolist():
                if pair_tracks[p] != majority_track:
                    raise InfeasibleError(
                        f"pair {p} claimed by both {pair_tracks[p]}T and "
                        f"{track}T"
                    )
                pair_tracks[p] = track
            opened_all.append(opened)
        return cls(
            pair_tracks=pair_tracks,
            minority_pairs=np.unique(np.concatenate(opened_all)),
            cluster_to_pair=np.concatenate([c for c, _ in by_track.values()]),
            cell_to_pair=np.concatenate([c for _, c in by_track.values()]),
            objective=objective,
            ilp_runtime_s=ilp_runtime_s,
            num_variables=num_variables,
            solver_nodes=solver_nodes,
            classes=_layout(by_track),
        )


def _layout(
    by_track: "dict[float, tuple[np.ndarray, np.ndarray]]",
) -> tuple[tuple[float, int, int], ...]:
    """The ``classes`` split of per-class ``(cluster_to_pair, cell_to_pair)``."""
    return tuple(
        (track, len(clusters), len(cells))
        for track, (clusters, cells) in by_track.items()
    )


def required_minority_pairs(
    minority_width_total: float, pair_capacity: float, row_fill: float = 1.0
) -> int:
    """Minimum N_minR that can physically hold the minority cells."""
    if pair_capacity <= 0:
        raise ValidationError("pair capacity must be positive")
    usable = pair_capacity * row_fill
    return max(1, int(np.ceil(minority_width_total / usable)))


def validate_rap_inputs(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
) -> tuple[list[int], int]:
    """Shared input validation of the RAP builders and solvers.

    Returns ``(per-class cluster counts, n_pairs)``.
    """
    if not f_by_class:
        raise ValidationError("need at least one height class")
    if not (len(f_by_class) == len(width_by_class) == len(budgets)):
        raise ValidationError("per-class inputs must align")
    n_p = f_by_class[0].shape[1]
    if pair_capacity.shape != (n_p,):
        raise ValidationError("pair_capacity shape mismatch")
    n_cs: list[int] = []
    for h, (f, w, budget) in enumerate(
        zip(f_by_class, width_by_class, budgets)
    ):
        n_c, n_p_h = f.shape
        if n_p_h != n_p:
            raise ValidationError(
                f"class {h}: cost matrix pair-count mismatch"
            )
        if w.shape != (n_c,):
            raise ValidationError(f"class {h}: cluster_width shape mismatch")
        if not (1 <= budget <= n_p):
            raise InfeasibleError(
                f"class {h}: budget {budget} outside [1, {n_p}] "
                f"(must open between 1 and all {n_p} row pairs)"
            )
        n_cs.append(n_c)
    if sum(budgets) > n_p:
        raise InfeasibleError(
            f"row budgets {budgets} total {sum(budgets)} > {n_p} pairs"
        )
    return n_cs, n_p


def build_rap_model(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority_rows: int,
) -> MilpModel:
    """Assemble the MILP of Eqs. (1)-(5).

    Variable layout: ``x`` flattened row-major (cluster-major) first, then
    the ``y_r`` indicators.
    """
    validate_rap_inputs([f], [cluster_width], pair_capacity, [n_minority_rows])
    n_c, n_p = f.shape
    n_x = n_c * n_p
    n_vars = n_x + n_p
    c = np.concatenate([f.ravel(), np.zeros(n_p)])

    # Eq. (3): each cluster assigned exactly once.
    rows = np.repeat(np.arange(n_c), n_p)
    cols = np.arange(n_x)
    a_assign = sp.coo_matrix(
        (np.ones(n_x), (rows, cols)), shape=(n_c, n_vars)
    )
    b_assign = np.ones(n_c)

    # Eq. (5): exactly N_minR minority pairs.
    a_count = sp.coo_matrix(
        (np.ones(n_p), (np.zeros(n_p), n_x + np.arange(n_p))),
        shape=(1, n_vars),
    )
    b_count = np.array([float(n_minority_rows)])

    # Eq. (4) + linking: sum_c w_c x_cr - cap_r y_r <= 0.
    x_rows = np.tile(np.arange(n_p), n_c)
    x_cols = np.arange(n_x)
    x_vals = np.repeat(cluster_width, n_p)
    y_rows = np.arange(n_p)
    y_cols = n_x + np.arange(n_p)
    y_vals = -pair_capacity
    a_cap = sp.coo_matrix(
        (
            np.concatenate([x_vals, y_vals]),
            (np.concatenate([x_rows, y_rows]), np.concatenate([x_cols, y_cols])),
        ),
        shape=(n_p, n_vars),
    )
    b_cap = np.zeros(n_p)

    # Eq. (5) semantics: an open row must host at least one cluster
    # (y_r <= sum_c x_cr), matching the paper's max_c x_cr definition.
    host_rows = np.concatenate([x_rows, y_rows])
    host_cols = np.concatenate([x_cols, y_cols])
    host_vals = np.concatenate([-np.ones(n_x), np.ones(n_p)])
    a_host = sp.coo_matrix(
        (host_vals, (host_rows, host_cols)), shape=(n_p, n_vars)
    )
    b_host = np.zeros(n_p)

    a_ub = sp.vstack([a_cap, a_host]).tocsr()
    b_ub = np.concatenate([b_cap, b_host])
    a_eq = sp.vstack([a_assign, a_count]).tocsr()
    b_eq = np.concatenate([b_assign, b_count])

    return MilpModel(
        c=c,
        integrality=np.ones(n_vars),
        lb=np.zeros(n_vars),
        ub=np.ones(n_vars),
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        name_factory=lambda: [
            f"x_{k // n_p}_{k % n_p}" for k in range(n_x)
        ]
        + [f"y_{r}" for r in range(n_p)],
    )


def greedy_rap(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_minority_rows: int,
) -> np.ndarray | None:
    """Greedy warm start: returns cluster -> pair, or None when stuck.

    Clusters are handled widest-first; each goes to the cheapest feasible
    already-open pair, opening a new pair (cheapest for this cluster) while
    fewer than ``n_minority_rows`` are open.
    """
    n_c, n_p = f.shape
    open_pairs: list[int] = []
    remaining = pair_capacity.astype(float).copy()
    assignment = np.full(n_c, -1, dtype=int)
    for cluster in np.argsort(-cluster_width, kind="stable"):
        width = cluster_width[cluster]
        feasible_open = [p for p in open_pairs if remaining[p] >= width]
        best_open = (
            min(feasible_open, key=lambda p: f[cluster, p])
            if feasible_open
            else None
        )
        candidate_new = None
        if len(open_pairs) < n_minority_rows:
            closed = [
                p
                for p in range(n_p)
                if p not in open_pairs and remaining[p] >= width
            ]
            if closed:
                candidate_new = min(closed, key=lambda p: f[cluster, p])
        choice = None
        if best_open is not None and candidate_new is not None:
            choice = (
                candidate_new
                if f[cluster, candidate_new] < f[cluster, best_open]
                else best_open
            )
        else:
            choice = best_open if best_open is not None else candidate_new
        if choice is None:
            return None
        if choice not in open_pairs:
            open_pairs.append(choice)
        assignment[cluster] = choice
        remaining[choice] -= width
    if len(open_pairs) != n_minority_rows:
        # Fewer pairs opened than required: no warm start with exactly
        # N_minR rows exists on this path, so the exact solve runs without.
        return None
    return assignment


def dense_assignment(
    x: np.ndarray, n_clusters: int, n_pairs: int
) -> np.ndarray:
    """Cluster -> pair map of a dense-layout solution vector.

    A cluster whose row does not hold exactly one chosen pair maps to
    ``-1``, which :meth:`RowAssignment.from_classes` rejects.
    """
    chosen = np.round(x[: n_clusters * n_pairs]).reshape(n_clusters, n_pairs)
    assignment = np.argmax(chosen, axis=1)
    assignment[chosen.sum(axis=1) != 1] = -1
    return assignment


def repair_assignment(
    base: RowAssignment,
    cluster_to_pair: np.ndarray,
    labels: np.ndarray,
    objective: float,
    runtime_s: float,
    solver_nodes: int = 0,
) -> RowAssignment:
    """Rebind clusters to pairs under the incumbent's *frozen* row map.

    ECO repair (:func:`repro.core.sparse_rap.solve_rap_sparse` with
    ``dirty_clusters=``) moves clusters only between the incumbent's
    used pairs, so the repaired assignment must keep ``base``'s
    ``pair_tracks`` and ``minority_pairs`` verbatim — including a pair
    the repair vacated, which stays a minority pair so the mixed
    floorplan (and every clean cell's row) is unchanged.  Recomputing
    the open-pair set from the new ``cluster_to_pair`` (what
    :meth:`RowAssignment.from_classes` does) would silently unfreeze the
    row map; this constructor makes the frozen semantics explicit.
    """
    cluster_to_pair = np.asarray(cluster_to_pair, dtype=int)
    if cluster_to_pair.shape != base.cluster_to_pair.shape:
        raise ValidationError(
            "repair must keep the cluster count "
            f"({cluster_to_pair.shape} vs {base.cluster_to_pair.shape})"
        )
    if not np.all(np.isin(cluster_to_pair, base.minority_pairs)):
        raise ValidationError(
            "repair assigned a cluster outside the incumbent's used pairs"
        )
    return RowAssignment(
        pair_tracks=list(base.pair_tracks),
        minority_pairs=base.minority_pairs.copy(),
        cluster_to_pair=cluster_to_pair,
        cell_to_pair=cluster_to_pair[np.asarray(labels, dtype=int)],
        objective=float(objective),
        ilp_runtime_s=float(runtime_s),
        num_variables=base.num_variables,
        solver_nodes=solver_nodes,
        classes=base.classes,
    )
