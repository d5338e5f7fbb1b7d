"""N-track-height row assignment behind the :class:`HeightSpec` API.

The paper's formulation (and this repo's original core) hardcodes a
minority/majority dichotomy: one tall track forms row islands inside a
sea of short rows.  This module generalizes that to an ordered set of
*height classes*: the majority track plus ``K >= 1`` minority tracks,
each with its own row budget (forced, or derived from the class's cell
area and a fill target — the N-height generalization of Eq. 5).

The joint MILP is the natural height-indexed extension of Eqs. (1)-(5):

* ``x[h, c, r]`` — cluster ``c`` of class ``h`` assigned to row pair
  ``r`` (variables laid out class-major, then the per-class ``y``
  blocks);
* per-class assignment and row-count constraints (Eqs. 3 and 5);
* per-(class, pair) capacity linking and host rows (Eq. 4);
* pair exclusivity ``sum_h y[h, r] <= 1`` — a pair carries one track
  height (this constraint vanishes at ``K = 1``, where the model is
  *delegated* to :func:`repro.core.rap.build_rap_model` and therefore
  reproduces the two-height path bit for bit).

The sparse engine of :mod:`repro.core.sparse_rap` extends naturally:
per-class candidate masks, a strengthened joint LP whose reduced costs
prune columns against a greedy incumbent, and a pricing/repair loop
that certifies the restricted optimum equals the full joint optimum.

:func:`solve_rap_resilient` is the one resilient chain for every ``K``:
backend fallback, relaxation ladder and optional rung racing, with a
terminal simulated-annealing rung (:func:`anneal_nheight`) for
``K >= 2`` instances where every MILP backend times out.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.core.cost import cheapest_pairs_mask
from repro.core.rap import (
    RowAssignment,
    assignment_to_vector,
    build_rap_model,
    dense_assignment,
    greedy_rap,
    required_minority_pairs,
)
from repro.core.sparse_rap import (
    SMALL_PROBLEM_VARIABLES,
    SparseSolveStats,
    adaptive_candidate_count,
    solve_rap_sparse,
)
from repro.obs.convergence import observe
from repro.obs.metrics import MetricsRegistry, current_registry, use_registry
from repro.obs.trace import span
from repro.placement.shm import SHM_MIN_BYTES, publish_arrays
from repro.solvers.milp import MilpModel, MilpSolution, MilpStatus, solve_milp
from repro.utils.errors import (
    InfeasibleError,
    SolverError,
    StageTimeoutError,
    ValidationError,
)
from repro.utils.resilience import (
    EXACT_BACKENDS,
    Deadline,
    FlowProvenance,
    ResiliencePolicy,
)
from repro.utils.supervise import (
    CancelToken,
    RaceCancelled,
    RaceEntry,
    get_shared_pool,
    race,
)

logger = logging.getLogger(__name__)

_SAFETY_ROUNDS = 12

#: Simulated-annealing iteration budget: base + per-cluster term, capped.
_SA_BASE_ITERATIONS = 2000
_SA_PER_CLUSTER = 150
_SA_MAX_ITERATIONS = 40000


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeightClass:
    """One minority track height and its row budget.

    ``n_rows`` forces the class's row-pair count (the per-class Eq. 5
    right-hand side); ``None`` derives it from the class's total cell
    width and ``fill_target`` (how full this class's rows may be) with
    :func:`repro.core.rap.required_minority_pairs`.
    """

    track: float
    n_rows: int | None = None
    fill_target: float = 0.6

    def __post_init__(self) -> None:
        if self.track <= 0:
            raise ValidationError(f"track height must be > 0, got {self.track}")
        if self.n_rows is not None and self.n_rows < 1:
            raise ValidationError("n_rows must be >= 1 when forced")
        if not (0.0 < self.fill_target <= 1.0):
            raise ValidationError("fill_target must be in (0, 1]")

    def to_dict(self) -> dict:
        return {
            "track": self.track,
            "n_rows": self.n_rows,
            "fill_target": self.fill_target,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HeightClass":
        return cls(
            track=float(d["track"]),
            n_rows=None if d.get("n_rows") is None else int(d["n_rows"]),
            fill_target=float(d.get("fill_target", 0.6)),
        )


@dataclass(frozen=True)
class HeightSpec:
    """Ordered set of track heights: one majority + ``K >= 1`` minorities.

    The majority track fills every row pair no minority class claims;
    each minority class forms row islands with its own budget.  A
    two-entry spec (``K = 1``) is the paper's exact setting; the solvers
    hand it to the two-height engine.
    """

    majority: float
    minority: tuple[HeightClass, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        classes = tuple(
            c if isinstance(c, HeightClass) else HeightClass(track=float(c))
            for c in self.minority
        )
        object.__setattr__(self, "minority", classes)
        if self.majority <= 0:
            raise ValidationError("majority track height must be > 0")
        if not classes:
            raise ValidationError("HeightSpec needs at least one minority class")
        tracks = [c.track for c in classes]
        if len(set(tracks)) != len(tracks):
            raise ValidationError(f"duplicate minority tracks: {tracks}")
        if self.majority in tracks:
            raise ValidationError(
                f"majority track {self.majority} cannot also be a minority"
            )

    # -- views ------------------------------------------------------------

    @property
    def minority_tracks(self) -> tuple[float, ...]:
        return tuple(c.track for c in self.minority)

    @property
    def tracks(self) -> tuple[float, ...]:
        """All tracks, majority first, minorities in spec order."""
        return (self.majority,) + self.minority_tracks

    @property
    def n_classes(self) -> int:
        return len(self.minority)

    @property
    def is_two_height(self) -> bool:
        return len(self.minority) == 1

    def class_for(self, track: float) -> HeightClass:
        for c in self.minority:
            if c.track == track:
                return c
        raise ValidationError(f"no minority class with track {track}")

    def budgets(
        self, width_by_track: dict[float, float], pair_capacity: float
    ) -> dict[float, int]:
        """Per-class row-pair budget: forced, else derived from area.

        ``width_by_track`` maps each minority track to its total cell
        width; ``pair_capacity`` is the (minimum) pair capacity used by
        the derivation, matching the two-height rule.
        """
        out: dict[float, int] = {}
        for c in self.minority:
            if c.n_rows is not None:
                out[c.track] = c.n_rows
            else:
                out[c.track] = required_minority_pairs(
                    float(width_by_track[c.track]),
                    float(pair_capacity),
                    c.fill_target,
                )
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def two_height(
        cls,
        majority_track: float = 6.0,
        minority_track: float = 7.5,
        n_minority_rows: int | None = None,
        minority_fill_target: float = 0.6,
    ) -> "HeightSpec":
        """The paper's setting as a spec."""
        return cls(
            majority=majority_track,
            minority=(
                HeightClass(
                    track=minority_track,
                    n_rows=n_minority_rows,
                    fill_target=minority_fill_target,
                ),
            ),
        )

    @classmethod
    def parse(
        cls,
        tracks_text: str,
        budgets_text: str | None = None,
        fill_target: float = 0.6,
    ) -> "HeightSpec":
        """Parse CLI syntax: ``--heights 6,7.5,9 --row-budgets 7.5=3,9=2``.

        The first track is the majority.  Budgets are optional and may be
        given either as ``track=count`` entries or positionally in
        minority order; omitted budgets derive from area at
        ``fill_target``.
        """
        try:
            tracks = [float(t) for t in tracks_text.split(",") if t.strip()]
        except ValueError as exc:
            raise ValidationError(f"bad --heights value: {tracks_text!r}") from exc
        if len(tracks) < 2:
            raise ValidationError(
                "--heights needs at least two tracks (majority first)"
            )
        majority, minority = tracks[0], tracks[1:]
        budgets: dict[float, int] = {}
        if budgets_text:
            entries = [e for e in budgets_text.split(",") if e.strip()]
            try:
                if any("=" in e for e in entries):
                    for e in entries:
                        track_s, count_s = e.split("=", 1)
                        budgets[float(track_s)] = int(count_s)
                else:
                    if len(entries) != len(minority):
                        raise ValidationError(
                            f"--row-budgets has {len(entries)} entries for "
                            f"{len(minority)} minority tracks"
                        )
                    for track, e in zip(minority, entries):
                        budgets[track] = int(e)
            except (ValueError, TypeError) as exc:
                raise ValidationError(
                    f"bad --row-budgets value: {budgets_text!r}"
                ) from exc
            unknown = set(budgets) - set(minority)
            if unknown:
                raise ValidationError(
                    f"--row-budgets names non-minority tracks: {sorted(unknown)}"
                )
        return cls(
            majority=majority,
            minority=tuple(
                HeightClass(
                    track=t,
                    n_rows=budgets.get(t),
                    fill_target=fill_target,
                )
                for t in minority
            ),
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "majority": self.majority,
            "minority": [c.to_dict() for c in self.minority],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HeightSpec":
        return cls(
            majority=float(d["majority"]),
            minority=tuple(
                HeightClass.from_dict(c) for c in d["minority"]
            ),
        )


# ---------------------------------------------------------------------------
# Joint model (K >= 2); K = 1 delegates to the two-height builder
# ---------------------------------------------------------------------------


def validate_nheight_inputs(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
) -> tuple[list[int], int]:
    """Shared validation; returns (per-class cluster counts, n_pairs)."""
    if not f_by_class:
        raise ValidationError("need at least one height class")
    if not (len(f_by_class) == len(width_by_class) == len(budgets)):
        raise ValidationError("per-class inputs must align")
    n_p = len(pair_capacity)
    n_cs: list[int] = []
    for h, (f, w, budget) in enumerate(
        zip(f_by_class, width_by_class, budgets)
    ):
        n_c, n_p_h = f.shape
        if n_p_h != n_p:
            raise ValidationError(f"class {h}: cost matrix pair-count mismatch")
        if w.shape != (n_c,):
            raise ValidationError(f"class {h}: cluster_width shape mismatch")
        if not (1 <= budget <= n_p):
            raise InfeasibleError(
                f"class {h}: budget {budget} outside [1, {n_p}]"
            )
        n_cs.append(n_c)
    if sum(budgets) > n_p:
        raise InfeasibleError(
            f"row budgets {budgets} total {sum(budgets)} > {n_p} pairs"
        )
    return n_cs, n_p


@dataclass(frozen=True)
class SparseNHeightModel:
    """Column-compressed joint N-height model + index maps.

    Variable layout: per-class candidate ``x`` blocks in class order,
    then per-class ``y`` blocks over each class's candidate pair union.
    """

    model: MilpModel
    cand_cluster: list[np.ndarray]
    cand_pair: list[np.ndarray]
    union_pairs: list[np.ndarray]
    n_clusters: list[int]
    n_pairs: int

    @property
    def x_sizes(self) -> list[int]:
        return [len(c) for c in self.cand_cluster]

    def assignment_of(self, x: np.ndarray) -> list[np.ndarray]:
        """Decode a solution vector into per-class cluster -> pair maps."""
        out: list[np.ndarray] = []
        offset = 0
        for h, n_c in enumerate(self.n_clusters):
            n_x = len(self.cand_cluster[h])
            chosen = np.flatnonzero(
                np.round(x[offset:offset + n_x]) > 0.5
            )
            assignment = np.full(n_c, -1, dtype=int)
            assignment[self.cand_cluster[h][chosen]] = self.cand_pair[h][chosen]
            out.append(assignment)
            offset += n_x
        return out

    def encode_assignment(
        self, assignment: list[np.ndarray]
    ) -> np.ndarray | None:
        """Model vector for per-class maps; None when off-candidate."""
        if len(assignment) != len(self.n_clusters):
            return None
        x = np.zeros(self.model.num_vars)
        offset = 0
        y_offset = sum(self.x_sizes)
        for h, n_c in enumerate(self.n_clusters):
            a = np.asarray(assignment[h], dtype=int)
            if a.shape != (n_c,):
                return None
            if np.any(a < 0) or np.any(a >= self.n_pairs):
                return None
            keys = self.cand_cluster[h] * self.n_pairs + self.cand_pair[h]
            want = np.arange(n_c) * self.n_pairs + a
            idx = np.searchsorted(keys, want)
            if np.any(idx >= len(keys)) or np.any(keys[idx] != want):
                return None
            x[offset + idx] = 1.0
            slots = np.searchsorted(self.union_pairs[h], np.unique(a))
            x[y_offset + slots] = 1.0
            offset += len(keys)
            y_offset += len(self.union_pairs[h])
        return x


def _build_restricted_nheight(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    masks: list[np.ndarray],
    strengthen: bool = False,
) -> SparseNHeightModel:
    """Assemble the (restricted) joint MILP for ``K >= 2`` classes."""
    n_cs, n_p = validate_nheight_inputs(
        f_by_class, width_by_class, pair_capacity, budgets
    )
    K = len(f_by_class)
    cand_cluster: list[np.ndarray] = []
    cand_pair: list[np.ndarray] = []
    unions: list[np.ndarray] = []
    for h in range(K):
        if masks[h].shape != f_by_class[h].shape:
            raise ValidationError(f"class {h}: candidate mask shape mismatch")
        if not masks[h].any(axis=1).all():
            raise ValidationError(
                f"class {h}: every cluster needs at least one candidate"
            )
        cidx, pidx = np.nonzero(masks[h])
        cand_cluster.append(cidx)
        cand_pair.append(pidx)
        unions.append(np.unique(pidx))

    x_sizes = [len(c) for c in cand_cluster]
    y_sizes = [len(u) for u in unions]
    n_x_total = sum(x_sizes)
    n_vars = n_x_total + sum(y_sizes)
    x_offsets = np.concatenate([[0], np.cumsum(x_sizes)])[:K]
    y_offsets = n_x_total + np.concatenate([[0], np.cumsum(y_sizes)])[:K]

    c = np.concatenate(
        [f_by_class[h][masks[h]] for h in range(K)]
        + [np.zeros(y_sizes[h]) for h in range(K)]
    )

    ub_blocks, b_ub_blocks = [], []

    # Per-class Eq. (3) rows (every cluster assigned once) stacked over
    # the classes, then per-class Eq. (5) count rows.
    row0 = sum(n_cs)
    count_rows = []
    for h in range(K):
        count_rows.append(
            (
                np.ones(y_sizes[h]),
                np.full(y_sizes[h], row0 + h),
                y_offsets[h] + np.arange(y_sizes[h]),
            )
        )
    n_eq_rows = row0 + K
    eq_vals = np.concatenate(
        [np.ones(x_sizes[h]) for h in range(K)]
        + [vals for vals, _, _ in count_rows]
    )
    eq_rows = np.concatenate(
        [
            np.concatenate([[0], np.cumsum(n_cs)])[h] + cand_cluster[h]
            for h in range(K)
        ]
        + [rows for _, rows, _ in count_rows]
    )
    eq_cols = np.concatenate(
        [x_offsets[h] + np.arange(x_sizes[h]) for h in range(K)]
        + [cols for _, _, cols in count_rows]
    )
    a_eq = sp.coo_matrix(
        (eq_vals, (eq_rows, eq_cols)), shape=(n_eq_rows, n_vars)
    ).tocsr()
    b_eq = np.concatenate(
        [np.ones(sum(n_cs)), np.array([float(b) for b in budgets])]
    )

    # Per-(class, union-pair) capacity + host rows.
    for h in range(K):
        slot = np.full(n_p, -1, dtype=int)
        slot[unions[h]] = np.arange(y_sizes[h])
        x_rows = slot[cand_pair[h]]
        x_cols = x_offsets[h] + np.arange(x_sizes[h])
        y_rows = np.arange(y_sizes[h])
        y_cols = y_offsets[h] + np.arange(y_sizes[h])
        ub_blocks.append(
            sp.coo_matrix(
                (
                    np.concatenate(
                        [
                            width_by_class[h][cand_cluster[h]].astype(float),
                            -pair_capacity[unions[h]].astype(float),
                        ]
                    ),
                    (
                        np.concatenate([x_rows, y_rows]),
                        np.concatenate([x_cols, y_cols]),
                    ),
                ),
                shape=(y_sizes[h], n_vars),
            )
        )
        b_ub_blocks.append(np.zeros(y_sizes[h]))
        ub_blocks.append(
            sp.coo_matrix(
                (
                    np.concatenate(
                        [-np.ones(x_sizes[h]), np.ones(y_sizes[h])]
                    ),
                    (
                        np.concatenate([x_rows, y_rows]),
                        np.concatenate([x_cols, y_cols]),
                    ),
                ),
                shape=(y_sizes[h], n_vars),
            )
        )
        b_ub_blocks.append(np.zeros(y_sizes[h]))

    # Pair exclusivity: a row pair carries at most one track height.
    all_pairs = np.unique(np.concatenate(unions))
    excl_slot = np.full(n_p, -1, dtype=int)
    excl_slot[all_pairs] = np.arange(len(all_pairs))
    excl_rows, excl_cols = [], []
    for h in range(K):
        excl_rows.append(excl_slot[unions[h]])
        excl_cols.append(y_offsets[h] + np.arange(y_sizes[h]))
    excl_rows = np.concatenate(excl_rows)
    excl_cols = np.concatenate(excl_cols)
    ub_blocks.append(
        sp.coo_matrix(
            (np.ones(len(excl_rows)), (excl_rows, excl_cols)),
            shape=(len(all_pairs), n_vars),
        )
    )
    b_ub_blocks.append(np.ones(len(all_pairs)))

    if strengthen:
        for h in range(K):
            slot = np.full(n_p, -1, dtype=int)
            slot[unions[h]] = np.arange(y_sizes[h])
            x_cols = x_offsets[h] + np.arange(x_sizes[h])
            # Disaggregated linking x_cr <= y_hr per candidate column.
            ub_blocks.append(
                sp.coo_matrix(
                    (
                        np.concatenate(
                            [np.ones(x_sizes[h]), -np.ones(x_sizes[h])]
                        ),
                        (
                            np.concatenate(
                                [np.arange(x_sizes[h])] * 2
                            ),
                            np.concatenate(
                                [
                                    x_cols,
                                    y_offsets[h] + slot[cand_pair[h]],
                                ]
                            ),
                        ),
                    ),
                    shape=(x_sizes[h], n_vars),
                )
            )
            b_ub_blocks.append(np.zeros(x_sizes[h]))
            # Aggregate per-class capacity: open rows hold the class width.
            ub_blocks.append(
                sp.coo_matrix(
                    (
                        -pair_capacity[unions[h]].astype(float),
                        (
                            np.zeros(y_sizes[h]),
                            y_offsets[h] + np.arange(y_sizes[h]),
                        ),
                    ),
                    shape=(1, n_vars),
                )
            )
            b_ub_blocks.append(
                np.array([-float(width_by_class[h].sum())])
            )

    model = MilpModel(
        c=c,
        integrality=np.ones(n_vars),
        lb=np.zeros(n_vars),
        ub=np.ones(n_vars),
        a_ub=sp.vstack(ub_blocks).tocsr(),
        b_ub=np.concatenate(b_ub_blocks),
        a_eq=a_eq,
        b_eq=b_eq,
    )
    return SparseNHeightModel(
        model=model,
        cand_cluster=cand_cluster,
        cand_pair=cand_pair,
        union_pairs=unions,
        n_clusters=n_cs,
        n_pairs=n_p,
    )


def build_nheight_rap_model(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
) -> MilpModel:
    """The full (dense) height-indexed RAP model.

    At ``K = 1`` this *delegates* to
    :func:`repro.core.rap.build_rap_model`, so a two-entry
    :class:`HeightSpec` produces the exact legacy model — same variable
    order, same constraint blocks, same coefficients.  At ``K >= 2`` the
    joint model of the module docstring is built (per-class blocks plus
    pair exclusivity).
    """
    if len(f_by_class) == 1:
        return build_rap_model(
            f_by_class[0], width_by_class[0], pair_capacity, budgets[0]
        )
    masks = [np.ones(f.shape, dtype=bool) for f in f_by_class]
    return _build_restricted_nheight(
        f_by_class, width_by_class, pair_capacity, budgets, masks,
        strengthen=False,
    ).model


# ---------------------------------------------------------------------------
# Heuristics: greedy incumbent + simulated annealing fallback
# ---------------------------------------------------------------------------


def _joint_cost(
    f_by_class: list[np.ndarray], assignment: list[np.ndarray]
) -> float:
    return float(
        sum(
            f[np.arange(f.shape[0]), a].sum()
            for f, a in zip(f_by_class, assignment)
        )
    )


def _feasible_nheight(
    assignment: list[np.ndarray] | None,
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
) -> list[np.ndarray] | None:
    """The per-class maps when they satisfy the joint constraints."""
    if assignment is None or len(assignment) != len(width_by_class):
        return None
    n_p = len(pair_capacity)
    used: set[int] = set()
    out: list[np.ndarray] = []
    for a, w, budget in zip(assignment, width_by_class, budgets):
        a = np.asarray(a, dtype=int)
        if a.shape != w.shape:
            return None
        if np.any(a < 0) or np.any(a >= n_p):
            return None
        opened = np.unique(a)
        if len(opened) != budget:
            return None
        if used & set(opened.tolist()):
            return None  # pair exclusivity violated
        used |= set(opened.tolist())
        load = np.bincount(a, weights=w, minlength=n_p)
        if np.any(load > pair_capacity + 1e-9):
            return None
        out.append(a)
    return out


def greedy_nheight(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
) -> list[np.ndarray] | None:
    """Greedy joint incumbent: widest class first, pairs exclusive.

    Each class runs the two-height greedy on the pairs no earlier class
    claimed; ``None`` when any class gets stuck (the caller then solves
    without reduced-cost fixing).
    """
    K = len(f_by_class)
    order = np.argsort(
        -np.array([float(w.sum()) for w in width_by_class]), kind="stable"
    )
    remaining = np.asarray(pair_capacity, dtype=float).copy()
    blocked = np.zeros(len(pair_capacity), dtype=bool)
    out: list[np.ndarray | None] = [None] * K
    for h in order:
        caps = np.where(blocked, -1.0, remaining)
        a = greedy_rap(
            f_by_class[h], width_by_class[h], caps, budgets[h]
        )
        if a is None:
            return None
        out[h] = a
        blocked[np.unique(a)] = True
    return [a for a in out]  # type: ignore[misc]


def anneal_nheight(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    seed: int = 17,
    iterations: int | None = None,
    time_limit_s: float | None = None,
    initial: list[np.ndarray] | None = None,
) -> tuple[list[np.ndarray], float] | None:
    """Simulated-annealing fallback for the joint N-height RAP.

    Moves preserve feasibility by construction (per-class budgets, pair
    exclusivity, capacities): single-cluster reassignment within the
    class's open pairs, intra-class cluster swaps, and whole-pair
    relocation to a closed pair.  Deterministic for a given ``seed``.
    Returns ``(per-class assignment, objective)`` of the best state, or
    ``None`` when no feasible starting point exists.
    """
    K = len(f_by_class)
    n_p = len(pair_capacity)
    cap = np.asarray(pair_capacity, dtype=float)
    current = _feasible_nheight(
        initial, width_by_class, cap, budgets
    ) or greedy_nheight(f_by_class, width_by_class, cap, budgets)
    if current is None:
        return None
    current = [a.copy() for a in current]

    n_cs = [f.shape[0] for f in f_by_class]
    total_clusters = sum(n_cs)
    if iterations is None:
        iterations = min(
            _SA_MAX_ITERATIONS,
            _SA_BASE_ITERATIONS + _SA_PER_CLUSTER * total_clusters,
        )

    load = np.zeros((K, n_p))
    owner = np.full(n_p, -1, dtype=int)  # class index of an open pair
    members: list[dict[int, list[int]]] = []
    for h in range(K):
        per_pair: dict[int, list[int]] = {}
        for c, p in enumerate(current[h]):
            per_pair.setdefault(int(p), []).append(c)
            load[h, int(p)] += width_by_class[h][c]
            owner[int(p)] = h
        members.append(per_pair)

    obj = _joint_cost(f_by_class, current)
    best = [a.copy() for a in current]
    best_obj = obj

    rng = np.random.default_rng(seed)
    scale = float(np.mean([np.std(f) for f in f_by_class])) or 1.0
    t0 = 0.5 * scale
    t_end = max(1e-9, 1e-3 * t0)
    cool = (t_end / t0) ** (1.0 / max(1, iterations))
    temp = t0
    class_p = np.array(n_cs, dtype=float) / total_clusters
    start = time.perf_counter()

    for it in range(iterations):
        if time_limit_s is not None and (it & 0xFF) == 0:
            if time.perf_counter() - start > time_limit_s:
                break
        temp *= cool
        h = int(rng.choice(K, p=class_p))
        f = f_by_class[h]
        w = width_by_class[h]
        open_pairs = list(members[h].keys())
        roll = rng.random()
        if roll < 0.6 and n_cs[h] >= 1 and len(open_pairs) >= 2:
            c = int(rng.integers(n_cs[h]))
            p = int(current[h][c])
            if len(members[h][p]) <= 1:
                continue  # would empty the pair (budget/host violation)
            q = int(open_pairs[int(rng.integers(len(open_pairs)))])
            if q == p or load[h, q] + w[c] > cap[q] + 1e-9:
                continue
            delta = float(f[c, q] - f[c, p])
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                members[h][p].remove(c)
                members[h].setdefault(q, []).append(c)
                load[h, p] -= w[c]
                load[h, q] += w[c]
                current[h][c] = q
                obj += delta
        elif roll < 0.85 and n_cs[h] >= 2:
            c1, c2 = rng.integers(n_cs[h]), rng.integers(n_cs[h])
            c1, c2 = int(c1), int(c2)
            p1, p2 = int(current[h][c1]), int(current[h][c2])
            if p1 == p2:
                continue
            if (
                load[h, p1] - w[c1] + w[c2] > cap[p1] + 1e-9
                or load[h, p2] - w[c2] + w[c1] > cap[p2] + 1e-9
            ):
                continue
            delta = float(
                f[c1, p2] + f[c2, p1] - f[c1, p1] - f[c2, p2]
            )
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                members[h][p1].remove(c1)
                members[h][p2].remove(c2)
                members[h][p1].append(c2)
                members[h][p2].append(c1)
                load[h, p1] += w[c2] - w[c1]
                load[h, p2] += w[c1] - w[c2]
                current[h][c1], current[h][c2] = p2, p1
                obj += delta
        else:
            closed = np.flatnonzero(owner < 0)
            if not len(open_pairs) or not len(closed):
                continue
            p = int(open_pairs[int(rng.integers(len(open_pairs)))])
            q = int(closed[int(rng.integers(len(closed)))])
            if load[h, p] > cap[q] + 1e-9:
                continue
            movers = members[h][p]
            delta = float((f[movers, q] - f[movers, p]).sum())
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                members[h][q] = movers
                del members[h][p]
                load[h, q] = load[h, p]
                load[h, p] = 0.0
                owner[q] = h
                owner[p] = -1
                for c in movers:
                    current[h][c] = q
                obj += delta
        if obj < best_obj - 1e-12:
            best_obj = obj
            best = [a.copy() for a in current]

    best = _feasible_nheight(best, width_by_class, cap, budgets)
    if best is None:  # defensive: moves should preserve feasibility
        return None
    return best, _joint_cost(f_by_class, best)


# ---------------------------------------------------------------------------
# Sparse joint solve (rc-fixing + pricing certification)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _JointLpInfo:
    objective: float
    reduced_costs: list[np.ndarray]  # per class (n_c_h, n_p), >= 0
    runtime_s: float


def _joint_lp(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
) -> _JointLpInfo | MilpSolution | None:
    """Strengthened joint LP relaxation: bound + per-class reduced costs.

    Mirrors :func:`repro.core.sparse_rap._dense_lp`; the reduced-cost
    bound argument carries over verbatim because the joint LP is a
    relaxation of the joint IP.
    """
    masks = [np.ones(f.shape, dtype=bool) for f in f_by_class]
    srm = _build_restricted_nheight(
        f_by_class, width_by_class, pair_capacity, budgets, masks,
        strengthen=True,
    )
    model = srm.model
    t0 = time.perf_counter()
    try:
        lp = linprog(
            model.c,
            A_ub=model.a_ub,
            b_ub=model.b_ub,
            A_eq=model.a_eq,
            b_eq=model.b_eq,
            bounds=(0.0, 1.0),
            method="highs",
        )
    except Exception:
        logger.warning("N-height joint LP raised; using top-k fallback")
        return None
    runtime = time.perf_counter() - t0
    if lp.status == 2:
        return MilpSolution(
            status=MilpStatus.INFEASIBLE, x=None, objective=np.inf,
            runtime_s=runtime,
        )
    if lp.status != 0 or lp.x is None:
        return None
    rc = (
        model.c
        - model.a_ub.T @ lp.ineqlin.marginals
        - model.a_eq.T @ lp.eqlin.marginals
    )
    per_class: list[np.ndarray] = []
    offset = 0
    for h, f in enumerate(f_by_class):
        n_x = f.size
        per_class.append(
            np.maximum(rc[offset:offset + n_x], 0.0).reshape(f.shape)
        )
        offset += n_x
    return _JointLpInfo(
        objective=float(lp.fun), reduced_costs=per_class, runtime_s=runtime
    )


def _class_coverage_masks(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    ks: list[int],
    extra: list[np.ndarray],
) -> tuple[list[np.ndarray], list[int]]:
    """Per-class top-k masks, widened for per-class capacity coverage."""
    masks: list[np.ndarray] = []
    out_ks: list[int] = []
    n_p = len(pair_capacity)
    for h, f in enumerate(f_by_class):
        k = ks[h]
        total = float(width_by_class[h].sum())
        mask = cheapest_pairs_mask(f, k) | extra[h]
        while k < n_p:
            union = np.unique(np.nonzero(mask)[1])
            if (
                len(union) >= budgets[h]
                and float(pair_capacity[union].sum()) >= total - 1e-9
            ):
                break
            k = min(n_p, k + max(1, k // 2))
            mask = cheapest_pairs_mask(f, k) | extra[h]
        masks.append(mask)
        out_ks.append(k)
    return masks, out_ks


def _solution_from_restricted(
    srm: SparseNHeightModel, restricted: MilpSolution
) -> tuple[MilpSolution, list[np.ndarray] | None]:
    assignment = (
        srm.assignment_of(restricted.x)
        if restricted.ok and restricted.x is not None
        else None
    )
    return restricted, assignment


def _dense_warm_vector(
    model: MilpModel,
    warm: np.ndarray | None,
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_rows: int,
) -> np.ndarray | None:
    """Two-height model vector of ``warm``, else of the greedy seed.

    The greedy seed stands in only when a warm start was asked for and
    does not fit this model (e.g. after a budget relaxation).
    """
    if warm is None:
        return None
    prior = _valid_prior([warm], [f])
    if prior is not None:
        vector = assignment_to_vector(prior[0], *f.shape)
        if model.is_feasible(vector):
            return vector
    seed = greedy_rap(f, cluster_width, pair_capacity, n_rows)
    if seed is None:
        return None
    vector = assignment_to_vector(seed, *f.shape)
    return vector if model.is_feasible(vector) else None


def solve_rap_nheight(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    backend: str = "highs",
    time_limit_s: float | None = None,
    warm_assignment: list[np.ndarray] | None = None,
    candidate_k: int | None = None,
    sparse: bool = True,
    workers: int = 1,
    cancel: object | None = None,
) -> tuple[MilpSolution, list[np.ndarray] | None, SparseSolveStats]:
    """Solve the joint N-height RAP; exactness mirrors the sparse engine.

    Returns ``(solution, per-class assignment or None, stats)``; a
    cluster the solution leaves unassigned maps to ``-1``.  At ``K = 1``
    the call hands off to the two-height engine
    (:func:`repro.core.sparse_rap.solve_rap_sparse`, which alone uses
    ``workers`` for its component fan-out, or the dense build + solve
    when ``sparse=False``).  For ``K >= 2`` and exact backends,
    ``stats.certified`` means the restricted optimum was proven equal to
    the full joint optimum by the reduced-cost pricing test.
    """
    f_by_class = [np.asarray(f, dtype=float) for f in f_by_class]
    width_by_class = [np.asarray(w, dtype=float) for w in width_by_class]
    pair_capacity = np.asarray(pair_capacity, dtype=float)
    n_cs, n_p = validate_nheight_inputs(
        f_by_class, width_by_class, pair_capacity, budgets
    )
    K = len(f_by_class)

    if K == 1:
        # Two-height hand-off: the sparse engine, or the dense model.
        warm = warm_assignment[0] if warm_assignment else None
        if sparse:
            solution, stats = solve_rap_sparse(
                f_by_class[0], width_by_class[0], pair_capacity, budgets[0],
                backend=backend, time_limit_s=time_limit_s,
                warm_assignment=warm, candidate_k=candidate_k,
                workers=workers, cancel=cancel,
            )
        else:
            stats = SparseSolveStats(
                strategy="dense", n_dense_variables=n_cs[0] * n_p + n_p,
                rounds=1, k_initial=n_p, k_final=n_p,
                n_candidates=n_cs[0] * n_p,
            )
            model = build_rap_model(
                f_by_class[0], width_by_class[0], pair_capacity, budgets[0]
            )
            solution = solve_milp(
                model, backend=backend, time_limit_s=time_limit_s,
                warm_start=_dense_warm_vector(
                    model, warm, f_by_class[0], width_by_class[0],
                    pair_capacity, budgets[0],
                ),
                cancel=cancel,
            )
            stats.solve_s = solution.runtime_s
            stats.certified = solution.status in (
                MilpStatus.OPTIMAL, MilpStatus.INFEASIBLE
            )
        assignment = None
        if solution.ok and solution.x is not None:
            assignment = [dense_assignment(solution.x, n_cs[0], n_p)]
        return solution, assignment, stats

    if backend not in EXACT_BACKENDS:
        raise SolverError(
            f"backend {backend!r} does not support N-height instances "
            "(exact backends only; the resilient chain adds the SA rung)"
        )

    n_dense = sum(f.size for f in f_by_class) + K * n_p
    stats = SparseSolveStats(n_dense_variables=n_dense)
    warm = _feasible_nheight(
        warm_assignment, width_by_class, pair_capacity, budgets
    )
    forced = candidate_k is not None
    full_masks = [np.ones(f.shape, dtype=bool) for f in f_by_class]
    small = not forced and n_dense <= SMALL_PROBLEM_VARIABLES

    with span(
        "rap.nheight",
        backend=backend,
        n_classes=K,
        n_pairs=n_p,
        n_clusters=sum(n_cs),
    ) as root:
        if not sparse or small or (forced and candidate_k >= n_p):
            stats.strategy = "dense"
            stats.k_initial = stats.k_final = n_p
            stats.n_candidates = n_dense - K * n_p
            stats.rounds = 1
            t0 = time.perf_counter()
            srm = _build_restricted_nheight(
                f_by_class, width_by_class, pair_capacity, budgets,
                full_masks, strengthen=False,
            )
            stats.build_s = time.perf_counter() - t0
            warm_vec = srm.encode_assignment(warm) if warm else None
            if warm_vec is not None and not srm.model.is_feasible(warm_vec):
                warm_vec = None
            solution = solve_milp(
                srm.model, backend=backend, time_limit_s=time_limit_s,
                warm_start=warm_vec, cancel=cancel,
            )
            stats.solve_s = solution.runtime_s
            stats.certified = solution.status in (
                MilpStatus.OPTIMAL, MilpStatus.INFEASIBLE
            )
            root.annotate(
                outcome="dense",
                objective=solution.objective if solution.ok else None,
            )
            return (*_solution_from_restricted(srm, solution), stats)

        lp_info: _JointLpInfo | None = None
        extra = [np.zeros(f.shape, dtype=bool) for f in f_by_class]
        if forced:
            stats.strategy = "top-k"
            ks = [int(np.clip(candidate_k, 1, n_p))] * K
            masks, ks = _class_coverage_masks(
                f_by_class, width_by_class, pair_capacity, budgets, ks,
                extra,
            )
        else:
            stats.strategy = "rc-fixing"
            with span("rap.nheight.candidates") as cand_span:
                lp = _joint_lp(
                    f_by_class, width_by_class, pair_capacity, budgets
                )
                if isinstance(lp, MilpSolution):
                    root.annotate(outcome="infeasible")
                    stats.solve_s += lp.runtime_s
                    stats.certified = True
                    return lp, None, stats
                incumbent = warm or greedy_nheight(
                    f_by_class, width_by_class, pair_capacity, budgets
                )
                if lp is not None and incumbent is not None:
                    lp_info = lp
                    stats.lp_bound = lp.objective
                    stats.solve_s += lp.runtime_s
                    z_ub = _joint_cost(f_by_class, incumbent)
                    stats.upper_bound = z_ub
                    tol = 1e-6 * max(1.0, abs(z_ub))
                    masks = [
                        lp.objective + lp.reduced_costs[h] <= z_ub + tol
                        for h in range(K)
                    ]
                    for h in range(K):
                        masks[h][np.arange(n_cs[h]), incumbent[h]] = True
                    ks = [int(m.sum(axis=1).max()) for m in masks]
                    if warm is None:
                        warm = incumbent
                    cand_span.annotate(
                        strategy="rc-fixing",
                        n_candidates=int(sum(m.sum() for m in masks)),
                        lp_bound=lp.objective,
                        upper_bound=z_ub,
                    )
                else:
                    if lp is not None:
                        lp_info = lp
                        stats.lp_bound = lp.objective
                        stats.solve_s += lp.runtime_s
                    stats.strategy = "top-k"
                    ks = [
                        adaptive_candidate_count(
                            f_by_class[h], width_by_class[h],
                            pair_capacity, budgets[h],
                        )
                        for h in range(K)
                    ]
                    masks, ks = _class_coverage_masks(
                        f_by_class, width_by_class, pair_capacity,
                        budgets, ks, extra,
                    )
                    cand_span.annotate(strategy="top-k", k=max(ks))
        stats.k_initial = max(ks)

        while True:
            stats.rounds += 1
            if stats.rounds > _SAFETY_ROUNDS:
                masks = [m.copy() for m in full_masks]
            stats.n_candidates = int(sum(m.sum() for m in masks))
            stats.k_final = int(max(m.sum(axis=1).max() for m in masks))

            t0 = time.perf_counter()
            srm = _build_restricted_nheight(
                f_by_class, width_by_class, pair_capacity, budgets, masks,
                strengthen=True,
            )
            stats.build_s += time.perf_counter() - t0
            warm_vec = srm.encode_assignment(warm) if warm else None
            if warm_vec is not None and not srm.model.is_feasible(warm_vec):
                warm_vec = None
            solution = solve_milp(
                srm.model, backend=backend, time_limit_s=time_limit_s,
                warm_start=warm_vec, cancel=cancel,
            )
            stats.solve_s += solution.runtime_s

            observe(
                "rap.nheight",
                round=stats.rounds,
                n_candidates=stats.n_candidates,
                objective=solution.objective if solution.ok else None,
                admitted=stats.admitted_columns,
            )

            full = all(not (~m).any() for m in masks)
            if solution.status is MilpStatus.INFEASIBLE:
                if full:
                    root.annotate(outcome="infeasible")
                    stats.certified = True
                    return solution, None, stats
                ks = [min(n_p, 2 * max(k, 1)) for k in ks]
                extra = [e | m for e, m in zip(extra, masks)]
                masks, ks = _class_coverage_masks(
                    f_by_class, width_by_class, pair_capacity, budgets,
                    ks, extra,
                )
                continue
            if not solution.ok or solution.x is None:
                root.annotate(outcome=solution.status.value)
                return solution, None, stats
            if full:
                stats.certified = solution.status is MilpStatus.OPTIMAL
                root.annotate(outcome="dense", objective=solution.objective)
                return (*_solution_from_restricted(srm, solution), stats)
            if solution.status is not MilpStatus.OPTIMAL:
                root.annotate(outcome="uncertified")
                return (*_solution_from_restricted(srm, solution), stats)

            z = solution.objective
            if lp_info is None:
                lp = _joint_lp(
                    f_by_class, width_by_class, pair_capacity, budgets
                )
                if isinstance(lp, _JointLpInfo):
                    lp_info = lp
                    stats.lp_bound = lp.objective
                    stats.solve_s += lp.runtime_s
            if lp_info is None:
                logger.warning(
                    "N-height pricing unavailable; solving full joint model"
                )
                masks = [m.copy() for m in full_masks]
                continue
            tol = 1e-6 * max(1.0, abs(z))
            admits = [
                (~masks[h])
                & (lp_info.objective + lp_info.reduced_costs[h] <= z + tol)
                for h in range(K)
            ]
            n_admit = int(sum(a.sum() for a in admits))
            if n_admit == 0:
                stats.certified = True
                root.annotate(outcome="certified", objective=z)
                return (*_solution_from_restricted(srm, solution), stats)
            stats.admitted_columns += n_admit
            logger.info(
                "N-height pricing re-admits %d pruned columns (z=%.6g)",
                n_admit, z,
            )
            for h in range(K):
                extra[h] |= admits[h]
                masks[h] = masks[h] | admits[h]


# ---------------------------------------------------------------------------
# Resilient chain: rung fallback, relaxation ladder, optional racing
# ---------------------------------------------------------------------------


def _valid_prior(
    prior: list[np.ndarray] | None, f_by_class: list[np.ndarray]
) -> list[np.ndarray] | None:
    """Per-class prior maps, or None when any no longer fits the instance."""
    if prior is None or len(prior) != len(f_by_class):
        return None
    out: list[np.ndarray] = []
    for a, f in zip(prior, f_by_class):
        a = np.asarray(a, dtype=int)
        if a.shape != (f.shape[0],) or np.any(a < 0) or np.any(a >= f.shape[1]):
            return None
        out.append(a)
    return out


def _seeded(
    prior: list[np.ndarray] | None,
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    usable: np.ndarray,
    budgets: list[int],
) -> list[np.ndarray] | None:
    """An exact rung's warm start: ``prior``, else a greedy seed.

    Only the two-height engine takes its greedy seed from here (bnb
    prunes with it, the sparse engine fixes columns against it); the
    joint engine derives its own incumbent.
    """
    if prior is None and len(f_by_class) == 1:
        return greedy_nheight(f_by_class, width_by_class, usable, budgets)
    return prior


def _solve_rung(
    rung: str,
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    usable: np.ndarray,
    budgets: list[int],
    warm: list[np.ndarray] | None,
    time_limit_s: float | None,
    candidate_k: int | None,
    sparse: bool,
    workers: int = 1,
    cancel: object | None = None,
    sa_seed: int = 17,
) -> tuple[MilpSolution | None, list[np.ndarray] | None, SparseSolveStats | None]:
    """One rung's solve: ``(solution, per-class maps, stats)``.

    MILP rungs run :func:`solve_rap_nheight`; the terminal ``"sa"`` rung
    anneals and returns no MILP solution.  The sequential chain and the
    racing workers both solve through here.
    """
    if rung == "sa":
        annealed = anneal_nheight(
            f_by_class, width_by_class, usable, budgets, seed=sa_seed,
            time_limit_s=time_limit_s, initial=warm,
        )
        if annealed is None:
            raise InfeasibleError("SA found no feasible N-height start")
        return None, annealed[0], None
    return solve_rap_nheight(
        f_by_class, width_by_class, usable, budgets, backend=rung,
        time_limit_s=time_limit_s, warm_assignment=warm,
        candidate_k=candidate_k, sparse=sparse, workers=workers,
        cancel=cancel,
    )


def _decode(
    solution: MilpSolution | None,
    maps: list[np.ndarray],
    runtime_s: float,
    f_by_class: list[np.ndarray],
    labels_by_class: list[np.ndarray],
    minority_tracks: list[float],
    majority_track: float,
) -> RowAssignment:
    """The :class:`RowAssignment` of one rung's per-class maps."""
    n_p = f_by_class[0].shape[1]
    return RowAssignment.from_classes(
        {
            track: (a, a[labels])
            for track, a, labels in zip(minority_tracks, maps, labels_by_class)
        },
        majority_track,
        n_p,
        objective=(
            solution.objective if solution is not None
            else _joint_cost(f_by_class, maps)
        ),
        ilp_runtime_s=solution.runtime_s if solution is not None else runtime_s,
        num_variables=sum(f.size for f in f_by_class) + len(f_by_class) * n_p,
        solver_nodes=solution.nodes if solution is not None else 0,
    )


def _race_rung_job(payload: dict) -> dict:
    """One rung's full RAP solve in a racing worker (pickles by name).

    Runs inside a :class:`~repro.utils.supervise.SupervisedPool` worker;
    the embedded engine always runs with ``workers=1`` (no nested pools
    inside a racing worker).  Returns the raw solution and per-class maps
    plus engine stats; decoding happens in the parent, where the labels
    and track heights live.

    Large instances arrive as a shared-memory handle under ``"shm"``
    (per-class ``f<h>``/``w<h>`` and ``cap`` attached read-only,
    zero-copy) instead of pickled arrays; see :mod:`repro.placement.shm`.
    """
    attachment = None
    if "shm" in payload:
        from repro.placement.shm import attach_arrays

        # ``_pool_attempt`` is stamped by the supervised pool's worker
        # wrapper only: its absence means this is an inline (in-parent)
        # last-resort run, where worker faults must not fire.
        attempt = payload.get("_pool_attempt")
        attachment = attach_arrays(
            payload["shm"],
            fault_plan=payload.get("shm_fault_plan") if attempt is not None else None,
            fault_stage="shm.attach",
            attempt=attempt,
        )
        n_classes = len(payload["budgets"])
        payload = dict(
            payload,
            f_by=[attachment[f"f{h}"] for h in range(n_classes)],
            w_by=[attachment[f"w{h}"] for h in range(n_classes)],
            cap=attachment["cap"],
        )
    try:
        return _race_rung_solve(payload)
    finally:
        if attachment is not None:
            attachment.close()


def _race_rung_solve(payload: dict) -> dict:
    """One rung's solve under a scoped registry.

    The snapshot travels back in ``"metrics"`` so the parent can merge
    worker-side telemetry (span histograms, solver counters) into its
    own registry.
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        solution, maps, stats = _solve_rung(
            payload["rung"], payload["f_by"], payload["w_by"],
            payload["cap"], payload["budgets"], payload.get("warm"),
            payload.get("time_limit_s"), payload.get("candidate_k"),
            payload["sparse"], cancel=payload.get("cancel"),
            sa_seed=payload.get("sa_seed", 17),
        )
    return {
        "rung": payload["rung"],
        "solution": solution,
        "maps": maps,
        "stats": stats,
        "metrics": registry.snapshot(),
    }


def _certified_exact(rung: str, solution: MilpSolution | None) -> bool:
    """The race's certification rule: exact backend + proven optimum."""
    return (
        rung in EXACT_BACKENDS
        and solution is not None
        and solution.status is MilpStatus.OPTIMAL
    )


def _race_rap_level(
    rungs: list[str],
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    usable: np.ndarray,
    budgets: list[int],
    labels_by_class: list[np.ndarray],
    minority_tracks: list[float],
    majority_track: float,
    backend: str,
    time_limit_s: float | None,
    sparse: bool,
    candidate_k: int | None,
    warm_assignment: list[np.ndarray] | None,
    workers: int,
    policy: ResiliencePolicy,
    deadline: Deadline,
    prov: FlowProvenance,
    relaxation: str | None,
    sa_seed: int,
) -> tuple[str, RowAssignment | None]:
    """Race all rungs of one relaxation level concurrently.

    First *certified* answer wins (see :func:`_certified_exact`); losers
    are cancelled — their pool workers killed, cooperative solvers
    additionally observing the shared :class:`CancelToken`.  When nothing
    certifies, the surviving outcomes are scanned in rung-preference
    order, mirroring the sequential chain.

    Returns a verdict and (for ``"win"``) the decoded assignment:

    * ``("win", assignment)`` — a rung answered; provenance updated;
    * ``("escalate", None)`` — some rung proved infeasibility, move to
      the next relaxation level;
    * ``("fallback", None)`` — nothing usable came back, run this
      level's sequential rung loop instead (worker-only faults do not
      fire inline, so the sequential pass is also the degraded-mode
      last resort).

    A certified-exact winner is *not* marked degraded even when it is
    not the requested backend: both exact backends prove the same
    optimum, so the answer is bit-equivalent to the sequential chain's.
    (The sequential chain marks any non-primary rung degraded because
    there a fallback implies the primary *failed*; in a race losing on
    latency is not a failure.)
    """
    stage = "rap.race"
    deadline.check(stage, provenance=prov)
    limit = deadline.clamp(time_limit_s)
    prior = _valid_prior(warm_assignment, f_by_class)
    seeded = _seeded(prior, f_by_class, width_by_class, usable, budgets)
    # A healthy rung obeys ``limit`` internally; supervision only has to
    # catch wedged workers, so the kill deadline gets a generous margin.
    task_timeout_s = None if limit is None else max(5.0, 3.0 * limit)
    cancel = CancelToken()

    # Large instances go to the workers as one shared-memory segment per
    # race (zero-copy attach) instead of one pickled copy per rung; small
    # ones inline — the pickle is cheaper than a segment.
    arrays = {"cap": usable}
    for h, (f, w) in enumerate(zip(f_by_class, width_by_class)):
        arrays[f"f{h}"] = f
        arrays[f"w{h}"] = w
    publication = None
    if len(rungs) > 1 and sum(a.nbytes for a in arrays.values()) > SHM_MIN_BYTES:
        publication = publish_arrays(arrays)
    shared: dict[str, object] = (
        {"f_by": f_by_class, "w_by": width_by_class, "cap": usable}
        if publication is None
        else {"shm": publication.handle, "shm_fault_plan": policy.fault_plan}
    )

    entries = [
        RaceEntry(
            label=rung,
            fn=_race_rung_job,
            item={
                "rung": rung,
                **shared,
                "budgets": budgets,
                "time_limit_s": limit,
                "warm": seeded if rung in EXACT_BACKENDS else prior,
                "candidate_k": candidate_k,
                "sparse": sparse,
                "cancel": cancel,
                "sa_seed": sa_seed,
            },
            fault_stage=f"rap.{rung}",
        )
        for rung in rungs
    ]

    def certify(i: int, value: dict) -> bool:
        if _certified_exact(rungs[i], value["solution"]):
            cancel.set()  # cooperative losers stop before the kill lands
            return True
        return False

    pool = get_shared_pool(min(workers, len(entries)))
    pool.fault_plan = policy.fault_plan
    pool.task_timeout_s = task_timeout_s
    try:
        with span(
            stage,
            rungs=",".join(rungs),
            workers=pool.workers,
            relaxation=relaxation,
        ) as race_span:
            result = race(entries, certify, pool=pool)
            race_span.annotate(
                winner=result.winner,
                wall_s=result.wall_s,
                cancel_latency_s=result.cancel_latency_s,
                crashes=result.crashes,
                hangs=result.hangs,
                cancelled=result.n_cancelled,
            )
            # Convergence points are numeric-only; the winner label and
            # relaxation string live on the span attributes above.
            observe(
                stage,
                winner_index=(
                    -1.0
                    if result.winner_index is None
                    else float(result.winner_index)
                ),
                wall_s=result.wall_s,
                cancel_latency_s=result.cancel_latency_s,
                crashes=result.crashes,
                hangs=result.hangs,
                cancelled=result.n_cancelled,
            )
    finally:
        cancel.clear()
        if publication is not None:
            publication.close()

    # Fold every rung's worker-side registry snapshot into the parent's.
    registry = current_registry()
    for outcome in result.outcomes:
        if outcome.ok and isinstance(outcome.value, dict):
            snapshot = outcome.value.get("metrics")
            if snapshot:
                registry.merge(snapshot)

    # Preference order: the certified winner if any, else the first rung
    # (in chain order) that returned a usable answer.
    order = list(range(len(rungs)))
    if result.winner_index is not None:
        order.remove(result.winner_index)
        order.insert(0, result.winner_index)
    chosen: int | None = None
    assignment: RowAssignment | None = None
    infeasible_seen = False
    decode_errors: dict[int, BaseException] = {}
    for i in order:
        outcome = result.outcomes[i]
        if not outcome.ok:
            continue
        solution = outcome.value["solution"]
        if solution is not None and solution.status is MilpStatus.INFEASIBLE:
            infeasible_seen = True
            continue
        if outcome.value["maps"] is None:
            continue
        try:
            assignment = _decode(
                solution, outcome.value["maps"], outcome.wall_s,
                f_by_class, labels_by_class, minority_tracks,
                majority_track,
            )
        except InfeasibleError as exc:
            decode_errors[i] = exc
            continue
        chosen = i
        break

    for i, rung in enumerate(rungs):
        outcome = result.outcomes[i]
        attempt = max(1, outcome.attempts)
        if i == chosen:
            prov.record(
                f"rap.{rung}", rung, attempt, ok=True,
                runtime_s=outcome.wall_s, relaxation=relaxation,
            )
            continue
        if outcome.ok:
            solution = outcome.value["solution"]
            if solution is not None and solution.status is MilpStatus.INFEASIBLE:
                error: BaseException = InfeasibleError("model infeasible")
            elif i in decode_errors:
                error = decode_errors[i]
            elif outcome.value["maps"] is None:
                error = SolverError(
                    f"no incumbent (status {solution.status.value})"
                )
            else:
                error = SolverError("lost race: uncertified answer")
        elif outcome.status == "cancelled":
            # TaskOutcome carries the error as (type name, message)
            # strings; rebuild something record() can stringify while
            # keeping cancellations recognizable.
            error = RaceCancelled(outcome.error or "lost race")
        else:
            error = SolverError(f"[{outcome.error_type}] {outcome.error}")
        prov.record(
            f"rap.{rung}", rung, attempt, ok=False, error=error,
            runtime_s=outcome.wall_s, relaxation=relaxation,
        )

    if chosen is not None:
        rung = rungs[chosen]
        prov.backend = rung
        certified = chosen == result.winner_index
        prov.degraded = bool(
            (not certified and rung != backend)
            or relaxation is not None
            or result.outcomes[chosen].ran_inline
        )
        return "win", assignment
    if infeasible_seen:
        return "escalate", None
    logger.warning(
        "RAP race produced no usable answer; falling back to the "
        "sequential chain for this level"
    )
    return "fallback", None


def solve_rap_resilient(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    labels_by_class: list[np.ndarray],
    minority_tracks: list[float],
    majority_track: float = 6.0,
    backend: str = "highs",
    time_limit_s: float | None = None,
    row_fill: float = 1.0,
    policy: ResiliencePolicy | None = None,
    deadline: Deadline | None = None,
    provenance: FlowProvenance | None = None,
    sparse: bool = True,
    candidate_k: int | None = None,
    workers: int = 1,
    warm_assignment: list[np.ndarray] | None = None,
    sa_seed: int = 17,
) -> RowAssignment | None:
    """Solve the class-indexed RAP under a fallback chain with relaxation.

    Inputs are per minority class in spec order (``K >= 1`` classes):
    cost matrices, cluster widths, row budgets, cell labels and tracks.
    ``pair_capacity`` is the *raw* pair capacity; ``row_fill`` is applied
    per relaxation level so a failed chain can retry with relaxed
    constraints (``row_fill`` → 1.0 first, then every class budget
    bumped while pairs remain, labelled ``budgets+N``).

    Every MILP rung solves through :func:`solve_rap_nheight` (``sparse``
    selects its pruned engine; ``candidate_k`` forces the top-k
    strategy).  The rungs are the policy's backend chain; with ``K >= 2``
    only its exact backends (the joint model has no Lagrangian
    decomposition), followed by a terminal simulated-annealing rung
    (:func:`anneal_nheight`, recorded as ``backend="sa"``).
    ``warm_assignment`` (e.g. the previous solve's per-class cluster ->
    pair maps) seeds every rung's warm start.

    ``workers > 1`` switches the chain from sequential to *racing*: all
    rungs of a relaxation level run concurrently on a supervised,
    crash-tolerant process pool (:mod:`repro.utils.supervise`) and the
    first certified answer — an exact backend proving optimality — wins,
    cancelling the others.  Healthy-path answers are identical to the
    sequential chain's (both exact backends prove the same optimum).
    Race outcomes land in ``provenance``, a ``rap.race`` span, and a
    FlightRecorder observation.  Each racing rung runs its engine
    single-threaded.

    Failure ladder per :class:`~repro.utils.resilience.ResiliencePolicy`:

    * transient :class:`SolverError` → retry the rung (with backoff);
    * exhausted retries / timeout without incumbent → next rung;
    * :class:`InfeasibleError` → next relaxation level (infeasibility is
      deterministic, so retrying the same model is pointless);
    * every rung and level failed → ``None`` (the caller's terminal rung
      is the baseline heuristic assignment);
    * deadline expired → :class:`StageTimeoutError` with the provenance
      accumulated so far attached.

    All attempts are recorded into ``provenance``; on success its
    ``backend`` / ``degraded`` fields are set.
    """
    policy = policy or ResiliencePolicy()
    deadline = deadline or Deadline.unlimited()
    prov = provenance if provenance is not None else FlowProvenance()
    if prov.requested_backend is None:
        prov.requested_backend = backend
    n_p = len(pair_capacity)

    levels: list[tuple[float, list[int], str | None]] = [
        (row_fill, list(budgets), None)
    ]
    if policy.relaxation_enabled:
        if row_fill < 1.0:
            levels.append((1.0, list(budgets), "row_fill->1.0"))
        for extra in (1, 2):
            bumped = [b + extra for b in budgets]
            if sum(bumped) <= n_p:
                levels.append((1.0, bumped, f"budgets+{extra}"))

    rungs = list(policy.backends(backend))
    if len(f_by_class) > 1:
        rungs = [r for r in rungs if r in EXACT_BACKENDS] or list(
            EXACT_BACKENDS
        )
        rungs.append("sa")
    prior = _valid_prior(warm_assignment, f_by_class)

    for fill, level_budgets, relaxation in levels:
        usable = pair_capacity * fill
        try:
            validate_nheight_inputs(
                f_by_class, width_by_class, usable, level_budgets
            )
        except InfeasibleError:
            continue  # not even modellable at this level; escalate
        if relaxation is not None:
            prov.relaxations.append(relaxation)
            logger.info("RAP escalating relaxation: %s", relaxation)
        if workers > 1 and len(rungs) > 1:
            verdict, assignment = _race_rap_level(
                rungs, f_by_class, width_by_class, usable, level_budgets,
                labels_by_class, minority_tracks, majority_track, backend,
                time_limit_s, sparse, candidate_k, warm_assignment,
                workers, policy, deadline, prov, relaxation, sa_seed,
            )
            if verdict == "win":
                return assignment
            if verdict == "escalate":
                continue
            # "fallback": run this level's sequential rung loop below.
        escalate = False
        for rung in rungs:
            stage = f"rap.{rung}"
            attempt = 0
            max_attempts = 1 if rung == "sa" else policy.retry.max_attempts
            while attempt < max_attempts:
                attempt += 1
                deadline.check(stage, provenance=prov)
                attempt_span = span(stage, backend=rung, attempt=attempt)
                try:
                    with attempt_span:
                        policy.inject(stage)
                        warm = (
                            _seeded(
                                prior, f_by_class, width_by_class, usable,
                                level_budgets,
                            )
                            if rung in EXACT_BACKENDS
                            else prior
                        )
                        solution, maps, stats = _solve_rung(
                            rung, f_by_class, width_by_class, usable,
                            level_budgets, warm, deadline.clamp(time_limit_s),
                            candidate_k, sparse, workers=workers,
                            sa_seed=sa_seed,
                        )
                        if stats is not None:
                            attempt_span.annotate(
                                sparse_rounds=stats.rounds,
                                sparse_k=stats.k_final,
                                sparse_candidates=stats.n_candidates,
                                sparse_components=stats.n_components,
                                sparse_certified=stats.certified,
                            )
                except StageTimeoutError as exc:
                    prov.record(
                        stage, rung, attempt, ok=False, error=exc,
                        runtime_s=attempt_span.duration_s,
                        relaxation=relaxation,
                    )
                    exc.provenance = prov
                    raise
                except InfeasibleError as exc:
                    prov.record(
                        stage, rung, attempt, ok=False, error=exc,
                        runtime_s=attempt_span.duration_s,
                        relaxation=relaxation,
                    )
                    escalate = True
                    break
                except (SolverError, ValidationError) as exc:
                    prov.record(
                        stage, rung, attempt, ok=False, error=exc,
                        runtime_s=attempt_span.duration_s,
                        relaxation=relaxation,
                    )
                    logger.warning(
                        "RAP rung %s attempt %d failed: %s",
                        rung, attempt, exc,
                    )
                    if attempt < max_attempts:
                        policy.sleep(policy.retry.delay(attempt))
                    continue
                runtime = attempt_span.duration_s

                if solution is not None:
                    if solution.status is MilpStatus.INFEASIBLE:
                        prov.record(
                            stage, rung, attempt, ok=False,
                            error=InfeasibleError("model infeasible"),
                            runtime_s=runtime, relaxation=relaxation,
                        )
                        escalate = True
                        break
                    if maps is None:
                        prov.record(
                            stage, rung, attempt, ok=False,
                            error=SolverError(
                                "no incumbent "
                                f"(status {solution.status.value})"
                            ),
                            runtime_s=runtime, relaxation=relaxation,
                        )
                        break  # a timeout/error won't improve on retry
                try:
                    assignment = _decode(
                        solution, maps, runtime, f_by_class,
                        labels_by_class, minority_tracks, majority_track,
                    )
                except InfeasibleError as exc:
                    prov.record(
                        stage, rung, attempt, ok=False, error=exc,
                        runtime_s=runtime, relaxation=relaxation,
                    )
                    break  # malformed decode: distrust this rung
                prov.record(
                    stage, rung, attempt, ok=True,
                    runtime_s=runtime, relaxation=relaxation,
                )
                prov.backend = rung
                prov.degraded = bool(
                    rung != backend or relaxation is not None
                )
                return assignment
            if escalate:
                break
        if not escalate:
            # Every rung failed for non-infeasibility reasons; relaxation
            # cannot fix that.  Hand over to the caller's terminal rung.
            logger.warning(
                "RAP solver chain %s exhausted; caller falls back", rungs
            )
            return None
    logger.warning("RAP relaxation ladder exhausted; caller falls back")
    return None
