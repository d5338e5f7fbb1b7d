"""N-track-height row assignment behind the :class:`HeightSpec` API.

The paper's formulation (and this repo's original core) hardcodes a
minority/majority dichotomy: one tall track forms row islands inside a
sea of short rows.  This module generalizes that to an ordered set of
*height classes*: the majority track plus ``K >= 1`` minority tracks,
each with its own row budget (forced, or derived from the class's cell
area and a fill target — the N-height generalization of Eq. 5).

The joint MILP is the natural height-indexed extension of Eqs. (1)-(5):
per-class assignment, capacity, host and row-count constraints plus
pair exclusivity ``sum_h y[h, r] <= 1`` (a pair carries one track
height; the rows vanish at ``K = 1``).  One class-indexed engine,
:func:`repro.core.sparse_rap.solve_rap_sparse`, builds and solves it for
every ``K``; this module holds the spec, the greedy and annealing
heuristics, and the resilient chain.

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

from repro.core.rap import (
    RowAssignment,
    greedy_rap,
    required_minority_pairs,
    validate_rap_inputs,
)
from repro.core.sparse_rap import (
    SparseSolveStats,
    assignment_cost,
    feasible_assignment,
    solve_rap_sparse,
)
from repro.obs.convergence import observe
from repro.obs.metrics import MetricsRegistry, current_registry, use_registry
from repro.obs.trace import span
from repro.placement.shm import SHM_MIN_BYTES, publish_arrays
from repro.solvers.milp import MilpSolution, MilpStatus
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

# The benchmark's layer tracer (perfbench/layers.py) patches these names
# on this module; they are imported only so that table still resolves,
# and this module never calls them (its solves run in
# repro.core.sparse_rap).  A later benchmark change can drop them.
from scipy.optimize import linprog  # noqa: F401
from repro.solvers.milp import solve_milp  # noqa: F401

logger = logging.getLogger(__name__)

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
    two-entry spec (``K = 1``) is the paper's exact setting, solved as
    the one-class case of the same engine.
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
# Heuristics: greedy incumbent + simulated annealing fallback
# ---------------------------------------------------------------------------


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
    current = feasible_assignment(
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

    obj = assignment_cost(f_by_class, current)
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

    best = feasible_assignment(best, width_by_class, cap, budgets)
    if best is None:  # defensive: moves should preserve feasibility
        return None
    return best, assignment_cost(f_by_class, best)


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

    Only single-class solves take their greedy seed from here (bnb
    prunes with it, the engine fixes columns against it); at ``K >= 2``
    the engine derives its own incumbent.
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

    MILP rungs run :func:`~repro.core.sparse_rap.solve_rap_sparse`; the
    terminal ``"sa"`` rung anneals and returns no MILP solution.  The
    sequential chain and the racing workers both solve through here.
    """
    if rung == "sa":
        annealed = anneal_nheight(
            f_by_class, width_by_class, usable, budgets, seed=sa_seed,
            time_limit_s=time_limit_s, initial=warm,
        )
        if annealed is None:
            raise InfeasibleError("SA found no feasible N-height start")
        return None, annealed[0], None
    return solve_rap_sparse(
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
            else assignment_cost(f_by_class, maps)
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
        stats = result.outcomes[chosen].value["stats"]
        prov.certified = (
            stats.certified if rung in EXACT_BACKENDS else None
        )
        won = chosen == result.winner_index
        prov.degraded = bool(
            (not won and rung != backend)
            or relaxation is not None
            or result.outcomes[chosen].ran_inline
            or prov.certified is False
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

    Every MILP rung solves through
    :func:`~repro.core.sparse_rap.solve_rap_sparse` (``sparse`` selects
    its pruned path; ``candidate_k`` forces the top-k strategy).  The
    rungs are the policy's backend chain; with ``K >= 2`` only its exact
    backends (the joint model has no Lagrangian decomposition), followed
    by a terminal simulated-annealing rung (:func:`anneal_nheight`,
    recorded as ``backend="sa"``).
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
    ``backend`` / ``certified`` / ``degraded`` fields are set (an exact
    rung answering without an optimality certificate is degraded).
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
            validate_rap_inputs(
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
                prov.certified = (
                    stats.certified if rung in EXACT_BACKENDS else None
                )
                prov.degraded = bool(
                    rung != backend
                    or relaxation is not None
                    or prov.certified is False
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
