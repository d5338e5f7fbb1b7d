"""The unified run configuration shared by flows, experiments, sweeps, CLI.

Before this module every entry point re-declared ``--scale-denom``,
``--seed``, ``--alpha``, ``--s`` and ``--budget-s`` with drifting
defaults.  :class:`RunConfig` is the single source of truth: testcase
scale, method parameters (:class:`~repro.core.params.RCPPParams`),
resilience policy, base seed and worker count — consumed by
``run_testcase``, the sweep engine and every CLI subcommand
(:func:`add_run_config_args` / :meth:`RunConfig.from_args`).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import zlib
from dataclasses import dataclass, field

from repro.core.heights import HeightSpec
from repro.core.params import RCPPParams
from repro.utils.errors import ValidationError
from repro.utils.resilience import FaultPlan, ResiliencePolicy

#: Default experiment scale: 1/24 of the paper's cell counts keeps a full
#: 26-testcase sweep tractable in pure Python (canonical value; the
#: experiments package re-exports it).
DEFAULT_SCALE = 1.0 / 24.0


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs beyond the testcase itself.

    * ``scale`` — fraction of the paper's cell counts to generate
      (``1 / scale_denom`` on the CLI).
    * ``params`` — the method's :class:`RCPPParams` (alpha, s, solver
      backend, ``time_budget_s``, ...).
    * ``policy`` — optional :class:`ResiliencePolicy` override; ``None``
      derives it from ``params`` as before.
    * ``seed`` — base seed mixed into per-job seeds by the sweep engine;
      ``None`` keeps the testcase-derived seeds.
    * ``workers`` — process count for sweep execution (1 = inline).
    * ``utilization`` / ``aspect_ratio`` — floorplan knobs of the initial
      placement.
    """

    scale: float = DEFAULT_SCALE
    params: RCPPParams = field(default_factory=RCPPParams)
    policy: ResiliencePolicy | None = None
    fault_plan: FaultPlan | None = None
    seed: int | None = None
    workers: int = 1
    utilization: float = 0.60
    aspect_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValidationError("scale must be positive")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if not (0.0 < self.utilization <= 1.0):
            raise ValidationError("utilization must be in (0, 1]")
        if self.aspect_ratio <= 0:
            raise ValidationError("aspect_ratio must be positive")

    @property
    def scale_denom(self) -> float:
        return 1.0 / self.scale

    def replace(self, **changes: object) -> "RunConfig":
        """Functional update (``dataclasses.replace`` convenience)."""
        return dataclasses.replace(self, **changes)

    def job_seed(self, testcase_id: str, flow: int) -> int:
        """Deterministic per-job seed: stable across runs and machines."""
        base = self.seed if self.seed is not None else 0
        return zlib.crc32(f"{testcase_id}:{flow}:{base}".encode()) & 0x7FFFFFFF

    # -- content hashing (artifact cache key material) ---------------------

    def initial_placement_fingerprint(self) -> dict:
        """The config facets that determine ``prepare_initial_placement``.

        Only fields that change the shared Flow-(1) artifact belong here;
        solver/legalization knobs deliberately do not, so all flows of one
        testcase share a cache entry.
        """
        out = {
            "scale": self.scale,
            "seed": self.seed,
            "utilization": self.utilization,
            "aspect_ratio": self.aspect_ratio,
            # Pre-HeightSpec key material, kept so cache entries keep
            # their hashes; an explicit spec extends it below.
            "minority_track": HeightSpec.two_height().minority_tracks[0],
        }
        if self.params.heights is not None:
            out["heights"] = self.params.heights.to_dict()
        return out

    def content_hash(self) -> str:
        """Hash of the initial-placement fingerprint (cache key part)."""
        payload = json.dumps(
            self.initial_placement_fingerprint(), sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict:
        """JSON-able snapshot for sweep reports (policy summarized)."""
        return {
            "scale": self.scale,
            "scale_denom": self.scale_denom,
            "seed": self.seed,
            "workers": self.workers,
            "utilization": self.utilization,
            "aspect_ratio": self.aspect_ratio,
            "params": dataclasses.asdict(self.params),
            "policy": None
            if self.policy is None
            else {
                "fallback_enabled": self.policy.fallback_enabled,
                "relaxation_enabled": self.policy.relaxation_enabled,
                "chain": list(self.policy.chain),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Rebuild from a :meth:`to_dict` snapshot (policy is dropped —
        it summarizes, not serializes)."""
        params_data = dict(data.get("params", {}))
        heights_data = params_data.pop("heights", None)
        heights = (
            None if heights_data is None
            else HeightSpec.from_dict(heights_data)
        )
        field_names = {f.name for f in dataclasses.fields(RCPPParams)}
        params = RCPPParams(
            heights=heights,
            **{k: v for k, v in params_data.items() if k in field_names},
        )
        return cls(
            scale=float(data.get("scale", DEFAULT_SCALE)),
            params=params,
            seed=data.get("seed"),
            workers=int(data.get("workers", 1)),
            utilization=float(data.get("utilization", 0.60)),
            aspect_ratio=float(data.get("aspect_ratio", 1.0)),
        )

    # -- CLI integration ---------------------------------------------------

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        """Build from a namespace produced by :func:`add_run_config_args`.

        Missing attributes fall back to the dataclass defaults, so the
        helper composes with subcommands that only add a subset.
        """
        defaults = RCPPParams()
        heights_text = getattr(args, "heights", None)
        heights = (
            None if not heights_text
            else HeightSpec.parse(
                heights_text, getattr(args, "row_budgets", None)
            )
        )
        params = RCPPParams(
            alpha=getattr(args, "alpha", defaults.alpha),
            s=getattr(args, "s", defaults.s),
            heights=heights,
            solver_backend=getattr(args, "solver", defaults.solver_backend),
            fallback=not getattr(args, "no_fallback", False),
            max_solver_retries=getattr(
                args, "retries", defaults.max_solver_retries
            ),
            time_budget_s=getattr(args, "budget_s", None),
            rap_workers=getattr(args, "rap_workers", defaults.rap_workers),
        )
        scale_denom = getattr(args, "scale_denom", None)
        scale = (
            1.0 / float(scale_denom) if scale_denom else DEFAULT_SCALE
        )
        return cls(
            scale=scale,
            params=params,
            seed=getattr(args, "seed", None),
            workers=getattr(args, "workers", 1) or 1,
        )


def add_run_config_args(
    parser: argparse.ArgumentParser,
    scale_denom: float = 48.0,
    workers: bool = False,
) -> None:
    """Install the shared run-configuration flags on a CLI subparser.

    One definition (defaults included) for every subcommand; pair with
    :meth:`RunConfig.from_args`.
    """
    defaults = RCPPParams()
    parser.add_argument(
        "--scale-denom", type=float, default=scale_denom,
        help="cell-count denominator: designs run at 1/D of paper size",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="base seed mixed into per-job seeds (default: testcase-derived)",
    )
    parser.add_argument("--alpha", type=float, default=defaults.alpha)
    parser.add_argument("--s", type=float, default=defaults.s)
    parser.add_argument(
        "--heights", type=str, default=None, metavar="T0,T1[,T2...]",
        help=(
            "track heights, majority first (e.g. 6,7.5,9); omitted = the "
            "paper's two-height 6/7.5 setting"
        ),
    )
    parser.add_argument(
        "--row-budgets", type=str, default=None, metavar="T=N[,T=N...]",
        help=(
            "forced row-pair budgets per minority track (e.g. 7.5=3,9=2 "
            "or positional 3,2); omitted budgets derive from area"
        ),
    )
    parser.add_argument(
        "--solver", choices=("highs", "bnb", "lagrangian"),
        default=defaults.solver_backend,
    )
    parser.add_argument(
        "--budget-s", type=float, default=None,
        help="per-flow wall-clock budget in seconds (default: unlimited)",
    )
    parser.add_argument(
        "--no-fallback", action="store_true",
        help="disable the solver fallback chain (fail hard instead)",
    )
    parser.add_argument(
        "--retries", type=int, default=defaults.max_solver_retries,
        help="attempts per solver rung for transient failures",
    )
    parser.add_argument(
        "--rap-workers", type=int, default=defaults.rap_workers,
        help=(
            "RAP solver processes: >1 races the backend rungs "
            "concurrently (first certified answer wins)"
        ),
    )
    if workers:
        parser.add_argument(
            "--workers", type=int, default=1,
            help="parallel worker processes (1 = run inline)",
        )
