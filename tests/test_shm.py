"""Shared-memory design DB: publish/attach, payload sizes, integrations.

Covers the zero-copy contract of :mod:`repro.placement.shm`:

* roundtrip fidelity (values, dtypes, shapes, metadata) through one
  packed segment;
* the worker-side read-only guard and the ``copy=`` escape hatch;
* leak-freedom (``active_repro_segments`` empty after the owner closes);
* the PR's payload budget: handles for a **100k-cell** design — and the
  sweep / race submission payloads built from them — pickle to ≤ 64 KB;
* the fan-out integrations: a racing rung job and a sparse-RAP
  component job fed via shared memory return exactly what their
  pickled-array twins return, and ``run_sweep(share_initial=True)``
  reproduces the unshared sweep rows bit-for-bit.
"""

import pickle

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.heights import _race_rung_job
from repro.core.sparse_rap import _solve_component_job
from repro.experiments.sweep_engine import run_sweep
from repro.geometry import Rect
from repro.placement.db import Floorplan, PlacedDesign, Row
from repro.placement.shm import (
    DESIGN_ARRAYS,
    MUTABLE_DESIGN_ARRAYS,
    SEGMENT_PREFIX,
    active_repro_segments,
    attach_arrays,
    attach_design,
    publish_arrays,
    publish_design,
)
from repro.utils.errors import ValidationError

TINY = 1.0 / 384.0

#: The PR's budget for one worker submission payload (handle, not arrays).
MAX_PAYLOAD_BYTES = 64 * 1024


class _StubDesign:
    def __init__(self, name, num_instances, num_nets):
        self.name = name
        self.num_instances = num_instances
        self.num_nets = num_nets


def synthetic_placed(n_cells=100_000, pins_per_net=3, n_ports=64, seed=0):
    """A giga-scale PlacedDesign built directly from arrays (no netlist)."""
    rng = np.random.default_rng(seed)
    n_nets = n_cells
    n_pins = n_nets * pins_per_net
    placed = object.__new__(PlacedDesign)
    placed.design = _StubDesign("giga", n_cells, n_nets)
    height = 216
    n_rows = 16
    die = Rect(0, 0, 54 * 4000, height * n_rows)
    rows = [
        Row(
            index=k, y=k * height, height=height,
            xlo=0, xhi=die.xhi, site_width=54, track_height=None,
        )
        for k in range(n_rows)
    ]
    placed.floorplan = Floorplan(die=die, rows=rows, site_width=54)
    placed.x = rng.uniform(0, die.xhi, n_cells)
    placed.y = rng.uniform(0, die.yhi, n_cells)
    placed.widths = np.full(n_cells, 54.0 * 4)
    placed.heights = np.full(n_cells, float(height))
    placed.port_x = rng.uniform(0, die.xhi, n_ports)
    placed.port_y = rng.uniform(0, die.yhi, n_ports)
    placed.net_ptr = np.arange(0, n_pins + 1, pins_per_net, dtype=np.int64)
    placed.pin_inst = rng.integers(0, n_cells, n_pins).astype(np.int64)
    placed.pin_dx = rng.uniform(0, 200.0, n_pins)
    placed.pin_dy = rng.uniform(0, 200.0, n_pins)
    placed.net_weight = np.ones(n_nets)
    placed._port_pin_mask = np.zeros(n_pins, dtype=bool)
    placed._topology = None
    return placed


class TestPublishAttach:
    def test_roundtrip_values_dtypes_meta(self):
        arrays = {
            "a": np.arange(12, dtype=np.float64).reshape(3, 4),
            "b": np.array([1, -2, 3], dtype=np.int32),
            "flags": np.array([True, False, True]),
        }
        with publish_arrays(arrays, meta={"k": 7}) as pub:
            assert pub.handle.segment.startswith(SEGMENT_PREFIX)
            attached = attach_arrays(pub.handle)
            try:
                for name, ref in arrays.items():
                    got = attached[name]
                    assert got.dtype == ref.dtype
                    assert np.array_equal(got, ref)
                assert pub.handle.meta_dict()["k"] == 7
            finally:
                attached.close()

    def test_readonly_guard_and_copy_escape(self):
        arrays = {"x": np.zeros(8), "y": np.zeros(8)}
        with publish_arrays(arrays) as pub:
            attached = attach_arrays(pub.handle, copy=("y",))
            try:
                with pytest.raises(ValueError):
                    attached["x"][0] = 1.0
                attached["y"][0] = 1.0  # private copy: writable
                assert attached["y"][0] == 1.0
            finally:
                attached.close()
        # The owner's original was never touched through the copy.
        assert arrays["y"][0] == 0.0

    def test_owner_close_unlinks_segment(self):
        before = active_repro_segments()
        pub = publish_arrays({"x": np.zeros(1024)})
        assert pub.handle.segment in active_repro_segments()
        pub.close()
        pub.close()  # idempotent
        assert active_repro_segments() == before

    def test_attach_after_unlink_fails(self):
        pub = publish_arrays({"x": np.zeros(16)})
        handle = pub.handle
        pub.close()
        with pytest.raises(FileNotFoundError):
            attach_arrays(handle)


class TestSharedDesignView:
    def test_view_matches_source_design(self, library):
        from tests.test_global_place_equivalence import make_placed

        pd = make_placed(library, 150, seed=3)
        from repro.placement.hpwl import hpwl_total

        want = hpwl_total(pd)
        with publish_design(pd) as pub:
            view = attach_design(pub.handle)
            try:
                for name in DESIGN_ARRAYS:
                    assert np.array_equal(
                        getattr(view.placed, name), getattr(pd, name)
                    ), name
                assert hpwl_total(view.placed) == want
                assert view.placed.floorplan.die == pd.floorplan.die
                assert len(view.placed.floorplan.rows) == len(pd.floorplan.rows)
                with pytest.raises(ValueError):
                    view.placed.x[0] = 0.0  # read-only by default
            finally:
                view.close()
        assert active_repro_segments() == []

    def test_mutable_copies_for_flow_workers(self, library):
        from tests.test_global_place_equivalence import make_placed

        pd = make_placed(library, 80, seed=5)
        with publish_design(pd) as pub:
            with attach_design(pub.handle, copy=MUTABLE_DESIGN_ARRAYS) as view:
                for name in MUTABLE_DESIGN_ARRAYS:
                    getattr(view.placed, name)[...] = 0.0  # must not raise
                assert np.array_equal(view.placed.net_ptr, pd.net_ptr)
        # Mutations stayed private.
        assert pd.x.any()


class TestPayloadBudget:
    """Acceptance: 100k-cell submission payloads are handles, ≤ 64 KB."""

    def test_design_handle_pickles_small(self):
        placed = synthetic_placed(n_cells=100_000)
        with publish_design(placed) as pub:
            blob = pickle.dumps(pub.handle)
            assert len(blob) <= MAX_PAYLOAD_BYTES, len(blob)
            # The arrays themselves are ~10 MB — the handle must not
            # secretly embed them.
            total = sum(spec.nbytes for spec in pub.handle.specs)
            assert total > 5_000_000
            assert len(blob) < total / 100

    def test_sweep_payload_budget(self, tmp_path):
        placed = synthetic_placed(n_cells=100_000)
        with publish_design(placed) as pub:
            payload = {
                "testcase_id": "aes_giga",
                "flow": 5,
                "config": RunConfig(scale=1.0),
                "cache_dir": str(tmp_path),
                "initial_shm": pub.handle,
            }
            assert len(pickle.dumps(payload)) <= MAX_PAYLOAD_BYTES

    def test_race_item_budget(self):
        rng = np.random.default_rng(0)
        f = rng.uniform(1.0, 10.0, (1500, 900))  # ~10 MB at giga tier
        w = rng.uniform(1.0, 2.0, 1500)
        cap = np.full(900, w.sum())
        with publish_arrays({"f0": f, "w0": w, "cap": cap}) as pub:
            item = {
                "rung": "highs",
                "shm": pub.handle,
                "budgets": [64],
                "time_limit_s": None,
                "warm": None,
                "candidate_k": 24,
                "sparse": True,
                "cancel": None,
                "sa_seed": 17,
            }
            assert len(pickle.dumps(item)) <= MAX_PAYLOAD_BYTES


class TestRaceRungShm:
    def test_shm_payload_matches_inline(self):
        rng = np.random.default_rng(7)
        f = rng.uniform(1.0, 10.0, (6, 4))
        w = rng.uniform(1.0, 2.0, 6)
        cap = np.full(4, w.sum())
        base = {
            "rung": "highs",
            "budgets": [2],
            "time_limit_s": None,
            "warm": None,
            "candidate_k": None,
            "sparse": False,
            "cancel": None,
        }
        inline = _race_rung_job({**base, "f_by": [f], "w_by": [w], "cap": cap})
        with publish_arrays({"f0": f, "w0": w, "cap": cap}) as pub:
            shared = _race_rung_job({**base, "shm": pub.handle})
        assert active_repro_segments() == []
        assert shared["rung"] == inline["rung"]
        assert shared["solution"].objective == inline["solution"].objective
        assert np.array_equal(shared["solution"].x, inline["solution"].x)


class TestSparseComponentShm:
    def test_shm_payload_matches_presliced(self):
        rng = np.random.default_rng(11)
        n_c, n_p = 10, 6
        f = rng.uniform(1.0, 10.0, (n_c, n_p))
        w = rng.uniform(1.0, 2.0, n_c)
        cap = np.full(n_p, w.sum())
        mask = np.ones((n_c, n_p), dtype=bool)
        clusters = np.array([1, 3, 4, 7])
        pairs = np.array([0, 2, 5])
        block = np.ix_(clusters, pairs)
        base = {
            "n_rows": 2,
            "backend": "highs",
            "time_limit_s": None,
            "warm": None,
            "strengthen": False,
            "cancel": None,
        }
        presliced = _solve_component_job(
            {
                **base,
                "f": f[block],
                "w": w[clusters],
                "cap": cap[pairs],
                "mask": mask[block],
            }
        )
        with publish_arrays({"f": f, "w": w, "cap": cap, "mask": mask}) as pub:
            shared = _solve_component_job(
                {**base, "shm": pub.handle, "clusters": clusters, "pairs": pairs}
            )
        assert active_repro_segments() == []
        assert shared["status"] == presliced["status"]
        if "assignment" in presliced:
            assert shared["objective"] == presliced["objective"]
            assert np.array_equal(shared["assignment"], presliced["assignment"])


class TestSweepShareInitial:
    def test_share_initial_matches_unshared(self, tmp_path):
        kwargs = dict(
            testcase_ids=("aes_300",),
            flows=(1, 5),
            cache_dir=tmp_path / "cache",
            config=RunConfig(scale=TINY, workers=1),
        )
        plain = run_sweep(**kwargs)
        shared = run_sweep(**kwargs, share_initial=True)
        assert active_repro_segments() == []
        for a, b in zip(plain.jobs, shared.jobs):
            assert a.status == b.status
            assert a.hpwl == b.hpwl
            assert a.displacement == b.displacement
            assert a.n_minority_rows == b.n_minority_rows

    def test_share_initial_requires_cache(self):
        with pytest.raises(ValidationError):
            run_sweep(
                testcase_ids=("aes_300",),
                flows=(1,),
                cache_dir=None,
                config=RunConfig(scale=TINY),
                share_initial=True,
            )
