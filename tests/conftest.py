"""Shared fixtures: the library and small prebuilt designs.

Module-scoped fixtures keep the suite fast: the library and the reference
designs are immutable from the tests' point of view (tests that mutate a
design build their own).
"""

import numpy as np
import pytest

from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.synthesis import size_to_minority_fraction
from repro.techlib.asap7 import make_asap7_library


@pytest.fixture(scope="session")
def library():
    return make_asap7_library()


def make_design(
    library,
    n_cells=600,
    clock_ps=600.0,
    minority_fraction=0.15,
    seed=5,
    **spec_kw,
):
    """Small mixed track-height design for integration-style tests."""
    spec = GeneratorSpec(
        name=f"t{n_cells}_{seed}",
        n_cells=n_cells,
        clock_period_ps=clock_ps,
        seed=seed,
        **spec_kw,
    )
    design = generate_netlist(spec, library)
    if minority_fraction > 0:
        size_to_minority_fraction(design, minority_fraction)
    return design


def solve_assignment(
    f,
    cluster_width,
    pair_capacity,
    n_rows,
    labels,
    majority_track=6.0,
    minority_track=7.5,
    backend="highs",
):
    """One-class RAP through the engine's full-mask path, decoded.

    Raises :class:`~repro.utils.errors.InfeasibleError` when the solve
    returns no assignment.
    """
    from repro.core.rap import RowAssignment
    from repro.core.sparse_rap import solve_rap_sparse
    from repro.utils.errors import InfeasibleError

    solution, maps, _ = solve_rap_sparse(
        [f], [cluster_width], pair_capacity, [n_rows],
        backend=backend, sparse=False,
    )
    if maps is None:
        raise InfeasibleError(f"RAP solve failed: {solution.status}")
    cluster_to_pair = maps[0]
    cells = cluster_to_pair[np.asarray(labels)]
    return RowAssignment.from_classes(
        {minority_track: (cluster_to_pair, cells)},
        majority_track,
        f.shape[1],
        objective=solution.objective,
        ilp_runtime_s=solution.runtime_s,
        num_variables=f.size + f.shape[1],
        solver_nodes=solution.nodes,
    )


@pytest.fixture(scope="session")
def small_design(library):
    return make_design(library)


@pytest.fixture(scope="session")
def placed_small(library, small_design):
    """Initial placement of the shared small design (do not mutate)."""
    from repro.core.flows import prepare_initial_placement

    return prepare_initial_placement(small_design, library)
