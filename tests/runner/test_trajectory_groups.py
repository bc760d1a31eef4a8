"""One simulated trajectory per group of cells that differ only in quorum model.

The event loop never reads the quorum model, so ``GridRunner`` simulates the
cells that read the same runs once and scores each under its own quorum
model.  Over random corpora and grids crossing ``3f+1`` with ``2f+1`` (every
recovery, arrival, adversary and scenario family drawn at random), each
cell must still equal its own ``run_configuration`` on the bitset engine --
and on the naive engine for classic cells -- the pooled payload must equal
the inline one, and the inline chunk histogram must see one sample per
group while the cell counter still counts cells.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.itsys.scenarios import ScenarioSpec
from repro.itsys.simulation import CompromiseSimulation
from repro.runner import ArrivalSpec, ExperimentGrid, GridRunner
from repro.runner.grid import ADVERSARY_MODES
from tests.runner.test_runner_parallel import OS_POOL, corpora

SCENARIOS = (
    None,
    ScenarioSpec(family="campaign", adversaries=3),
    ScenarioSpec(family="patch-race", closure_scale=1.5, closure_shape=2.0),
    ScenarioSpec(family="patch-race", closure="empirical", lifetimes=(0.5, 2.0)),
    ScenarioSpec(family="epidemic", spread=0.4),
    ScenarioSpec(family="adaptive", explore=0.2),
)


def _axis(values, max_size):
    return st.lists(
        st.sampled_from(values), min_size=1, max_size=max_size, unique=True
    ).map(tuple)


@st.composite
def quorum_grids(draw):
    # Groups of 1-5 replicas: n <= 3 gives f = 0 under 3f+1.
    groups = st.lists(st.sampled_from(OS_POOL), min_size=1, max_size=5).map(tuple)
    return ExperimentGrid(
        configurations={"left": draw(groups), "right": draw(groups)},
        quorum_models=tuple(draw(st.permutations(("3f+1", "2f+1")))),
        recovery_intervals=draw(_axis((None, 0.5, 1.0, 2.5), 2)),
        arrivals=draw(_axis((ArrivalSpec("poisson"), ArrivalSpec("aging", 1.6)), 2)),
        adversaries=draw(_axis(tuple(ADVERSARY_MODES), 3)),
        scenarios=draw(_axis(SCENARIOS, 2)),
        runs=draw(st.integers(min_value=1, max_value=6)),
        exploit_rate=draw(st.sampled_from((0.75, 2.0))),
        horizon=3.0,
    )


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(entries=corpora(), grid=quorum_grids(), seed=st.integers(0, 10_000))
def test_grouped_cells_score_like_their_own_campaigns(entries, grid, seed):
    runner = GridRunner(entries, seed=seed, workers=1)
    report = runner.run(grid)
    bitset = CompromiseSimulation(entries, seed=seed)
    naive = bitset.with_engine("naive")
    for cell_result in report.cells:
        cell = cell_result.cell
        expected = bitset.run_configuration(
            cell.cell_id, cell.os_names, runs=cell.runs,
            quorum_model=cell.quorum_model, **cell.campaign_kwargs(),
        )
        assert cell_result.result == expected, cell.cell_id
        if cell.scenario is None:
            assert naive.run_configuration(
                cell.cell_id, cell.os_names, runs=cell.runs,
                quorum_model=cell.quorum_model, **cell.campaign_kwargs(),
            ) == expected, cell.cell_id

    groups = {
        (cell.os_names, cell.recovery_interval, cell.arrival, cell.adversary,
         cell.scenario)
        for cell in grid.expand()
    }
    assert len(groups) <= len(grid) // 2
    chunks = runner.metrics.histogram("sweep_chunk_seconds", "")
    assert chunks.count() == len(groups)
    cells = runner.metrics.counter("sweep_cells_total", "", labels=("origin",))
    assert cells.value(origin="simulated") == len(grid)

    pooled = GridRunner(entries, seed=seed, workers=2).run(grid)
    assert json.dumps(pooled.to_json_payload(), sort_keys=True) == json.dumps(
        report.to_json_payload(), sort_keys=True
    )
