"""Unit tests for declarative experiment grids."""

import pytest

from repro.core.exceptions import SimulationError
from repro.itsys.scenarios import ScenarioSpec
from repro.runner import ADVERSARY_MODES, ArrivalSpec, ExperimentGrid, GridCell


def _grid(**overrides):
    parameters = dict(
        configurations={"A": ("Debian",) * 4, "B": ("Debian", "OpenBSD", "Solaris", "RedHat")},
        quorum_models=("3f+1", "2f+1"),
        recovery_intervals=(None, 2.0),
        arrivals=(ArrivalSpec("poisson"), ArrivalSpec("aging", 1.8)),
        adversaries=("standard",),
        runs=10,
    )
    parameters.update(overrides)
    return ExperimentGrid(**parameters)


class TestArrivalSpec:
    def test_poisson_shape_is_normalised(self):
        assert ArrivalSpec("poisson", 7.0) == ArrivalSpec("poisson", 1.0)

    def test_unknown_process_rejected(self):
        with pytest.raises(SimulationError):
            ArrivalSpec("bursty")

    def test_non_positive_shape_rejected(self):
        with pytest.raises(SimulationError):
            ArrivalSpec("aging", 0.0)

    def test_labels(self):
        assert ArrivalSpec("poisson").label == "poisson"
        assert ArrivalSpec("aging", 1.8).label == "aging(k=1.8)"


class TestExpansion:
    def test_cell_count_is_the_axis_product(self):
        grid = _grid()
        assert len(grid) == 2 * 2 * 2 * 2
        assert len(grid.expand()) == len(grid)

    def test_cell_ids_are_unique_and_deterministic(self):
        cells = _grid().expand()
        ids = [cell.cell_id for cell in cells]
        assert len(set(ids)) == len(ids)
        assert ids == [cell.cell_id for cell in _grid().expand()]

    def test_expansion_order_is_axis_major(self):
        cells = _grid().expand()
        # Configurations vary slowest, the last axis fastest.
        assert cells[0].configuration == "A"
        assert cells[len(cells) // 2].configuration == "B"
        assert cells[0].arrival.process == "poisson"
        assert cells[1].arrival.process == "aging"

    def test_cells_carry_campaign_scalars(self):
        cell = _grid(runs=42, exploit_rate=2.5, horizon=9.0).expand()[0]
        assert cell.runs == 42
        assert cell.exploit_rate == 2.5
        assert cell.horizon == 9.0
        kwargs = cell.campaign_kwargs()
        assert kwargs["exploit_rate"] == 2.5
        assert kwargs["horizon"] == 9.0
        assert "runs" not in kwargs  # run counts travel as run ranges
        assert "quorum_model" not in kwargs  # applied when scoring the runs

    def test_adversary_modes_map_to_simulator_switches(self):
        grid = _grid(adversaries=("standard", "smart", "untargeted"))
        by_adversary = {cell.adversary: cell for cell in grid.expand()}
        assert by_adversary["standard"].targeted and not by_adversary["standard"].smart
        assert by_adversary["smart"].targeted and by_adversary["smart"].smart
        assert not by_adversary["untargeted"].targeted
        assert set(by_adversary) == set(ADVERSARY_MODES)

    def test_params_round_trip_through_cell_id(self):
        for cell in _grid().expand():
            params = cell.params()
            assert params["configuration"] == cell.configuration
            assert tuple(params["os_names"]) == cell.os_names
            assert cell.cell_id.startswith(cell.configuration)


class TestScenarioAxis:
    def test_scenario_axis_multiplies_the_cell_count(self):
        grid = _grid(scenarios=(None, ScenarioSpec(family="epidemic")))
        assert len(grid) == 2 * 2 * 2 * 2 * 2
        assert len(grid.expand()) == len(grid)

    def test_default_axis_is_the_classic_adversary_only(self):
        grid = _grid()
        assert grid.scenarios == (None,)
        assert all(cell.scenario is None for cell in grid.expand())

    def test_scenario_cells_carry_spec_and_labelled_cell_id(self):
        spec = ScenarioSpec(family="campaign", adversaries=3)
        grid = _grid(scenarios=(None, spec))
        classic = [c for c in grid.expand() if c.scenario is None]
        scenario = [c for c in grid.expand() if c.scenario is not None]
        assert len(classic) == len(scenario)
        for cell in scenario:
            assert cell.scenario == spec
            assert cell.cell_id.endswith("|campaign(n=3)")
            assert cell.campaign_kwargs()["scenario"] == spec
        for cell in classic:
            assert "campaign(n=3)" not in cell.cell_id
            assert cell.campaign_kwargs()["scenario"] is None

    def test_classic_cells_omit_the_scenario_param_key(self):
        # Cache-key stability: pre-scenario sweeps must keep hitting their
        # warm entries, so a classic cell's params() must not grow a key.
        spec = ScenarioSpec(family="adaptive", explore=0.1)
        cells = _grid(scenarios=(None, spec)).expand()
        classic = next(c for c in cells if c.scenario is None)
        scenario = next(c for c in cells if c.scenario is not None)
        assert "scenario" not in classic.params()
        assert scenario.params()["scenario"] == spec.params()

    @pytest.mark.parametrize("value", [
        (),
        (ScenarioSpec(family="epidemic"), ScenarioSpec(family="epidemic")),
        ("epidemic",),
    ])
    def test_bad_scenario_axes_rejected(self, value):
        with pytest.raises(SimulationError):
            _grid(scenarios=value)


class TestValidation:
    def test_empty_configurations_rejected(self):
        with pytest.raises(SimulationError):
            _grid(configurations={})

    def test_empty_replica_list_rejected(self):
        with pytest.raises(SimulationError):
            _grid(configurations={"empty": ()})

    @pytest.mark.parametrize("axis,value", [
        ("quorum_models", ()),
        ("quorum_models", ("4f+2",)),
        ("quorum_models", ("3f+1", "3f+1")),
        ("recovery_intervals", (0.0,)),
        ("recovery_intervals", (-1.0,)),
        ("adversaries", ("clever",)),
        ("arrivals", ()),
    ])
    def test_bad_axes_rejected(self, axis, value):
        with pytest.raises(SimulationError):
            _grid(**{axis: value})

    @pytest.mark.parametrize("scalar,value", [
        ("runs", 0), ("exploit_rate", 0.0), ("horizon", -1.0),
    ])
    def test_bad_scalars_rejected(self, scalar, value):
        with pytest.raises(SimulationError):
            _grid(**{scalar: value})
