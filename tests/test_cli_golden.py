"""Golden-file tests for the JSON-emitting CLI commands.

The ``--json`` outputs of ``simulate`` and ``sweep`` are machine-readable
contracts (scripts and notebooks parse them), so beyond being *valid* they
must be *stable*: byte-identical for a fixed seed across runs, worker counts
and interpreter hash seeds.  The committed files under ``tests/golden/``
pin that contract; refresh them with ``pytest --update-golden`` after an
intentional output change.
"""

import json

import pytest

from repro.cli import main

SIMULATE_ARGS = [
    "simulate", "--runs", "8", "--horizon", "2.0",
    "--config", "Set1", "--homogeneous", "Debian", "--json",
]

SWEEP_ARGS = [
    "sweep", "--runs", "8", "--horizon", "2.0",
    "--config", "Set1", "--homogeneous", "Debian",
    "--quorum-models", "3f+1,2f+1", "--recovery-intervals", "none,1.0",
    "--no-cache", "--json",
]

SIMULATE_SCENARIO_ARGS = [
    *SIMULATE_ARGS, "--scenario",
    "patch-race:closure=empirical,lifetimes=0.5;1.25;4",
]

SWEEP_SCENARIO_ARGS = [
    "sweep", "--runs", "8", "--horizon", "2.0",
    "--config", "Set1", "--homogeneous", "Debian",
    "--scenario", "none", "--scenario", "campaign:adversaries=3",
    "--scenario", "epidemic:spread=0.4",
    "--no-cache", "--json",
]

#: Greedy-only and exploring adaptive cells, with and without recovery.
SWEEP_ADAPTIVE_ARGS = [
    "sweep", "--runs", "8", "--horizon", "2.0",
    "--config", "Set1", "--homogeneous", "Debian",
    "--recovery-intervals", "none,0.5",
    "--scenario", "adaptive:explore=0", "--scenario", "adaptive:explore=0.2",
    "--no-cache", "--json",
]


def _stdout_of(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


class TestSimulateGolden:
    def test_simulate_json_matches_golden(self, capsys, golden):
        golden("simulate.json", _stdout_of(capsys, SIMULATE_ARGS))

    def test_simulate_json_is_parseable_and_complete(self, capsys):
        payload = json.loads(_stdout_of(capsys, SIMULATE_ARGS))
        assert payload["engine"] == "bitset"
        assert {campaign["name"] for campaign in payload["campaigns"]} == set(
            payload["configurations"]
        )
        assert all(0.0 <= campaign["safety_violation_probability"] <= 1.0
                   for campaign in payload["campaigns"])


class TestSweepGolden:
    def test_sweep_json_matches_golden(self, capsys, golden):
        golden("sweep.json", _stdout_of(capsys, SWEEP_ARGS))

    def test_sweep_json_is_identical_across_worker_counts(self, capsys):
        serial = _stdout_of(capsys, SWEEP_ARGS)
        pooled = _stdout_of(capsys, [*SWEEP_ARGS, "--workers", "2"])
        assert serial == pooled

    def test_sweep_json_cold_and_warm_cache_agree(self, capsys, tmp_path, golden):
        cached = [
            argument if argument != "--no-cache" else "--cache-dir"
            for argument in SWEEP_ARGS
        ]
        cached.insert(cached.index("--cache-dir") + 1, str(tmp_path / "cache"))
        cold = _stdout_of(capsys, cached)
        warm = _stdout_of(capsys, cached)
        assert cold == warm
        # The cache-served payload matches the committed no-cache golden too.
        golden("sweep.json", warm)

    def test_sweep_json_shape(self, capsys):
        payload = json.loads(_stdout_of(capsys, SWEEP_ARGS))
        assert len(payload["cells"]) == 2 * 2 * 2  # configs x quorums x recovery
        cell_ids = [cell["cell_id"] for cell in payload["cells"]]
        assert len(set(cell_ids)) == len(cell_ids)
        for cell in payload["cells"]:
            assert cell["params"]["runs"] == 8
            assert "result" in cell and "safety_violation_probability" in cell["result"]


class TestScenarioGolden:
    """The scenario axis joins the stable JSON contract."""

    def test_simulate_scenario_json_matches_golden(self, capsys, golden):
        golden(
            "simulate_scenario.json",
            _stdout_of(capsys, SIMULATE_SCENARIO_ARGS),
        )

    def test_simulate_scenario_payload_records_normalised_params(self, capsys):
        payload = json.loads(_stdout_of(capsys, SIMULATE_SCENARIO_ARGS))
        scenario = payload["parameters"]["scenario"]
        assert scenario["family"] == "patch-race"
        assert scenario["closure"] == "empirical"
        assert scenario["lifetimes"] == [0.5, 1.25, 4.0]

    def test_sweep_scenario_json_matches_golden(self, capsys, golden):
        golden("sweep_scenarios.json", _stdout_of(capsys, SWEEP_SCENARIO_ARGS))

    def test_sweep_scenario_json_identical_across_worker_counts(self, capsys):
        serial = _stdout_of(capsys, SWEEP_SCENARIO_ARGS)
        pooled = _stdout_of(capsys, [*SWEEP_SCENARIO_ARGS, "--workers", "2"])
        assert serial == pooled

    def test_sweep_adaptive_json_matches_golden(self, capsys, golden):
        golden("sweep_adaptive.json", _stdout_of(capsys, SWEEP_ADAPTIVE_ARGS))

    def test_sweep_adaptive_json_identical_across_worker_counts(self, capsys):
        """One range per cell inline, four chunks per cell pooled."""
        serial = _stdout_of(capsys, SWEEP_ADAPTIVE_ARGS)
        pooled = _stdout_of(capsys, [*SWEEP_ADAPTIVE_ARGS, "--workers", "2"])
        assert serial == pooled

    def test_sweep_scenario_axis_multiplies_cells(self, capsys):
        payload = json.loads(_stdout_of(capsys, SWEEP_SCENARIO_ARGS))
        assert len(payload["cells"]) == 2 * 3  # configs x scenarios
        labels = {
            cell["params"].get("scenario", {"family": None})["family"]
            if cell["params"].get("scenario") else "classic"
            for cell in payload["cells"]
        }
        assert labels == {"classic", "campaign", "epidemic"}

    def test_invalid_scenario_exits_with_diagnostic(self, capsys):
        assert main([*SIMULATE_ARGS, "--scenario", "bogus"]) == 2
        assert "invalid scenario" in capsys.readouterr().err

    def test_empirical_scenario_without_db_or_lifetimes_fails_cleanly(
        self, capsys
    ):
        argv = [*SIMULATE_ARGS, "--scenario", "patch-race:closure=empirical"]
        assert main(argv) == 2
        assert "invalid scenario" in capsys.readouterr().err


class TestSweepCsv:
    def test_csv_export_writes_one_row_per_cell(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        argv = [*SWEEP_ARGS, "--csv", str(csv_path)]
        assert main(argv) == 0
        capsys.readouterr()
        lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1 + 8  # header + cells
        assert lines[0].startswith("cell_id,configuration,os_names")


@pytest.mark.parametrize("argv", [
    SIMULATE_ARGS, SWEEP_ARGS, SIMULATE_SCENARIO_ARGS, SWEEP_SCENARIO_ARGS,
])
def test_json_outputs_are_run_to_run_stable(capsys, argv):
    assert _stdout_of(capsys, argv) == _stdout_of(capsys, argv)


class TestEngineSelection:
    """``--engine`` must accept every registered engine and nothing else."""

    def test_unknown_engine_is_rejected_listing_the_valid_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--engine", "quantum", *SIMULATE_ARGS])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "invalid choice: 'quantum'" in stderr
        assert "'bitset', 'naive', 'packed'" in stderr

    def test_dataset_error_message_names_every_engine(self, golden):
        from repro.analysis.dataset import VulnerabilityDataset

        with pytest.raises(ValueError) as excinfo:
            VulnerabilityDataset([], engine="quantum")
        golden("engine_error.txt", str(excinfo.value) + "\n")

    def test_packed_is_rejected_by_the_simulator(self, capsys):
        """``packed`` names a query index, not a simulation engine."""
        for argv in (SIMULATE_ARGS, SWEEP_ARGS):
            assert main(["--engine", "packed", *argv]) == 2
            assert (
                "the simulator supports --engine bitset|naive, not 'packed'"
                in capsys.readouterr().err
            )
