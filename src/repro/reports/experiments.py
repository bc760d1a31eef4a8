"""Experiment registry: every table and figure of the paper's evaluation.

Each experiment knows how to recompute its result from a dataset and which
published numbers it should be compared against.  The benchmark harness and
EXPERIMENTS.md are generated from this registry, so the per-experiment index
in DESIGN.md, the benchmarks and the documentation cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.dataset import VulnerabilityDataset
from repro.analysis.ksets import KSetAnalysis
from repro.analysis.metrics import summary_findings
from repro.analysis.pairs import PairAnalysis
from repro.analysis.periods import PeriodAnalysis
from repro.core.enums import ServerConfiguration, ValidityStatus
from repro.reports import figures, tables
from repro.synthetic import calibration as paper


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one reproduced experiment."""

    experiment_id: str
    description: str
    #: Key figures measured from the dataset (kept small and printable).
    measured: Mapping[str, object]
    #: The corresponding numbers published in the paper, for comparison.
    paper_values: Mapping[str, object]
    #: Full rendered artifact (table or figure text).
    rendering: str


@dataclass(frozen=True)
class Experiment:
    """A registered experiment (one table or figure of the paper)."""

    experiment_id: str
    description: str
    bench_target: str
    runner: Callable[[VulnerabilityDataset], ExperimentResult]

    def run(self, dataset: VulnerabilityDataset) -> ExperimentResult:
        return self.runner(dataset)


# ---------------------------------------------------------------------------
# individual experiment runners
# ---------------------------------------------------------------------------


def _run_table1(dataset: VulnerabilityDataset) -> ExperimentResult:
    report = tables.table1(dataset)
    summary = dataset.validity_summary()
    measured = {
        "distinct_valid": summary.distinct[ValidityStatus.VALID],
        "distinct_unknown": summary.distinct[ValidityStatus.UNKNOWN],
        "distinct_unspecified": summary.distinct[ValidityStatus.UNSPECIFIED],
        "distinct_disputed": summary.distinct[ValidityStatus.DISPUTED],
        "solaris_valid": summary.valid_count("Solaris"),
        "windows2000_valid": summary.valid_count("Windows2000"),
    }
    paper_values = {
        "distinct_valid": paper.TABLE1_DISTINCT["valid"],
        "distinct_unknown": paper.TABLE1_DISTINCT["unknown"],
        "distinct_unspecified": paper.TABLE1_DISTINCT["unspecified"],
        "distinct_disputed": paper.TABLE1_DISTINCT["disputed"],
        "solaris_valid": paper.TABLE1["Solaris"][0],
        "windows2000_valid": paper.TABLE1["Windows2000"][0],
    }
    return ExperimentResult("Table I", "Distribution of OS vulnerabilities in NVD",
                            measured, paper_values, report.text)


def _run_table2(dataset: VulnerabilityDataset) -> ExperimentResult:
    report = tables.table2(dataset)
    percentages_row = report.rows[-1]
    measured = {
        "driver_pct": percentages_row[1],
        "kernel_pct": percentages_row[2],
        "syssoft_pct": percentages_row[3],
        "application_pct": percentages_row[4],
    }
    paper_values = dict(
        zip(("driver_pct", "kernel_pct", "syssoft_pct", "application_pct"),
            paper.TABLE2_PERCENTAGES)
    )
    return ExperimentResult("Table II", "Vulnerabilities per OS component class",
                            measured, paper_values, report.text)


def _run_table3(dataset: VulnerabilityDataset) -> ExperimentResult:
    report = tables.table3(dataset)
    analysis = PairAnalysis(dataset)
    isolated = analysis.shared_matrix(ServerConfiguration.ISOLATED_THIN)
    fat = analysis.shared_matrix(ServerConfiguration.FAT)
    measured = {
        "Windows2000-Windows2003 (all)": fat[("Windows2000", "Windows2003")],
        "Windows2000-Windows2003 (isolated)": isolated[("Windows2000", "Windows2003")],
        "Debian-RedHat (all)": fat[("Debian", "RedHat")],
        "Debian-RedHat (isolated)": isolated[("Debian", "RedHat")],
        "pairs_with_zero_isolated": sum(1 for v in isolated.values() if v == 0),
    }
    paper_values = {
        "Windows2000-Windows2003 (all)": paper.TABLE3_PAIRS[paper.pair("Windows2000", "Windows2003")][0],
        "Windows2000-Windows2003 (isolated)": paper.TABLE3_PAIRS[paper.pair("Windows2000", "Windows2003")][2],
        "Debian-RedHat (all)": paper.TABLE3_PAIRS[paper.pair("Debian", "RedHat")][0],
        "Debian-RedHat (isolated)": paper.TABLE3_PAIRS[paper.pair("Debian", "RedHat")][2],
        "pairs_with_zero_isolated": sum(1 for v in paper.TABLE3_PAIRS.values() if v[2] == 0),
    }
    return ExperimentResult("Table III", "Shared vulnerabilities per OS pair under three filters",
                            measured, paper_values, report.text)


def _run_table4(dataset: VulnerabilityDataset) -> ExperimentResult:
    report = tables.table4(dataset)
    rows = report.row_map()
    def row_total(pair_label: str) -> object:
        return rows.get(pair_label, (pair_label, 0, 0, 0, 0))[4]
    measured = {
        "Windows2000-Windows2003": row_total("Windows2000-Windows2003"),
        "OpenBSD-FreeBSD": row_total("OpenBSD-FreeBSD"),
        "Debian-RedHat": row_total("Debian-RedHat"),
        "pairs_listed": len(report.rows),
    }
    paper_values = {
        "Windows2000-Windows2003": sum(paper.TABLE4_PAIRS[paper.pair("Windows2000", "Windows2003")]),
        "OpenBSD-FreeBSD": sum(paper.TABLE4_PAIRS[paper.pair("OpenBSD", "FreeBSD")]),
        "Debian-RedHat": sum(paper.TABLE4_PAIRS[paper.pair("Debian", "RedHat")]),
        "pairs_listed": len(paper.TABLE4_PAIRS),
    }
    return ExperimentResult("Table IV", "Common vulnerabilities on Isolated Thin Servers by part",
                            measured, paper_values, report.text)


def _run_table5(dataset: VulnerabilityDataset) -> ExperimentResult:
    report = tables.table5(dataset)
    analysis = PeriodAnalysis(dataset)
    table = analysis.pair_table()
    measured = {
        "Windows2000-Windows2003 history": table[("Windows2000", "Windows2003")][0],
        "Windows2000-Windows2003 observed": table[("Windows2000", "Windows2003")][1],
        "Debian-RedHat history": table[("Debian", "RedHat")][0],
        "Debian-RedHat observed": table[("Debian", "RedHat")][1],
    }
    key = paper.pair("Windows2000", "Windows2003")
    key2 = paper.pair("Debian", "RedHat")
    paper_values = {
        "Windows2000-Windows2003 history": paper.TABLE5_PAIRS[key][0],
        "Windows2000-Windows2003 observed": paper.TABLE5_PAIRS[key][1],
        "Debian-RedHat history": paper.TABLE5_PAIRS[key2][0],
        "Debian-RedHat observed": paper.TABLE5_PAIRS[key2][1],
    }
    return ExperimentResult("Table V", "History vs observed period, Isolated Thin Servers",
                            measured, paper_values, report.text)


def _run_table6(dataset: VulnerabilityDataset) -> ExperimentResult:
    report = tables.table6(dataset)
    rows = report.row_map()
    measured = {label: rows.get(label, (label, 0))[1] for label in (
        "Debian3.0-Debian4.0", "Debian4.0-RedHat4.0", "Debian4.0-RedHat5.0",
        "Debian2.1-Debian3.0", "RedHat4.0-RedHat5.0",
    )}
    paper_values = {
        "Debian3.0-Debian4.0": 1,
        "Debian4.0-RedHat4.0": 1,
        "Debian4.0-RedHat5.0": 1,
        "Debian2.1-Debian3.0": 0,
        "RedHat4.0-RedHat5.0": 1,
    }
    return ExperimentResult("Table VI", "Common vulnerabilities between OS releases",
                            measured, paper_values, report.text)


def _run_figure2(dataset: VulnerabilityDataset) -> ExperimentResult:
    report = figures.figure2(dataset)
    from repro.analysis.temporal import TemporalAnalysis
    from repro.core.enums import OSFamily

    analysis = TemporalAnalysis(dataset, 1994, 2010)
    measured = {
        "windows_family_correlation": round(analysis.intra_family_correlation(OSFamily.WINDOWS), 2),
        "linux_family_correlation": round(analysis.intra_family_correlation(OSFamily.LINUX), 2),
        "win2000_entries_before_release": len(analysis.entries_before_release("Windows2000")),
    }
    paper_values = {
        "windows_family_correlation": "strong (qualitative)",
        "linux_family_correlation": "strong (qualitative)",
        "win2000_entries_before_release": 7,
    }
    return ExperimentResult("Figure 2", "Temporal distribution of vulnerability publications",
                            measured, paper_values, report.text)


def _run_figure3(dataset: VulnerabilityDataset) -> ExperimentResult:
    report = figures.figure3(dataset)
    analysis = PeriodAnalysis(dataset)
    measured = {}
    for evaluation in analysis.evaluate_paper_configurations():
        measured[f"{evaluation.name} history"] = evaluation.history_count
        measured[f"{evaluation.name} observed"] = evaluation.observed_count
    paper_values = {}
    for name, (history, observed) in paper.FIGURE3.items():
        paper_values[f"{name} history"] = history
        paper_values[f"{name} observed"] = observed
    return ExperimentResult("Figure 3", "Replica configurations, history vs observed",
                            measured, paper_values, report.text)


def _run_ksets(dataset: VulnerabilityDataset) -> ExperimentResult:
    report = tables.ksets_summary(dataset)
    analysis = KSetAnalysis(dataset)
    counts = analysis.summary((3, 4, 5, 6))
    widest = analysis.widest(3)
    measured = {
        ">=3": counts[3], ">=4": counts[4], ">=5": counts[5], ">=6": counts[6],
        "widest_cves": tuple(w.cve_id for w in widest),
    }
    paper_values = {
        ">=3": paper.KSET_TARGETS[3], ">=4": paper.KSET_TARGETS[4], ">=5": paper.KSET_TARGETS[5],
        ">=6": 2 + 1,
        "widest_cves": tuple(sorted(paper.SPECIAL_CVES)),
    }
    return ExperimentResult("Section IV-B", "Vulnerabilities shared by larger OS groups",
                            measured, paper_values, report.text)


def _run_simulation(dataset: VulnerabilityDataset) -> ExperimentResult:
    from repro.itsys.simulation import CompromiseSimulation

    simulation = CompromiseSimulation(dataset.valid(), seed=20110627)
    set1 = ("Windows2003", "Solaris", "Debian", "OpenBSD")
    homogeneous, diverse = simulation.homogeneous_vs_diverse(
        "Debian", set1, runs=60, exploit_rate=1.0, horizon=4.0
    )
    single_homogeneous = simulation.single_exploit_analysis("4xDebian", ("Debian",) * 4)
    single_diverse = simulation.single_exploit_analysis("Set1", set1)
    measured = {
        "P[single exploit defeats homogeneous]": round(
            single_homogeneous.single_attack_defeat_probability, 2
        ),
        "P[single exploit defeats Set1]": round(
            single_diverse.single_attack_defeat_probability, 2
        ),
        "P[safety violated] homogeneous": round(
            homogeneous.safety_violation_probability, 2
        ),
        "P[safety violated] Set1": round(diverse.safety_violation_probability, 2),
        "mean peak compromised homogeneous": round(homogeneous.mean_compromised, 2),
        "mean peak compromised Set1": round(diverse.mean_compromised, 2),
    }
    paper_values = {
        "P[single exploit defeats homogeneous]": 1.0,
        "P[single exploit defeats Set1]": "~0 (qualitative)",
        "P[safety violated] homogeneous": "high (qualitative)",
        "P[safety violated] Set1": "lower (qualitative)",
        "mean peak compromised homogeneous": "n (all replicas)",
        "mean peak compromised Set1": "close to 1 (qualitative)",
    }
    rendering = "\n".join((homogeneous.summary(), diverse.summary()))
    return ExperimentResult(
        "Simulation",
        "Monte-Carlo intrusion-tolerance campaigns (homogeneous vs diverse)",
        measured, paper_values, rendering,
    )


def _run_sweep(dataset: VulnerabilityDataset) -> ExperimentResult:
    from repro.runner import ArrivalSpec, ExperimentGrid, GridRunner

    grid = ExperimentGrid(
        configurations={
            "homogeneous-Debian": ("Debian",) * 4,
            "Set1": ("Windows2003", "Solaris", "Debian", "OpenBSD"),
        },
        recovery_intervals=(None, 2.0),
        arrivals=(ArrivalSpec("poisson"),),
        runs=60,
        exploit_rate=1.0,
        horizon=4.0,
    )
    runner = GridRunner.for_dataset(dataset, seed=20110627)
    report = runner.run(grid)
    by_id = {cell.cell.cell_id: cell.result for cell in report.cells}
    homogeneous = by_id["homogeneous-Debian|3f+1|no-recovery|poisson|standard"]
    diverse = by_id["Set1|3f+1|no-recovery|poisson|standard"]
    recovered = by_id["Set1|3f+1|recovery=2|poisson|standard"]
    measured = {
        "cells": len(report.cells),
        "P[safety violated] homogeneous": round(
            homogeneous.safety_violation_probability, 2
        ),
        "P[safety violated] Set1": round(diverse.safety_violation_probability, 2),
        "P[safety violated] Set1 + recovery": round(
            recovered.safety_violation_probability, 2
        ),
    }
    paper_values = {
        "cells": 2 * 2,
        "P[safety violated] homogeneous": "high (qualitative)",
        "P[safety violated] Set1": "lower (qualitative)",
        "P[safety violated] Set1 + recovery": "lowest (qualitative)",
    }
    rendering = "\n".join(cell.result.summary() for cell in report.cells)
    return ExperimentResult(
        "Sweep",
        "Parameter-grid sweep over configurations and recovery intervals",
        measured, paper_values, rendering,
    )


def _run_summary(dataset: VulnerabilityDataset) -> ExperimentResult:
    findings = summary_findings(dataset)
    measured = {
        "fat_to_isolated_reduction_pct": round(findings.fat_to_isolated_reduction_pct, 1),
        "pairs_with_at_most_one_pct": round(findings.pairs_with_at_most_one_pct, 1),
        "driver_share_pct": round(findings.driver_share_pct, 2),
        "top_group": findings.top3_four_os_groups[0] if findings.top3_four_os_groups else (),
    }
    paper_values = {
        "fat_to_isolated_reduction_pct": paper.SUMMARY_FINDINGS["fat_to_isolated_reduction_pct"],
        "pairs_with_at_most_one_pct": f">{paper.SUMMARY_FINDINGS['pairs_with_at_most_one_pct']}",
        "driver_share_pct": f"<{paper.SUMMARY_FINDINGS['driver_share_pct']}",
        "top_group": ("Debian", "OpenBSD", "Solaris", "Windows2003"),
    }
    rendering = "\n".join(f"{key}: {value}" for key, value in measured.items())
    return ExperimentResult("Section IV-E", "Summary of the findings of the study",
                            measured, paper_values, rendering)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

EXPERIMENTS: Dict[str, Experiment] = {
    experiment.experiment_id: experiment
    for experiment in (
        Experiment("Table I", "Distribution of OS vulnerabilities in NVD",
                   "benchmarks/bench_table1.py", _run_table1),
        Experiment("Table II", "Vulnerabilities per OS component class",
                   "benchmarks/bench_table2.py", _run_table2),
        Experiment("Table III", "Shared vulnerabilities per OS pair",
                   "benchmarks/bench_table3.py", _run_table3),
        Experiment("Table IV", "Isolated Thin Server shared vulnerabilities by part",
                   "benchmarks/bench_table4.py", _run_table4),
        Experiment("Table V", "History vs observed period",
                   "benchmarks/bench_table5.py", _run_table5),
        Experiment("Table VI", "Common vulnerabilities between OS releases",
                   "benchmarks/bench_table6.py", _run_table6),
        Experiment("Figure 2", "Temporal distribution of vulnerability publications",
                   "benchmarks/bench_figure2.py", _run_figure2),
        Experiment("Figure 3", "Replica configurations: history vs observed",
                   "benchmarks/bench_figure3.py", _run_figure3),
        Experiment("Section IV-B", "Vulnerabilities shared by larger OS groups",
                   "benchmarks/bench_ksets.py", _run_ksets),
        Experiment("Section IV-E", "Summary findings",
                   "benchmarks/bench_metrics.py", _run_summary),
        Experiment("Simulation", "Monte-Carlo intrusion-tolerance campaigns",
                   "benchmarks/bench_simulation.py", _run_simulation),
        Experiment("Sweep", "Parameter-grid sweep (parallel runner)",
                   "benchmarks/bench_sweep.py", _run_sweep),
    )
}


def run_experiment(experiment_id: str, dataset: VulnerabilityDataset) -> ExperimentResult:
    """Run one registered experiment by its paper identifier."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment_id].run(dataset)


def run_all(dataset: VulnerabilityDataset) -> List[ExperimentResult]:
    """Run every registered experiment."""
    return [experiment.run(dataset) for experiment in EXPERIMENTS.values()]
