"""The Figure 2 statistics against the numpy formulas they replaced.

:class:`~repro.analysis.temporal.TemporalAnalysis` computes its Pearson
correlations and means with :mod:`statistics`, so the analyses run without
numpy.  The reference functions below are the former numpy code, verbatim
but for their inputs; the new values may differ from them only in the last
bits, and the two correlations ``repro experiments`` reports, rounded to two
places, not at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.dataset import VulnerabilityDataset
from repro.analysis.temporal import TemporalAnalysis
from repro.core.constants import FAMILY_MEMBERS, OS_NAMES
from repro.core.enums import OSFamily
from repro.reports.experiments import run_experiment
from repro.synthetic.corpus import build_corpus

#: Fixed before the comparison was first run: last-bit differences only.
TOLERANCE = 1e-12

SEEDS = (20110627, 1, 7, 42, 2011, 31337, 65537, 99991)

#: ``(first_year, last_year)``; ``None`` takes the dataset's own bound.
WINDOWS = ((None, None), (1994, 2010), (1999, 2006))


def numpy_intra_family_correlation(analysis: TemporalAnalysis, family: OSFamily) -> float:
    members = FAMILY_MEMBERS[family]
    series = {name: analysis.series_for(name) for name in members}
    correlations = []
    for i, name_a in enumerate(members):
        for name_b in members[i + 1:]:
            a = np.array([series[name_a][year] for year in analysis.years], dtype=float)
            b = np.array([series[name_b][year] for year in analysis.years], dtype=float)
            mask = ~((a == 0) & (b == 0))
            if mask.sum() < 3:
                continue
            a, b = a[mask], b[mask]
            if a.std() == 0 or b.std() == 0:
                correlations.append(0.0)
                continue
            correlations.append(float(np.corrcoef(a, b)[0, 1]))
    if not correlations:
        return 0.0
    return float(np.mean(correlations))


def numpy_recent_vs_past(analysis: TemporalAnalysis, os_name: str, split_year: int):
    series = analysis.series_for(os_name)
    past = [count for year, count in series.items() if year < split_year]
    recent = [count for year, count in series.items() if year >= split_year]
    past_avg = float(np.mean(past)) if past else 0.0
    recent_avg = float(np.mean(recent)) if recent else 0.0
    return past_avg, recent_avg


@pytest.fixture(scope="module", params=SEEDS)
def seeded_dataset(request):
    return VulnerabilityDataset(build_corpus(seed=request.param).entries)


@pytest.mark.parametrize("window", WINDOWS)
def test_family_correlations_match_the_numpy_formulas(seeded_dataset, window):
    analysis = TemporalAnalysis(seeded_dataset, *window)
    for family in FAMILY_MEMBERS:
        expected = numpy_intra_family_correlation(analysis, family)
        assert analysis.intra_family_correlation(family) == pytest.approx(
            expected, rel=0, abs=TOLERANCE
        ), family


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("split_year", (2000, 2006))
def test_recent_vs_past_matches_the_numpy_formulas(seeded_dataset, window, split_year):
    analysis = TemporalAnalysis(seeded_dataset, *window)
    for os_name in OS_NAMES:
        expected = numpy_recent_vs_past(analysis, os_name, split_year)
        assert analysis.recent_vs_past(os_name, split_year) == pytest.approx(
            expected, rel=0, abs=TOLERANCE
        ), os_name


def test_reported_figure2_correlations_are_unchanged(seeded_dataset):
    measured = run_experiment("Figure 2", seeded_dataset).measured
    analysis = TemporalAnalysis(seeded_dataset, 1994, 2010)
    for key, family in (
        ("windows_family_correlation", OSFamily.WINDOWS),
        ("linux_family_correlation", OSFamily.LINUX),
    ):
        assert measured[key] == round(numpy_intra_family_correlation(analysis, family), 2)
