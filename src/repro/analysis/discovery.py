"""Vulnerability discovery models fitted to the cumulative report counts.

The paper's related-work section (Section II) contrasts two views of how
vulnerability reports accumulate over a product's lifetime: Alhazmi and
Malaiya fit an S-shaped (logistic) curve, while Schryen argues the growth is
essentially linear.  This module fits both models to the per-OS cumulative
vulnerability counts of the corpus, so the question can be asked of the data
the study actually uses, and so the temporal calibration of the synthetic
corpus can be sanity-checked quantitatively.

Two models:

* **linear** -- ``V(t) = a + b t``;
* **logistic (Alhazmi-Malaiya)** -- ``V(t) = B / (1 + C exp(-A B t))`` where
  ``B`` is the (estimated) total number of vulnerabilities that will ever be
  found.

Both are fitted with least squares, and compared with the coefficient of
determination R².  Both fits need numpy, which they import in their bodies,
as :meth:`ModelFit.predict` does.  The logistic fit also uses
``scipy.optimize.curve_fit``; scipy is the optional ``fit`` extra
(``pip install .[fit]``) and is imported inside
:meth:`DiscoveryModelAnalysis.fit_logistic`.  So importing this module (and
:mod:`repro.analysis`) loads neither.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.dataset import VulnerabilityDataset
from repro.analysis.temporal import TemporalAnalysis

if TYPE_CHECKING:  # pragma: no cover - type-only import
    import numpy as np


@dataclass(frozen=True)
class ModelFit:
    """One fitted discovery model for one OS."""

    os_name: str
    model: str                      # "linear" or "logistic"
    parameters: Tuple[float, ...]
    r_squared: float
    #: Predicted cumulative counts, aligned with the fitted years.
    predictions: Tuple[float, ...]

    def predict(self, t: float) -> float:
        """Model value at (fractional) years since the first observation."""
        if self.model == "linear":
            a, b = self.parameters
            return a + b * t
        import numpy as np

        a, b, c = self.parameters
        return b / (1.0 + c * np.exp(-a * b * t))


def _r_squared(observed: np.ndarray, predicted: np.ndarray) -> float:
    residual = float(((observed - predicted) ** 2).sum())
    total = float(((observed - observed.mean()) ** 2).sum())
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total


class DiscoveryModelAnalysis:
    """Fits vulnerability-discovery models to per-OS cumulative counts."""

    def __init__(
        self,
        dataset: VulnerabilityDataset,
        first_year: int = 1994,
        last_year: int = 2010,
    ) -> None:
        self._temporal = TemporalAnalysis(dataset.valid(), first_year, last_year)

    # -- data -----------------------------------------------------------------

    def cumulative_series(self, os_name: str) -> Tuple[List[int], List[int]]:
        """(years, cumulative counts) for one OS, starting at its first report."""
        series = self._temporal.series_for(os_name)
        years = sorted(series)
        counts = list(itertools.accumulate(series[year] for year in years))
        # Trim leading years with zero reports so models are not forced
        # through a long flat prefix (recent OSes like Windows 2008).
        first_nonzero = next((i for i, value in enumerate(counts) if value > 0), 0)
        return years[first_nonzero:], counts[first_nonzero:]

    # -- fitting -----------------------------------------------------------------

    def fit_linear(self, os_name: str) -> ModelFit:
        """Least-squares linear fit of the cumulative count."""
        import numpy as np

        years, cumulative = self.cumulative_series(os_name)
        if len(years) < 2:
            raise ValueError(f"not enough data to fit a model for {os_name}")
        t = np.array(years, dtype=float) - years[0]
        observed = np.array(cumulative, dtype=float)
        b, a = np.polyfit(t, observed, 1)
        predicted = a + b * t
        return ModelFit(
            os_name=os_name,
            model="linear",
            parameters=(float(a), float(b)),
            r_squared=_r_squared(observed, predicted),
            predictions=tuple(float(v) for v in predicted),
        )

    def fit_logistic(self, os_name: str) -> ModelFit:
        """Least-squares Alhazmi-Malaiya logistic fit of the cumulative count."""
        import numpy as np

        years, cumulative = self.cumulative_series(os_name)
        if len(years) < 4:
            raise ValueError(f"not enough data to fit a logistic model for {os_name}")
        t = np.array(years, dtype=float) - years[0]
        observed = np.array(cumulative, dtype=float)
        total_guess = max(observed[-1] * 1.5, 1.0)

        def model(time, a, b, c):
            return b / (1.0 + c * np.exp(-a * b * time))

        from scipy import optimize  # the optional ``fit`` extra

        try:
            parameters, _ = optimize.curve_fit(
                model,
                t,
                observed,
                p0=(0.01, total_guess, 10.0),
                maxfev=20_000,
                bounds=((1e-6, observed[-1] * 0.5, 1e-3), (10.0, observed[-1] * 20.0, 1e6)),
            )
        except (RuntimeError, ValueError):
            # Fall back to the initial guess when the optimiser does not
            # converge (can happen for very short series).
            parameters = np.array((0.01, total_guess, 10.0))
        predicted = model(t, *parameters)
        return ModelFit(
            os_name=os_name,
            model="logistic",
            parameters=tuple(float(p) for p in parameters),
            r_squared=_r_squared(observed, predicted),
            predictions=tuple(float(v) for v in predicted),
        )

    def compare_models(self, os_name: str) -> Dict[str, ModelFit]:
        """Fit both models for one OS and return them keyed by model name."""
        return {"linear": self.fit_linear(os_name), "logistic": self.fit_logistic(os_name)}

    def best_model_per_os(
        self, os_names: Optional[Sequence[str]] = None
    ) -> Dict[str, str]:
        """Which model fits each OS better (by R²)."""
        os_names = os_names or self._temporal._dataset.os_names  # noqa: SLF001
        winners: Dict[str, str] = {}
        for name in os_names:
            try:
                fits = self.compare_models(name)
            except ValueError:
                continue
            winners[name] = max(fits.values(), key=lambda fit: fit.r_squared).model
        return winners

    def saturation_estimates(
        self, os_names: Optional[Sequence[str]] = None
    ) -> Dict[str, float]:
        """Logistic-model estimate of the total vulnerabilities per OS (parameter B)."""
        os_names = os_names or self._temporal._dataset.os_names  # noqa: SLF001
        estimates: Dict[str, float] = {}
        for name in os_names:
            try:
                fit = self.fit_logistic(name)
            except ValueError:
                continue
            estimates[name] = fit.parameters[1]
        return estimates
