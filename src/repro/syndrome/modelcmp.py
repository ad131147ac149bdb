"""Distribution-model comparison for syndrome data (CSN Sec. 5, ref [43]).

The paper asserts the syndromes "follow a power law" after rejecting
normality; Clauset-Shalizi-Newman's full methodology also compares the
power law against alternative heavy-tailed candidates with a normalised
(Vuong) log-likelihood-ratio test.  This module implements that
comparison for the tail data above the fitted ``x_min``: power law versus
lognormal and versus exponential.

A positive ratio favours the power law; ``p_value`` quantifies whether
the sign is statistically meaningful (CSN recommend trusting the sign
only when p < 0.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ReproError
from .powerlaw import PowerLawFit, fit_power_law

__all__ = ["LikelihoodRatio", "compare_to_lognormal",
           "compare_to_exponential", "model_comparison_report"]


@dataclass(frozen=True)
class LikelihoodRatio:
    """Normalised log-likelihood ratio of power law vs an alternative."""

    alternative: str
    ratio: float        # sum of per-sample log-likelihood differences
    normalized: float   # Vuong statistic
    p_value: float      # two-sided significance of the sign

    @property
    def favors_power_law(self) -> bool:
        return self.ratio > 0

    def significant(self, threshold: float = 0.1) -> bool:
        """CSN trust the ratio's sign only when p is below ~0.1."""
        return self.p_value < threshold


def _norm_sf(x: float) -> float:
    """Standard normal survival function.

    scipy is imported here, not at module level: it costs more than the
    rest of ``import repro`` together.
    """
    from scipy import stats

    return float(stats.norm.sf(x))


def _tail(samples: Sequence[float], fit: PowerLawFit) -> np.ndarray:
    data = np.asarray(
        [s for s in samples if s > 0 and math.isfinite(s)], dtype=float)
    tail = data[data >= fit.x_min]
    if len(tail) < 10:
        raise ReproError("need at least 10 tail samples for comparison")
    return tail


def _powerlaw_loglike(tail: np.ndarray, fit: PowerLawFit) -> np.ndarray:
    alpha, x_min = fit.alpha, fit.x_min
    return (math.log(alpha - 1) - math.log(x_min)
            - alpha * np.log(tail / x_min))


def _vuong(ll_power: np.ndarray, ll_alt: np.ndarray,
           alternative: str) -> LikelihoodRatio:
    diff = ll_power - ll_alt
    ratio = float(diff.sum())
    n = len(diff)
    sigma = float(diff.std(ddof=0))
    if sigma == 0.0:
        return LikelihoodRatio(alternative, ratio, 0.0, 1.0)
    normalized = ratio / (sigma * math.sqrt(n))
    p_value = 2 * _norm_sf(abs(normalized))
    return LikelihoodRatio(alternative, ratio, normalized, p_value)


def compare_to_lognormal(samples: Sequence[float],
                         fit: PowerLawFit) -> LikelihoodRatio:
    """Power law vs lognormal, both fitted to the tail above x_min."""
    tail = _tail(samples, fit)
    logs = np.log(tail)
    mu = float(logs.mean())
    sigma = float(logs.std(ddof=0)) or 1e-12
    # lognormal truncated at x_min: density normalised over [x_min, inf)
    z_min = (math.log(fit.x_min) - mu) / sigma
    tail_mass = _norm_sf(z_min) or 1e-300
    ll_lognormal = (
        -np.log(tail) - math.log(sigma) - 0.5 * math.log(2 * math.pi)
        - ((logs - mu) ** 2) / (2 * sigma ** 2) - math.log(tail_mass))
    return _vuong(_powerlaw_loglike(tail, fit), ll_lognormal, "lognormal")


def compare_to_exponential(samples: Sequence[float],
                           fit: PowerLawFit) -> LikelihoodRatio:
    """Power law vs a shifted exponential fitted to the tail."""
    tail = _tail(samples, fit)
    rate = 1.0 / max(float((tail - fit.x_min).mean()), 1e-300)
    ll_exponential = np.full_like(tail, math.log(rate)) - rate * (
        tail - fit.x_min)
    return _vuong(_powerlaw_loglike(tail, fit), ll_exponential,
                  "exponential")


def model_comparison_report(samples: Sequence[float],
                            fit: PowerLawFit = None) -> str:
    """One-paragraph textual comparison for a syndrome sample set."""
    if fit is None:
        fit = fit_power_law(samples)
    lines = [f"power-law fit: alpha={fit.alpha:.2f} x_min={fit.x_min:.3g} "
             f"(n_tail={fit.n_tail}, KS={fit.ks:.3f})"]
    for comparison in (compare_to_lognormal(samples, fit),
                       compare_to_exponential(samples, fit)):
        verdict = ("favors power law" if comparison.favors_power_law
                   else f"favors {comparison.alternative}")
        lines.append(
            f"  vs {comparison.alternative}: LR={comparison.ratio:+.1f} "
            f"(normalized {comparison.normalized:+.2f}, "
            f"p={comparison.p_value:.3f}) -> {verdict}")
    return "\n".join(lines)
