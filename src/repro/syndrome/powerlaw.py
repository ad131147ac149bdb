"""Power-law modelling of fault syndromes (paper Sec. V-C, Eq. 1).

The paper finds that the relative-error syndrome at a corrupted
instruction's output is not Gaussian (Shapiro-Wilk p < 0.05 everywhere)
but follows a power law in which a few effects dominate.  Parameters are
estimated with the Clauset-Shalizi-Newman method [43]: the continuous
maximum-likelihood estimator for the scaling exponent

    alpha = 1 + n / sum(ln(x_i / x_min))

with ``x_min`` chosen to minimise the Kolmogorov-Smirnov distance between
the empirical tail and the fitted model.  Sampling inverts the CDF exactly
as the paper's Eq. (1):

    x = x_min * (1 - r) ** (-1 / (alpha - 1)),   r ~ U[0, 1)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ReproError

__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "sample_power_law",
    "ks_distance",
    "is_gaussian",
]


@dataclass(frozen=True)
class PowerLawFit:
    """A fitted continuous power law ``p(x) ~ x^-alpha`` for ``x >= x_min``."""

    alpha: float
    x_min: float
    n_tail: int           # samples at or above x_min
    ks: float             # KS distance of the tail against the fit

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw syndromes via the paper's Eq. (1) inverse CDF."""
        return sample_power_law(self.alpha, self.x_min, rng, size)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Model CDF: 0 below the tail, ``1 - (x/x_min)^(1-alpha)`` above.

        The power law only models the tail ``x >= x_min``; below it the
        CDF is clamped to 0 rather than extrapolated negative (and the
        power is never evaluated there, so ``x <= 0`` cannot produce
        NaNs).
        """
        x = np.asarray(x, dtype=float)
        safe = np.maximum(x, self.x_min)
        tail = 1.0 - np.power(safe / self.x_min, 1.0 - self.alpha)
        return np.where(x < self.x_min, 0.0, tail)

    def to_dict(self) -> dict:
        from ..artifacts import codec_for

        return codec_for(PowerLawFit).dump(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PowerLawFit":
        from ..artifacts import codec_for

        return codec_for(PowerLawFit).load(data)


def sample_power_law(alpha: float, x_min: float,
                     rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Paper Eq. (1): ``x = x_min * (1 - r)^(-1/(alpha-1))``."""
    if alpha <= 1.0:
        raise ValueError("power-law exponent must exceed 1")
    if x_min <= 0.0:
        raise ValueError("x_min must be positive")
    r = rng.random(size)
    return x_min * np.power(1.0 - r, -1.0 / (alpha - 1.0))


def _mle_alpha(tail: np.ndarray, x_min: float) -> float:
    """Continuous MLE for the scaling exponent (CSN Eq. 3.1)."""
    logs = np.log(tail / x_min)
    total = float(np.sum(logs))
    if total <= 0.0:
        return math.inf
    return 1.0 + len(tail) / total


def ks_distance(tail: np.ndarray, alpha: float, x_min: float) -> float:
    """Kolmogorov-Smirnov distance between the tail and the fitted model."""
    tail = np.sort(tail)
    n = len(tail)
    model = 1.0 - np.power(tail / x_min, 1.0 - alpha)
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    return float(
        max(np.max(np.abs(empirical_hi - model)),
            np.max(np.abs(empirical_lo - model))))


def fit_power_law(samples: Sequence[float], n_xmin_candidates: int = 50,
                  min_tail: int = 10) -> PowerLawFit:
    """Fit a continuous power law by scanning ``x_min`` candidates.

    Follows Clauset-Shalizi-Newman: for each candidate ``x_min`` (drawn
    from the distinct sample values), estimate alpha by MLE over the tail
    and keep the candidate with the smallest KS distance.  Requires at
    least ``min_tail`` positive samples.
    """
    data = np.asarray([s for s in samples if s > 0 and math.isfinite(s)],
                      dtype=float)
    if len(data) < min_tail:
        raise ReproError(
            f"need at least {min_tail} positive syndromes to fit a power "
            f"law, got {len(data)}")
    candidates = np.unique(data)
    if len(candidates) > n_xmin_candidates:
        idx = np.linspace(0, len(candidates) - 1, n_xmin_candidates)
        candidates = candidates[idx.astype(int)]
    # never let the tail shrink below min_tail samples
    best: Optional[PowerLawFit] = None
    for x_min in candidates:
        tail = data[data >= x_min]
        if len(tail) < min_tail:
            break
        alpha = _mle_alpha(tail, float(x_min))
        if not math.isfinite(alpha) or alpha <= 1.0:
            continue
        ks = ks_distance(tail, alpha, float(x_min))
        if best is None or ks < best.ks:
            best = PowerLawFit(alpha, float(x_min), len(tail), ks)
    if best is None:
        # degenerate data (e.g. all samples identical): fall back to a
        # steep power law anchored at the smallest positive sample
        x_min = float(np.min(data))
        best = PowerLawFit(3.5, x_min, len(data),
                           ks_distance(data, 3.5, x_min))
    return best


def is_gaussian(samples: Sequence[float], p_threshold: float = 0.05) -> bool:
    """Shapiro-Wilk normality check used by the paper (Sec. V-C).

    Returns True when normality cannot be rejected at *p_threshold*.
    """
    data = np.asarray([s for s in samples if math.isfinite(s)], dtype=float)
    if len(data) < 3:
        raise ReproError("Shapiro-Wilk requires at least 3 samples")
    if np.allclose(data, data[0]):
        return False  # a constant is not Gaussian
    # Shapiro-Wilk is exact for n <= 5000; subsample deterministically above
    if len(data) > 5000:
        data = data[:: len(data) // 5000 + 1]
    from scipy import stats  # lazy: scipy dominates ``import repro``

    _, p_value = stats.shapiro(data)
    return bool(p_value >= p_threshold)
