"""Statistics used throughout the campaigns.

Provides the two statistical guarantees the paper reports: the margin of
error of a fault-sampling campaign (Leveugle et al.'s formula, behind the
"<3% margin with 12,000 faults" claim in Sec. V-B) and binomial confidence
intervals on measured SDC/DUE proportions ("95% confidence intervals
lower than 5%", Sec. VI).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "margin_of_error",
    "sample_size_for_margin",
    "proportion_confidence_interval",
    "wilson_interval",
    "log_histogram",
]


def _z(confidence: float) -> float:
    """Two-sided normal critical value for *confidence*.

    scipy is imported here, not at module level: it costs more than the
    rest of ``import repro`` together, and most callers never need it.
    """
    from scipy import stats as _sps

    return float(_sps.norm.ppf(0.5 + confidence / 2.0))


def margin_of_error(n_samples: int, population: int = 10**9,
                    confidence: float = 0.95, p: float = 0.5) -> float:
    """Statistical fault-sampling margin of error (Leveugle et al., 2009).

    ``e = t * sqrt(p (1-p) / n * (N - n) / (N - 1))`` for a sample of *n*
    faults from a population of *N* possible (location, time) pairs; the
    worst case ``p = 0.5`` is the paper's convention.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    t = _z(confidence)
    n = min(n_samples, population)
    finite = (population - n) / max(population - 1, 1)
    return t * math.sqrt(p * (1.0 - p) / n * finite)


def sample_size_for_margin(margin: float, population: int = 10**9,
                           confidence: float = 0.95, p: float = 0.5) -> int:
    """Faults needed for a target margin of error (inverse of the above)."""
    if not 0 < margin < 1:
        raise ValueError("margin must be in (0, 1)")
    t = _z(confidence)
    n0 = (t / margin) ** 2 * p * (1.0 - p)
    n = n0 / (1.0 + (n0 - 1.0) / population)
    return int(math.ceil(n))


def proportion_confidence_interval(successes: int, trials: int,
                                   confidence: float = 0.95
                                   ) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    return wilson_interval(successes, trials, confidence)


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval — well-behaved near 0 and 1.

    ``trials == 0`` yields the uninformative ``(0.0, 1.0)``: a cell with
    no observations constrains the proportion not at all, which lets
    adaptive controllers treat warm-up and empty cells uniformly instead
    of special-casing them.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if trials == 0:
        if successes != 0:
            raise ValueError("successes must be within [0, trials]")
        return (0.0, 1.0)
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    z = _z(confidence)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = (z * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom)
    return (max(0.0, centre - half), min(1.0, centre + half))


def log_histogram(samples: Sequence[float], lo_exp: int = -8,
                  hi_exp: int = 3) -> "Tuple[np.ndarray, np.ndarray]":
    """Decade-binned histogram of relative errors (Figures 5/6/9 axes).

    Returns ``(bin_edges, fractions)`` where edges are ``10**k`` for
    ``k in [lo_exp, hi_exp]``; samples are clipped into the range so the
    first/last bins collect the "<1e-8" / ">1e2" tails the paper plots.
    """
    edges = np.power(10.0, np.arange(lo_exp, hi_exp + 1))
    data = np.asarray([s for s in samples if math.isfinite(s)], dtype=float)
    if len(data) == 0:
        return edges, np.zeros(len(edges) - 1)
    clipped = np.clip(data, edges[0] * 1.0000001, edges[-1] * 0.9999999)
    counts, _ = np.histogram(clipped, bins=edges)
    return edges, counts / len(data)
