"""Statistical helpers for Monte-Carlo experiment aggregation.

The reproduction replaces the paper's proofs with estimation, so every
reported number needs an uncertainty: success probabilities get Wilson
score intervals (well-behaved near 0 and 1, where our high-probability
claims live), and convergence-round summaries get bootstrap intervals
(round distributions are skewed, so normal approximations mislead).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    median: float
    p90: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.2f}±{self.std:.2f} "
            f"median={self.median:.1f} p90={self.p90:.1f} "
            f"range=[{self.minimum:.0f}, {self.maximum:.0f}]"
        )


def summarize(values) -> Summary:
    """Summary statistics of a non-empty sample."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ConfigurationError("cannot summarize an empty sample")
    return Summary(
        n=int(array.size),
        mean=float(array.mean()),
        std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
        minimum=float(array.min()),
        median=float(np.median(array)),
        p90=float(np.percentile(array, 90)),
        maximum=float(array.max()),
    )


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because experiment success
    rates sit near 1 (and failure rates near 0), where Wald intervals
    collapse or escape [0, 1].
    """
    if trials <= 0:
        raise ConfigurationError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ConfigurationError("successes must be in 0..trials")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p_hat = successes / trials
    denominator = 1.0 + z**2 / trials
    center = (p_hat + z**2 / (2 * trials)) / denominator
    margin = (
        z
        * np.sqrt(p_hat * (1 - p_hat) / trials + z**2 / (4 * trials**2))
        / denominator
    )
    low = float(max(0.0, center - margin))
    high = float(min(1.0, center + margin))
    # At the degenerate endpoints the Wilson bound is exactly 0/1; keep it
    # exact rather than letting float cancellation leak 0.999... out.
    if successes == trials:
        high = 1.0
    if successes == 0:
        low = 0.0
    return low, high


def bootstrap_mean_interval(
    values,
    confidence: float = 0.95,
    n_resamples: int = 2_000,
    seed: int = 0,
    statistic=np.mean,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for any statistic."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ConfigurationError("cannot bootstrap an empty sample")
    if array.size == 1:
        return float(array[0]), float(array[0])
    rng = np.random.default_rng(seed)
    resampled = np.empty(n_resamples)
    for i in range(n_resamples):
        resampled[i] = statistic(rng.choice(array, size=array.size, replace=True))
    lo = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(resampled, lo)),
        float(np.quantile(resampled, 1.0 - lo)),
    )


def empirical_probability(event_count: int, trials: int) -> float:
    """Plain ratio with a zero-trials guard."""
    if trials <= 0:
        raise ConfigurationError("trials must be positive")
    return event_count / trials


def geometric_mean(values) -> float:
    """Geometric mean of positive values (used for speedup ratios)."""
    array = np.asarray(values, dtype=float)
    if array.size == 0 or np.any(array <= 0):
        raise ConfigurationError("geometric mean needs positive values")
    return float(np.exp(np.mean(np.log(array))))
