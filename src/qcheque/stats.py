"""Small statistics helpers shared by the attack harness and the test suite."""

from __future__ import annotations

import math

__all__ = [
    "binomial_sigma",
    "sigma_of_mean",
    "within_sigma",
    "wilson_interval",
]

_WILSON_Z = 1.96  # the normal quantile of a two-sided 95% interval


def binomial_sigma(p: float, trials: int) -> float:
    """Standard deviation of an empirical rate over `trials` Bernoulli(p) draws."""
    if trials < 1:
        raise ValueError("trials must be positive")
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def sigma_of_mean(probabilities: list[float]) -> float:
    """Standard deviation of the mean of independent, non-identical Bernoullis."""
    if not probabilities:
        raise ValueError("need at least one probability")
    var = sum(p * (1.0 - p) for p in probabilities)
    return math.sqrt(max(var, 0.0)) / len(probabilities)


def within_sigma(observed: float, expected: float, sigma: float, z: float = 4.0) -> bool:
    """True when `observed` lies within z standard deviations of `expected`.

    A zero sigma (degenerate rate of exactly 0 or 1) demands exact agreement.
    """
    return abs(observed - expected) <= z * sigma + 1e-15


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    phat, z = successes / trials, _WILSON_Z
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2 * trials)
    spread = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials))
    return (centre - spread) / denom, (centre + spread) / denom
