"""Beta-posterior exploration over predicted clip probabilities.

Instead of ranking offers by their point probabilities, each probability p
is replaced by a draw from Beta(kappa * p, kappa * (1 - p)). The draw has
mean p and variance p(1-p)/(kappa+1), so kappa directly controls how noisy
the ranking is: small kappa explores, large kappa converges to the greedy
ranking. kappa can grow over rounds to anneal exploration away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError

KAPPA_SCHEDULES = ("constant", "linear_growth")


@dataclass
class ExplorationConfig:
    """Concentration schedule for Beta sampling.

    probability_clamp keeps the Beta parameters strictly positive by
    bounding p away from 0 and 1 before the draw.
    """

    kappa_initial: float = 5.0
    kappa_schedule: str = "constant"
    kappa_growth_rate: float = 0.0
    probability_clamp: float = 1e-4

    def __post_init__(self) -> None:
        if self.kappa_initial <= 0:
            raise ConfigError(f"kappa_initial must be positive, got {self.kappa_initial}")
        if self.kappa_schedule not in KAPPA_SCHEDULES:
            raise ConfigError(f"kappa_schedule must be one of {KAPPA_SCHEDULES}, got {self.kappa_schedule!r}")
        if self.kappa_growth_rate < 0:
            raise ConfigError(f"kappa_growth_rate must be >= 0, got {self.kappa_growth_rate}")
        if not (0.0 < self.probability_clamp < 0.5):
            raise ConfigError(f"probability_clamp must be in (0, 0.5), got {self.probability_clamp}")


def kappa_at(t: int, cfg: ExplorationConfig) -> float:
    """Concentration at round t (t >= 0, schedule origin at t=0)."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if cfg.kappa_schedule == "constant":
        return cfg.kappa_initial
    return cfg.kappa_initial * (1.0 + cfg.kappa_growth_rate * t)


def sample_score(p: float, kappa: float, rng: np.random.Generator, clamp: float = 1e-4) -> float:
    """One draw from Beta(kappa*p, kappa*(1-p)) for probability p."""
    if kappa <= 0:
        raise ConfigError(f"kappa must be positive, got {kappa}")
    p = min(max(p, clamp), 1.0 - clamp)
    return float(rng.beta(kappa * p, kappa * (1.0 - p)))


def sample_beta(p: Sequence[float], kappa: float, rng: np.random.Generator, clamp: float = 1e-4) -> list[float]:
    """sample_score of every entry of p, in order.

    Each entry is one scalar rng.beta call. numpy's array call
    rng.beta(kappa * p, kappa * (1 - p)) draws its entries in the same
    order from the same stream, so both give the same draws and leave the
    generator in the same state; for a handful of offers the scalar calls
    skip most of the array call's parameter checks.
    """
    if kappa <= 0:
        raise ConfigError(f"kappa must be positive, got {kappa}")
    beta, high = rng.beta, 1.0 - clamp
    draws = []
    for x in p:
        x = min(max(x, clamp), high)
        draws.append(beta(kappa * x, kappa * (1.0 - x)))
    return draws


def sample_scores(
    probs: Mapping[str, float], kappa: float, rng: np.random.Generator, clamp: float = 1e-4
) -> dict[str, float]:
    """Sampled score per offer.

    Draws are consumed in sorted offer_id order, which fixes the RNG
    stream and makes rankings reproducible for a given seed.
    """
    return {oid: sample_score(probs[oid], kappa, rng, clamp) for oid in sorted(probs)}

