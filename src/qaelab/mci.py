"""Classical hit-or-miss baseline on the unit square.

Integrates the indicator of the region ``y < a_true`` by throwing uniform
points; one oracle query corresponds to one sample point, which puts the
method on the same cost axis as the amplitude estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MciConfig", "run_mci"]


@dataclass(frozen=True)
class MciConfig:
    """Parameters of one hit-or-miss experiment."""

    a_true: float
    samples: int
    repetitions: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.a_true <= 1.0:
            raise ValueError(f"a_true={self.a_true} outside [0, 1]")
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be positive, got {self.repetitions}")


def run_mci(config: MciConfig, *, rng: np.random.Generator) -> np.ndarray:
    """Hit-or-miss estimates of ``a_true``, one per repetition.

    Each repetition throws ``config.samples`` points (x, y) uniformly on
    [0, 1]^2 and reports the fraction with ``y < a_true`` (strict, so the
    boundaries a_true = 0 and 1 come out exact).  Cost per estimate is
    ``config.samples`` oracle queries.  Every draw comes from ``rng``.
    """
    estimates = np.empty(config.repetitions, dtype=float)
    for r in range(config.repetitions):
        points = rng.random((config.samples, 2))
        hits = int(np.count_nonzero(points[:, 1] < config.a_true))
        estimates[r] = hits / config.samples
    return estimates
