"""Classical hit-or-miss baseline on the unit square.

Integrates the indicator of the region ``y < a_true`` from the hit count of
uniform points; one oracle query corresponds to one sample point, which puts
the method on the same cost axis as the amplitude estimators.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import check_shots

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
        check_shots(self.samples, "samples")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be positive, got {self.repetitions}")


def run_mci(
    config: MciConfig, *, rng: np.random.Generator | Iterable[np.random.Generator]
) -> np.ndarray:
    """Hit-or-miss estimates of ``a_true``, one per repetition.

    Of ``config.samples`` uniform points on [0, 1]^2, the number with
    ``y < a_true`` is exactly Binomial(samples, a_true), so each estimate is
    one draw divided by ``samples``.  ``rng`` is one ``Generator``, which
    draws every repetition's count from its one stream, or an iterable of
    ``config.repetitions`` generators, one per repetition, each drawing its
    repetition's count as ``run_mci(MciConfig(a_true, samples, 1), rng=g)``
    would; a shorter iterable raises ``ValueError``.  Cost per estimate is
    ``config.samples`` oracle queries.
    """
    n, p = config.samples, config.a_true
    if isinstance(rng, np.random.Generator):
        hits = rng.binomial(n, p, size=config.repetitions)
    else:
        hits = np.fromiter(
            (g.binomial(n, p) for g in rng), np.int64, count=config.repetitions
        )
    return hits / n
