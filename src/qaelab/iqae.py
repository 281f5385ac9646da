"""Iterative amplitude estimation with exact binomial confidence intervals.

The estimator maintains a confidence interval for the rotation angle in
[0, pi/2].  Each round picks the largest amplification power whose scaled
interval still sits inside a single cosine half-plane, measures at that
power, converts an exact (Clopper-Pearson) interval for the flag probability
back to angles, and intersects.  Rounds at an unchanged power pool their
shots.  The loop stops once the induced amplitude interval is narrower than
twice the target precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import AnalyticBackend, Backend, OracleSpec, check_shots, measure_flag

__all__ = [
    "ConfidenceInterval",
    "check_alpha",
    "find_next_k",
    "binomial_confidence",
    "ConfidenceBoundError",
    "invert_to_theta",
    "RoundRecord",
    "IqaeReport",
    "IterationCapError",
    "max_rounds",
    "run_iqae",
]

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
#: the round cap is this multiple of the nominal round budget
CAP_MULTIPLIER = 10
#: ``scipy.special.betaincinv``, bound on the first :func:`binomial_confidence`
#: call, so that a command computing no interval skips scipy's 0.4 s import
betaincinv = None
#: intervals :func:`binomial_confidence` keeps; a pass over tables 5-8 asks
#: for 1038 distinct ones
_INTERVAL_MEMO_SIZE = 4096


@dataclass(frozen=True)
class ConfidenceInterval:
    """Closed angle interval inside [0, pi/2]."""

    theta_lo: float
    theta_hi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta_lo <= self.theta_hi <= _HALF_PI:
            raise ValueError(
                f"bad interval [{self.theta_lo}, {self.theta_hi}]: "
                "need 0 <= lo <= hi <= pi/2"
            )

    @property
    def width(self) -> float:
        return self.theta_hi - self.theta_lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.theta_lo + self.theta_hi)

    def intersect(self, other: "ConfidenceInterval") -> "ConfidenceInterval":
        """Intersection with ``other``, collapsed onto the nearest edge of
        ``self`` when the two are disjoint (the result is never empty and
        never leaves ``self``).

        The ends are ``lo = min(max(other.lo, self.lo), self.hi)`` and
        ``hi = max(min(other.hi, self.hi), self.lo)``, each picked by the
        comparisons those builtins make, ties included, so every end is the
        very float they return.  When that pair is ``other`` (nested in
        ``self``, ends may touch) or ``self`` (strictly inside ``other``),
        the operand itself is returned: both are frozen and equal by value.
        Only a partial overlap or a collapse builds a new interval.
        """
        lo, hi = self.theta_lo, self.theta_hi
        other_lo, other_hi = other.theta_lo, other.theta_hi
        if lo <= other_lo:
            if other_hi <= hi:
                return other
            if other_lo <= hi:
                return ConfidenceInterval(other_lo, hi)
            return ConfidenceInterval(hi, hi)  # disjoint above
        if hi < other_hi:
            return self
        if lo <= other_hi:
            return ConfidenceInterval(lo, other_hi)
        return ConfidenceInterval(lo, lo)  # disjoint below


def _half_turns(theta: float, k: int) -> int:
    """Index of the half-turn [h*pi, (h+1)*pi) holding the scaled angle
    (4k+2)*theta.  Even h is an upper cosine half-plane, odd h a lower one,
    and h // 2 counts the full turns.  The one place that decides this."""
    return math.floor((4 * k + 2) * theta / math.pi)


def check_alpha(alpha: float) -> None:
    """Reject a confidence budget outside (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def find_next_k(interval: ConfidenceInterval, k_current: int) -> tuple[int, int]:
    """Largest admissible amplification power for the next round.

    A power ``k`` is admissible when the scaled interval
    ``[(4k+2) theta_lo, (4k+2) theta_hi]`` fits inside the half-turn that
    holds its lower end.  The largest admissible power is returned only if
    it reaches ``2 * k_current``; otherwise the current power is kept,
    with its half-turn taken from the interval midpoint (valid because
    intervals only ever shrink).  The gate is on ``k``: Grinko et al.'s
    Alg. 2 gates ``K = 4k+2`` at ``2 * K_current``, which rejects an exact
    doubling of ``k`` (ROADMAP item 5).

    Returns:
        ``(k, h)``, the scaled interval lying in the half-turn ``[h*pi, (h+1)*pi]``.
    """
    if k_current < 0:
        raise ValueError(f"current power must be non-negative, got {k_current}")
    lo, hi = interval.theta_lo, interval.theta_hi
    width = hi - lo
    if width > 0.0:
        # largest k with (4k+2) * width <= pi
        k_cap = int((math.pi / width - 2.0) / 4.0)
        for k in range(k_cap, 2 * k_current - 1, -1):
            h = _half_turns(lo, k)
            if (4 * k + 2) * hi <= (h + 1) * math.pi:
                return k, h
    return k_current, _half_turns(0.5 * (lo + hi), k_current)


class ConfidenceBoundError(ValueError):
    """The Clopper-Pearson inverse gave up: alpha is too small for these counts."""


@lru_cache(maxsize=_INTERVAL_MEMO_SIZE)
def binomial_confidence(hits: int, shots: int, alpha: float) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval (Clopper-Pearson).

    Bounds come from Beta quantiles, computed by the inverse of the
    regularized incomplete beta function I_x(a, b)
    (``scipy.special.betaincinv(a, b, q)``): the lower bound is the
    alpha/2 quantile of Beta(hits, shots - hits + 1) (0 when hits == 0),
    the upper the 1 - alpha/2 quantile of Beta(hits + 1, shots - hits)
    (1 when hits == shots).  Always contains hits/shots.

    Memoized on ``(hits, shots, alpha)``, least recently used first out past
    ``_INTERVAL_MEMO_SIZE`` entries: IQAE's first round is always k = 0 at
    the cell's shot count, so in a fresh pass over one of tables 5-8 about
    two calls in three repeat an earlier key.  A call that raises stores
    nothing.  ``binomial_confidence.cache_clear()`` empties the memo.

    Raises:
        ValueError: on bad arguments.
        ConfidenceBoundError: when the inverse does not converge (only at an
            alpha far below any round budget).
    """
    check_shots(shots)
    if not 0 <= hits <= shots:
        raise ValueError(f"hits={hits} outside [0, {shots}]")
    check_alpha(alpha)
    global betaincinv
    if betaincinv is None:
        import scipy.special
        betaincinv = scipy.special.betaincinv
    if hits == 0:
        p_lo = 0.0
    else:
        p_lo = float(betaincinv(hits, shots - hits + 1, alpha / 2.0))
        if math.isnan(p_lo):  # root finding gave up: seen only at alpha < 1e-100
            raise ConfidenceBoundError(
                f"no lower bound for hits={hits}, shots={shots} at alpha={alpha}"
            )
    if hits == shots:
        p_hi = 1.0
    else:
        p_hi = float(betaincinv(hits + 1, shots - hits, 1.0 - alpha / 2.0))
    return p_lo, p_hi


def invert_to_theta(
    p_lo: float, p_hi: float, k: int, half_turn: int
) -> ConfidenceInterval:
    """Map a flag-probability interval back to angles at amplification power ``k``.

    With ``phi = (4k+2) theta`` the probability is ``p = (1 - cos(phi)) / 2``.
    ``half_turn`` is h = floor(phi / pi), from :func:`find_next_k`: even h is
    the upper cosine branch, and h // 2 restores the lost multiple of 2*pi
    before dividing the scaling out.  Results above pi/2 are capped there.

    Only that cap is needed.  For ``0 <= p <= 1``, ``2p`` is exact and
    ``1 - 2p`` rounds into [-1, 1], whose ends are floats, so ``acos`` needs
    no clamp.  The arcs are >= 0, ``2*pi - arc`` is >= pi, and with
    ``k >= 0`` and ``h >= 0`` the angles are >= 0, so no floor is needed.
    Both angles grow with their arc, so ``theta_lo <= theta_hi``; the cap
    does bind when the winding h overshoots, e.g. ``invert_to_theta(0.4,
    0.6, 0, 2)`` is [pi/2, pi/2].
    """
    if not 0.0 <= p_lo <= p_hi <= 1.0:
        raise ValueError(f"bad probability interval [{p_lo}, {p_hi}]")
    if k < 0:
        raise ValueError(f"power must be non-negative, got {k}")
    if half_turn < 0:
        raise ValueError(f"half_turn must be non-negative, got {half_turn}")
    scale = 4 * k + 2
    lo_arc = math.acos(1.0 - 2.0 * p_lo)
    hi_arc = math.acos(1.0 - 2.0 * p_hi)
    if half_turn % 2 == 0:
        scaled_lo, scaled_hi = lo_arc, hi_arc
    else:
        scaled_lo, scaled_hi = _TWO_PI - hi_arc, _TWO_PI - lo_arc
    base = _TWO_PI * (half_turn // 2)
    theta_lo = (base + scaled_lo) / scale
    theta_hi = (base + scaled_hi) / scale
    if theta_hi > _HALF_PI:
        theta_hi = _HALF_PI
        if theta_lo > _HALF_PI:
            theta_lo = _HALF_PI
    return ConfidenceInterval(theta_lo, theta_hi)


#: every run starts from the whole range; frozen, so all runs share it
_FULL_RANGE = ConfidenceInterval(0.0, _HALF_PI)


class RoundRecord(NamedTuple):
    """State after one measurement round.

    A NamedTuple because one is built per round, and it builds in well
    under half the time of a frozen dataclass.  It unpacks, and it equals
    a plain tuple of the same values.
    """

    k: int
    half_turn: int  # index h of the half-turn [h*pi, (h+1)*pi] holding (4k+2)*theta
    shots: int  # pooled shots at this power, including this round
    hits: int  # pooled hits at this power
    interval_after: ConfidenceInterval


@dataclass(frozen=True)
class IqaeReport:
    """Outcome of one iterative estimation run.

    ``collapse_round`` is the 1-based round whose contribution was disjoint
    from the running interval, or None.  ``intersect`` collapses such an
    interval onto an edge, width 0, so the run stops there: the one sign
    inside a run that its 1 - alpha guarantee has failed.
    """

    a_hat: float
    a_lo: float
    a_hi: float
    oracle_calls: int
    rounds: tuple[RoundRecord, ...]
    epsilon: float
    alpha: float
    collapse_round: int | None = None


class IterationCapError(RuntimeError):
    """Round cap reached before the target width; the partial report is attached."""

    def __init__(self, report: IqaeReport):
        self.report = report
        super().__init__(
            f"interval still {report.a_hi - report.a_lo:.3g} wide after "
            f"{len(report.rounds)} rounds (target 2*epsilon = {2 * report.epsilon:.3g})"
        )


def max_rounds(epsilon: float) -> int:
    """Nominal round budget ``ceil(log2(pi / (8 epsilon))) + 1``."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
    return math.ceil(math.log2(math.pi / (8.0 * epsilon))) + 1


def _max_power(epsilon: float) -> int:
    """Bound on the powers a run at ``epsilon`` reaches: about pi / (8 epsilon).

    :func:`find_next_k` caps ``k`` at ``(pi / w - 2) / 4`` for an angle
    width ``w``, and while a run goes on ``w`` exceeds its amplitude width,
    which exceeds ``2 epsilon`` (``sin^2 hi - sin^2 lo <= hi - lo``).
    """
    return int(math.pi / (8.0 * epsilon) - 0.5)


def _report(
    interval: ConfidenceInterval,
    calls: int,
    rounds: list[RoundRecord],
    epsilon: float,
    alpha: float,
    collapse_round: int | None,
) -> IqaeReport:
    return IqaeReport(
        a_hat=math.sin(interval.midpoint) ** 2,
        a_lo=math.sin(interval.theta_lo) ** 2,
        a_hi=math.sin(interval.theta_hi) ** 2,
        oracle_calls=calls,
        rounds=tuple(rounds),
        epsilon=epsilon,
        alpha=alpha,
        collapse_round=collapse_round,
    )


def run_iqae(
    oracle: OracleSpec,
    epsilon: float,
    alpha: float,
    shots: int,
    *,
    backend: Backend | None = None,
    rng: np.random.Generator,
) -> IqaeReport:
    """Iteratively narrow a confidence interval for the amplitude.

    Args:
        oracle: the membership oracle fixing the true amplitude.
        epsilon: target half-width for the final amplitude interval.
        alpha: overall confidence budget; each round spends
            ``alpha / max_rounds(epsilon)`` (union bound).
        shots: measurement repetitions per round (pooled while the power
            stays unchanged).
        backend: probability source; defaults to the analytic closed form.
        rng: seeded generator used for every draw, in round order.

    Raises:
        IterationCapError: after ``10 * max_rounds(epsilon)`` rounds without
            reaching the target width.
    """
    check_alpha(alpha)
    budget = max_rounds(epsilon)
    alpha_round = alpha / budget
    cap = CAP_MULTIPLIER * budget
    interval = _FULL_RANGE
    k = 0
    pooled_shots = 0
    pooled_hits = 0
    calls = 0
    rounds: list[RoundRecord] = []
    collapse_round = None
    if backend is None:
        backend = AnalyticBackend()
    while True:
        theta_lo, theta_hi = interval.theta_lo, interval.theta_hi
        a_lo = math.sin(theta_lo) ** 2
        a_hi = math.sin(theta_hi) ** 2
        if a_hi - a_lo <= 2.0 * epsilon:
            break
        if len(rounds) >= cap:
            raise IterationCapError(
                _report(interval, calls, rounds, epsilon, alpha, collapse_round)
            )
        k_next, half_turn = find_next_k(interval, k)
        if k_next != k:
            pooled_shots = 0
            pooled_hits = 0
            k = k_next
        hits = measure_flag(backend, oracle, k, shots, rng)
        calls += shots * (2 * k + 1)
        pooled_shots += shots
        pooled_hits += hits
        p_lo, p_hi = binomial_confidence(pooled_hits, pooled_shots, alpha_round)
        contribution = invert_to_theta(p_lo, p_hi, k, half_turn)
        if contribution.theta_hi < theta_lo or contribution.theta_lo > theta_hi:
            collapse_round = len(rounds) + 1  # the width-0 interval ends the run
        interval = interval.intersect(contribution)
        rounds.append(RoundRecord(k, half_turn, pooled_shots, pooled_hits, interval))
    return _report(interval, calls, rounds, epsilon, alpha, collapse_round)
