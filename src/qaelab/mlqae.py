"""Maximum-likelihood amplitude estimation over a ladder of amplified circuits.

One circuit is run per entry of a power schedule; the flag hit counts from
all circuits are combined into a joint Bernoulli log-likelihood in the
rotation angle, which is maximized by a bounded coarse grid scan followed
by golden-section refinement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import AnalyticBackend, Backend, OracleSpec, check_shots, measure_flag

__all__ = [
    "Schedule",
    "eis_schedule",
    "lis_schedule",
    "make_schedule",
    "oracle_call_count",
    "MeasurementRecord",
    "log_likelihood",
    "maximize_likelihood",
    "MlqaeReport",
    "run_mlqae",
]

GRID_POINTS = 100_000
#: probabilities are clamped at this floor inside logarithms so that hit
#: counts of 0 or N stay finite at the boundary angles
LIKELIHOOD_FLOOR = 1e-300
_REFINE_TOL = 1e-10
#: grid angles per block of the bounded scan; the last block holds the
#: 100,000 - 390 * 256 = 160 left over
_BLOCK_POINTS = 256
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Schedule:
    """Which powers of the amplification iterate to run.

    ``kind`` is ``"eis"`` (exponentially spaced) or ``"lis"`` (linearly
    spaced); ``depth`` is the number of amplified circuits beyond the
    zero-power one.
    """

    kind: str
    depth: int
    powers: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("eis", "lis"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.depth < 0:
            raise ValueError(f"depth must be non-negative, got {self.depth}")
        if not self.powers or self.powers[0] != 0:
            raise ValueError("a schedule must start at power 0")
        for prev, cur in zip(self.powers, self.powers[1:]):
            if cur <= prev:
                raise ValueError(f"powers must increase strictly, got {self.powers}")


def eis_schedule(depth: int) -> Schedule:
    """Exponential ladder ``(0, 1, 2, 4, ..., 2**(depth-1))``."""
    return Schedule("eis", depth, (0,) + tuple(2**j for j in range(depth)))


def lis_schedule(depth: int) -> Schedule:
    """Linear ladder ``(0, 1, 2, ..., depth)``."""
    return Schedule("lis", depth, tuple(range(depth + 1)))


def make_schedule(kind: str, depth: int) -> Schedule:
    """The ``"eis"`` or ``"lis"`` ladder with ``depth`` amplified circuits."""
    if kind == "eis":
        return eis_schedule(depth)
    if kind == "lis":
        return lis_schedule(depth)
    raise ValueError(f"unknown schedule kind {kind!r}")


def oracle_call_count(schedule: Schedule, shots: int) -> int:
    """Total oracle queries: a power-m circuit costs ``2m + 1`` per shot."""
    return shots * sum(2 * m + 1 for m in schedule.powers)


@dataclass(frozen=True)
class MeasurementRecord:
    """Flag-1 hit count observed for one circuit of the schedule."""

    power: int
    shots: int
    hits: int

    def __post_init__(self) -> None:
        if self.power < 0:
            raise ValueError(f"power must be non-negative, got {self.power}")
        check_shots(self.shots)
        if not 0 <= self.hits <= self.shots:
            raise ValueError(f"hits={self.hits} outside [0, {self.shots}]")


def log_likelihood(records, theta: float) -> float:
    """Joint log-likelihood of the records at the rotation angle ``theta``.

    Each record with power ``m`` contributes

        hits * log(sin^2((2m+1) theta)) + (shots - hits) * log(cos^2((2m+1) theta))

    with both squared terms clamped below at ``LIKELIHOOD_FLOOR``.  It takes
    one angle; the coarse grid scan uses :func:`_weighted_sum`.  The
    value is bit for bit that of ``verify.reference_log_likelihood``, which
    tests compare it with; that needs ``** 2`` on a float and ``np.log``,
    since ``s * s`` and ``math.log`` round differently.
    """
    t = float(theta)
    value = 0.0
    for rec in records:
        c = 2 * rec.power + 1
        s2 = math.sin(c * t) ** 2
        c2 = math.cos(c * t) ** 2
        value = value + rec.hits * np.log(max(s2, LIKELIHOOD_FLOOR))
        value = value + (rec.shots - rec.hits) * np.log(max(c2, LIKELIHOOD_FLOOR))
    return float(value)


@functools.cache
def _grid() -> np.ndarray:
    """The coarse stage's ``GRID_POINTS`` uniform angles over [0, pi/2]."""
    grid = np.linspace(0.0, math.pi / 2, GRID_POINTS)
    grid.setflags(write=False)
    return grid


@functools.cache
def _log_tables(power: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only floored log sin^2 and log cos^2 of ``(2 power + 1) theta``
    on the grid, elementwise the same as ``verify.reference_log_likelihood``
    computes, then the maxima of each over every block of ``_BLOCK_POINTS``
    grid angles.

    Cached for the life of the process: 1.6 MB per distinct power used.
    """
    angles = (2 * power + 1) * _grid()
    log_cos2 = np.cos(angles)
    log_sin2 = np.sin(angles, out=angles)
    for table in (log_sin2, log_cos2):
        np.square(table, out=table)  # what ``array ** 2`` computes
        np.maximum(table, LIKELIHOOD_FLOOR, out=table)
        np.log(table, out=table)
    starts = np.arange(0, GRID_POINTS, _BLOCK_POINTS)
    tables = (log_sin2, log_cos2) + tuple(
        np.maximum.reduceat(table, starts) for table in (log_sin2, log_cos2)
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _weighted_sum(records, parts) -> np.ndarray:
    """``hits * sin_part + (shots - hits) * cos_part`` summed over the records
    and their ``(sin_part, cos_part)`` arrays in ``parts``, term by term in the
    order of ``verify.reference_log_likelihood``.  On a slice of the grid
    tables the values are bit for bit those of
    ``reference_log_likelihood(records, _grid())`` on that slice."""
    total = np.zeros(len(parts[0][0]))
    term = np.empty_like(total)
    for rec, (sin_part, cos_part) in zip(records, parts):
        total += np.multiply(rec.hits, sin_part, out=term)
        total += np.multiply(rec.shots - rec.hits, cos_part, out=term)
    return total


def _grid_argmax(records) -> int:
    """First grid index of the largest joint log-likelihood, the same as
    ``np.argmax`` over the whole grid, scoring only the blocks that can hold it.

    A block's bound is the weighted sum of its table maxima, added in the
    order of the exact sum.  Weights are non-negative, and round-to-nearest
    products and sums are monotone, so the float bound is at least the float
    value at each angle of the block.  The block with the highest bound is
    scored first; then the run of blocks from the first to the last whose
    bound reaches its best value is scored in one slice.  A point outside
    that run, or in a block of it whose bound falls short, scores below the
    maximum, so ties still go to the smallest angle.
    """
    tables = [_log_tables(rec.power) for rec in records]

    def score(start: int, stop: int) -> np.ndarray:
        return _weighted_sum(records, [(s[start:stop], c[start:stop]) for s, c, _, _ in tables])

    bounds = _weighted_sum(records, [(max_s, max_c) for _, _, max_s, max_c in tables])
    top = int(np.argmax(bounds)) * _BLOCK_POINTS
    reachable = np.max(score(top, top + _BLOCK_POINTS))
    candidates = np.flatnonzero(bounds >= reachable)
    start = int(candidates[0]) * _BLOCK_POINTS
    return start + int(np.argmax(score(start, (int(candidates[-1]) + 1) * _BLOCK_POINTS)))


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer on [lo, hi] for a unimodal f."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def maximize_likelihood(records) -> float:
    """Angle in [0, pi/2] maximizing the joint log-likelihood.

    Stage one finds the best of a uniform grid of ``GRID_POINTS`` angles by
    a bounded scan: an upper bound per block of ``_BLOCK_POINTS`` angles
    rules out most blocks, and only the rest are scored exactly.  Stage two
    refines between the grid neighbours of the best point by golden section
    down to 1e-10.  Ties go to the smaller angle, and the result never
    scores below the best grid point.

    The grid's log sin^2 and log cos^2 tables and their block maxima are
    built once per power and cached: 1.6 MB plus about 6 KB per distinct
    power at 100,000 points, for up to 32 powers (about 51 MB).
    """
    if not records:
        raise ValueError("need at least one measurement record")
    grid = _grid()
    best = _grid_argmax(records)  # first occurrence: smallest angle wins ties
    lo = float(grid[best - 1]) if best > 0 else float(grid[0])
    hi = float(grid[best + 1]) if best + 1 < GRID_POINTS else float(grid[-1])
    theta = _golden_max(lambda t: log_likelihood(records, t), lo, hi, _REFINE_TOL)
    coarse_theta = float(grid[best])
    coarse_value = log_likelihood(records, coarse_theta)
    refined_value = log_likelihood(records, theta)
    if refined_value < coarse_value or (refined_value == coarse_value and coarse_theta < theta):
        theta = coarse_theta
    return float(theta)


@dataclass(frozen=True)
class MlqaeReport:
    """Outcome of one maximum-likelihood estimation run."""

    theta_hat: float
    a_hat: float
    oracle_calls: int
    records: tuple[MeasurementRecord, ...]
    log_likelihood_at_max: float


def run_mlqae(
    oracle: OracleSpec,
    depth: int,
    shots: int,
    *,
    kind: str = "eis",
    backend: Backend | None = None,
    rng: np.random.Generator,
) -> MlqaeReport:
    """Run the schedule, collect hit counts, and maximize the joint likelihood.

    Args:
        oracle: the membership oracle fixing the true amplitude.
        depth: number of amplified circuits beyond the zero-power circuit.
        shots: measurement repetitions per circuit.
        kind: ``"eis"`` or ``"lis"`` power spacing.
        backend: probability source; defaults to the analytic closed form.
        rng: seeded generator used for every draw, in schedule order.
    """
    schedule = make_schedule(kind, depth)
    if backend is None:
        backend = AnalyticBackend()
    records = tuple(
        MeasurementRecord(power, shots, measure_flag(backend, oracle, power, shots, rng))
        for power in schedule.powers
    )
    theta_hat = maximize_likelihood(records)
    return MlqaeReport(
        theta_hat=theta_hat,
        a_hat=math.sin(theta_hat) ** 2,
        oracle_calls=oracle_call_count(schedule, shots),
        records=records,
        log_likelihood_at_max=log_likelihood(records, theta_hat),
    )
