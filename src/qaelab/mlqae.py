"""Maximum-likelihood amplitude estimation over a ladder of amplified circuits.

One circuit is run per entry of a power schedule; the flag hit counts from
all circuits are combined into a joint Bernoulli log-likelihood in the
rotation angle, which is maximized by a bounded coarse grid scan followed
by golden-section refinement.  The refinement runs every repetition of a
sweep cell in lockstep, with one vectorized likelihood evaluation per step.
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
    "maximize_likelihoods",
    "MlqaeReport",
    "run_mlqae",
    "run_mlqae_cell",
]

GRID_POINTS = 100_000
#: probabilities are clamped at this floor inside logarithms so that hit
#: counts of 0 or N stay finite at the boundary angles
LIKELIHOOD_FLOOR = 1e-300
_REFINE_TOL = 1e-10
#: grid angles per block and per sub-block of the bounded scan; the last of
#: the 391 blocks holds the 100,000 - 390 * 256 = 160 left over, then padding
_BLOCK_POINTS = 256
_SUB_POINTS = 32
_BLOCKS = -(-GRID_POINTS // _BLOCK_POINTS)
_PADDED = _BLOCKS * _BLOCK_POINTS
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


def _likelihood_columns(record_sets) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The record sets' ``powers`` and the kernel's ``(multipliers, weights)``.

    Every record set must have the same powers.  Row j of the (R, 1)
    multipliers holds ``2m + 1`` of record j's power.  Rows 2j and 2j + 1 of
    weights hold each set's record j hits and misses, one column per set,
    so a column reads hits_0, misses_0, hits_1, and so on.
    """
    powers = tuple(rec.power for rec in record_sets[0])
    if any(tuple(rec.power for rec in records) != powers for records in record_sets):
        raise ValueError("record sets of one batch must have the same powers")
    multipliers = np.array([[2 * power + 1] for power in powers], dtype=float)
    weights = np.array(
        [row for recs in zip(*record_sets)
         for row in ([rec.hits for rec in recs], [rec.shots - rec.hits for rec in recs])],
        dtype=float,
    )
    return powers, multipliers, weights


def _log_terms(angles: np.ndarray, out: np.ndarray) -> None:
    """Floored log sin^2 and log cos^2 of ``angles`` (R, k) into rows 2j and
    2j + 1 of ``out`` (2R, k), the one formula of the grid tables and the
    kernel.  numpy's float64 sin, cos and log round as ``math.sin``,
    ``math.cos`` and ``np.log`` of one float do; ``np.float_power(x, 2)`` is
    libm's ``pow`` like Python's ``x ** 2``, where ``x * x`` differs in the
    last bit now and then.
    """
    # positional outputs: the per-call overhead is most of the cost at a
    # batch of one
    np.sin(angles, out[0::2])
    np.cos(angles, out[1::2])
    np.float_power(out, 2, out)
    np.maximum(out, LIKELIHOOD_FLOOR, out=out)
    np.log(out, out)


def _log_likelihoods(multipliers: np.ndarray, weights: np.ndarray, thetas) -> np.ndarray:
    """Joint log-likelihood of column b's records at the angle ``thetas[b]``.

    The columns are :func:`_likelihood_columns`'.  Each value is bit for bit
    that of the per-record loop ``verify.reference_scalar_log_likelihood``:
    :func:`_log_terms` rounds as the loop does, and ``np.add.accumulate``
    adds down each column in the loop's order.
    """
    terms = np.empty((2 * len(multipliers), len(thetas)))
    _log_terms(multipliers * np.array(thetas), terms)
    terms *= weights
    return np.add.accumulate(terms)[-1]


def log_likelihood(records, theta: float) -> float:
    """Joint log-likelihood of the records at the rotation angle ``theta``.

    Each record with power ``m`` contributes

        hits * log(sin^2((2m+1) theta)) + (shots - hits) * log(cos^2((2m+1) theta))

    with both squared terms clamped below at ``LIKELIHOOD_FLOOR``.  It is
    the likelihood kernel on a batch of one; the coarse grid scan sums
    cached tables of the same terms instead (see :func:`_bounded_scan`).
    """
    if not records:
        return 0.0
    _, multipliers, weights = _likelihood_columns([records])
    return float(_log_likelihoods(multipliers, weights, [theta])[0])


@functools.cache
def _grid() -> np.ndarray:
    """The coarse stage's ``GRID_POINTS`` uniform angles over [0, pi/2]."""
    grid = np.linspace(0.0, math.pi / 2, GRID_POINTS)
    grid.setflags(write=False)
    return grid


@functools.cache
def _log_tables(power: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only rows floored log sin^2 and log cos^2 of ``(2 power + 1) theta``
    on the grid, by :func:`_log_terms` as the kernel computes them, and
    padded with the floor's log to ``_BLOCKS`` whole blocks.

    Returned as ``(table, sub_maxima, block_maxima)``: the (2, ``_PADDED``)
    table, its maxima over each sub-block, (2, ``_PADDED // _SUB_POINTS``),
    and over each block, (2, ``_BLOCKS``).  A pad point scores no higher than
    any grid angle and comes after all of them.  Cached for the life of the
    process: 1.6 MB plus 56 KB per distinct power.
    """
    table = np.full((2, _PADDED), np.log(LIKELIHOOD_FLOOR))
    _log_terms((2 * power + 1) * _grid()[None, :], table[:, :GRID_POINTS])
    sub_maxima = table.reshape(2, -1, _SUB_POINTS).max(axis=2)
    block_maxima = sub_maxima.reshape(2, _BLOCKS, -1).max(axis=2)
    for part in (table, sub_maxima, block_maxima):
        part.flags.writeable = False
    return table, sub_maxima, block_maxima


def _scores(weights: np.ndarray, rows, width: int, sets, nodes) -> np.ndarray:
    """Weighted sums over K nodes, as (K, ``width``): node k is the
    ``nodes[k]``-th run of ``width`` values of each row of ``rows`` (one
    (2, n) array of log sin^2 and log cos^2 values per record), the rows
    weighted by column ``sets[k]`` of ``weights`` (2R, B), whose rows 2j and
    2j + 1 are record j's hits and misses.  On table values the sums are bit
    for bit ``verify.reference_log_likelihood``'s: ``np.add.reduce`` over
    the first axis adds row after row in order when a row has more than one
    element (over one column it would sum pairwise), and every width here
    is at least 8.
    """
    parts = np.empty((len(weights), len(nodes), width))
    # each take gathers straight into its rows of ``parts``: mode="clip" skips
    # the buffered copy that the default mode makes (the indices are in range)
    for j, row in enumerate(rows):
        row.reshape(2, -1, width).take(nodes, axis=1, out=parts[2 * j:2 * j + 2], mode="clip")
    parts *= weights[:, sets, None]
    return np.add.reduce(parts, axis=0)


def _bounded_scan(powers, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First grid index of the largest joint log-likelihood of each column of
    ``weights`` (2R, B), every column's records having the powers ``powers``,
    and that largest value: bit for bit :func:`log_likelihood` at the index's
    angle, since the tables hold the kernel's terms and :func:`_scores` adds
    them in the kernel's order.

    A block's or sub-block's bound is the weighted sum of its table maxima,
    added in the order of the exact sum.  Weights are non-negative, and
    round-to-nearest products and sums are monotone, so the float bound is
    at least the float value at each of its angles.  Each column's top block
    is scored to get a value its maximum reaches; sub-block bounds are taken
    only in the blocks whose bound reaches it, and only the sub-blocks whose
    bound reaches it are scored.  Any angle left out scores below that value,
    so ties still go to the smallest angle.
    """
    tables, sub_maxima, block_maxima = zip(*(_log_tables(power) for power in powers))
    order = np.arange(weights.shape[1])
    bounds = _scores(weights, block_maxima, _BLOCKS, order, np.zeros_like(order))
    reach = _scores(weights, tables, _BLOCK_POINTS, order, bounds.argmax(axis=1)).max(axis=1)

    sets, kept = (bounds >= reach[:, None]).nonzero()
    bounds = _scores(weights, sub_maxima, _BLOCK_POINTS // _SUB_POINTS, sets, kept)
    pairs, subs = (bounds >= reach[sets, None]).nonzero()
    sets = sets[pairs]
    kept = kept[pairs] * (_BLOCK_POINTS // _SUB_POINTS) + subs

    scores = _scores(weights, tables, _SUB_POINTS, sets, kept)
    # sets ascend, and so do each set's sub-blocks: the first of a set's
    # points at its maximum in this flat order is its smallest angle there
    best = np.maximum.reduceat(scores.max(axis=1), sets.searchsorted(order))
    points = (scores == best[sets, None]).ravel().nonzero()[0]
    first = points[sets[points // _SUB_POINTS].searchsorted(order)]
    return kept[first // _SUB_POINTS] * _SUB_POINTS + first % _SUB_POINTS, best


def _golden_max(lo: float, hi: float, tol: float):
    """Golden-section maximizer on [lo, hi] for a unimodal f, as a generator.

    It yields each point where it needs f and is sent f there; its return
    value is the maximizer.
    """
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1 = yield x1
    f2 = yield x2
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = yield x2
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = yield x1
    return 0.5 * (lo + hi)


def _lockstep(refines, multipliers: np.ndarray, weights: np.ndarray) -> list[float]:
    """Results of the :func:`_golden_max` generators ``refines``, column b of
    the kernel's weights belonging to ``refines[b]``.

    All generators step together: each step evaluates every one's next point
    in one kernel call.  A finished generator's column stays in the batch at
    its last point and is sent nothing more; the one multipliers column
    serves every set.
    """
    results = [None] * len(refines)
    points = [next(refine) for refine in refines]
    while None in results:
        for b, value in enumerate(_log_likelihoods(multipliers, weights, points).tolist()):
            if results[b] is None:
                try:
                    points[b] = refines[b].send(value)
                except StopIteration as done:
                    results[b] = done.value
    return results


def maximize_likelihoods(record_sets) -> list[tuple[float, float]]:
    """``(theta, value)`` for each record set of the sequence ``record_sets``:
    the angle in [0, pi/2] that maximizes its joint log-likelihood, and the
    log-likelihood there.

    Stage one finds the best of a uniform grid of ``GRID_POINTS`` angles by
    a bounded scan, all record sets together (see
    :func:`_bounded_scan`): upper bounds per block of ``_BLOCK_POINTS``
    angles, then per sub-block of ``_SUB_POINTS``, rule out most of the
    grid, and only the rest is scored exactly.  Stage two refines between
    the grid neighbours of the best point by golden section down to 1e-10,
    all record sets in lockstep (see :func:`_lockstep`).  Ties go to the
    smaller angle, and the result never scores below the best grid point.
    The record sets must have the same powers.

    The grid's log sin^2 and log cos^2 tables and their block and sub-block
    maxima are built once per power and cached for the life of the process:
    1.6 MB plus 56 KB per distinct power at 100,000 points.
    """
    if not all(record_sets):
        raise ValueError("need at least one measurement record")
    if not record_sets:
        return []
    powers, multipliers, weights = _likelihood_columns(record_sets)
    grid = _grid()
    indices, coarse_values = _bounded_scan(powers, weights)  # first occurrence wins ties
    brackets = zip(grid[np.maximum(indices - 1, 0)].tolist(),
                   grid[np.minimum(indices + 1, GRID_POINTS - 1)].tolist())
    refined = _lockstep([_golden_max(lo, hi, _REFINE_TOL) for lo, hi in brackets],
                        multipliers, weights)
    refined_values = _log_likelihoods(multipliers, weights, refined)
    coarse = grid[indices]
    use_coarse = refined_values < coarse_values
    use_coarse |= (refined_values == coarse_values) & (coarse < refined)
    return list(zip(np.where(use_coarse, coarse, refined).tolist(),
                    np.where(use_coarse, coarse_values, refined_values).tolist()))


def maximize_likelihood(records) -> float:
    """Angle in [0, pi/2] maximizing the joint log-likelihood: the angle of
    :func:`maximize_likelihoods` on a batch of one."""
    return maximize_likelihoods([records])[0][0]


@dataclass(frozen=True)
class MlqaeReport:
    """Outcome of one maximum-likelihood estimation run."""

    theta_hat: float
    a_hat: float
    oracle_calls: int
    records: tuple[MeasurementRecord, ...]
    log_likelihood_at_max: float


def run_mlqae_cell(
    oracle: OracleSpec,
    depth: int,
    shots: int,
    *,
    kind: str = "eis",
    backend: Backend | None = None,
    rngs,
) -> list[MlqaeReport]:
    """One :func:`run_mlqae` per generator in ``rngs``, maximized together.

    Every repetition's records are drawn first, repetition by repetition in
    schedule order, as one run after another would draw them; then
    :func:`maximize_likelihoods` maximizes all of them at once.
    """
    schedule = make_schedule(kind, depth)
    if backend is None:
        backend = AnalyticBackend()
    record_sets = [
        tuple(
            MeasurementRecord(power, shots, measure_flag(backend, oracle, power, shots, rng))
            for power in schedule.powers
        )
        for rng in rngs
    ]
    calls = oracle_call_count(schedule, shots)
    return [
        MlqaeReport(
            theta_hat=theta_hat,
            a_hat=math.sin(theta_hat) ** 2,
            oracle_calls=calls,
            records=records,
            log_likelihood_at_max=value,
        )
        for records, (theta_hat, value) in zip(record_sets, maximize_likelihoods(record_sets))
    ]


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
    return run_mlqae_cell(oracle, depth, shots, kind=kind, backend=backend, rngs=(rng,))[0]
