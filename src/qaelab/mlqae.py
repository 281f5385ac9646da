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


def _likelihood_columns(record_sets) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's ``(multipliers, weights)``, one column per record set.

    Row j of multipliers holds ``2m + 1`` of each set's record j.  Rows
    2j and 2j + 1 of weights hold that record's hits and misses, so a
    column reads hits_0, misses_0, hits_1, and so on.  Every record set
    must have the same length.
    """
    if len({len(records) for records in record_sets}) > 1:
        raise ValueError("record sets of one batch must have the same length")
    records_at = list(zip(*record_sets))
    multipliers = np.array([[2 * rec.power + 1 for rec in recs] for recs in records_at], dtype=float)
    weights = np.array(
        [row for recs in records_at
         for row in ([rec.hits for rec in recs], [rec.shots - rec.hits for rec in recs])],
        dtype=float,
    )
    return multipliers, weights


def _log_likelihoods(multipliers: np.ndarray, weights: np.ndarray, thetas) -> np.ndarray:
    """Joint log-likelihood of column b's records at the angle ``thetas[b]``.

    The columns are :func:`_likelihood_columns`'.  Each value is bit for bit
    that of the per-record loop ``verify.reference_scalar_log_likelihood``:
    numpy's float64 sin, cos and log round as ``math.sin``, ``math.cos``
    and ``np.log`` of one float do; ``np.float_power(x, 2)`` is libm's
    ``pow`` like Python's ``x ** 2``, where ``np.square`` computes
    ``x * x`` and differs in the last bit now and then; and
    ``np.add.accumulate`` adds down each column in the loop's order.
    """
    # positional outputs: the per-call overhead is most of the cost at a
    # batch of one
    angles = multipliers * np.array(thetas)
    terms = np.empty((2 * len(multipliers), len(thetas)))
    np.sin(angles, terms[0::2])
    np.cos(angles, terms[1::2])
    np.float_power(terms, 2, terms)
    np.maximum(terms, LIKELIHOOD_FLOOR, out=terms)
    np.log(terms, terms)
    terms *= weights
    return np.add.accumulate(terms)[-1]


def log_likelihood(records, theta: float) -> float:
    """Joint log-likelihood of the records at the rotation angle ``theta``.

    Each record with power ``m`` contributes

        hits * log(sin^2((2m+1) theta)) + (shots - hits) * log(cos^2((2m+1) theta))

    with both squared terms clamped below at ``LIKELIHOOD_FLOOR``.  It is
    the likelihood kernel on a batch of one; the coarse grid scan uses
    :func:`_grid_argmaxes` over cached tables instead.
    """
    if not records:
        return 0.0
    multipliers, weights = _likelihood_columns([records])
    return float(_log_likelihoods(multipliers, weights, [theta])[0])


@functools.cache
def _grid() -> np.ndarray:
    """The coarse stage's ``GRID_POINTS`` uniform angles over [0, pi/2]."""
    grid = np.linspace(0.0, math.pi / 2, GRID_POINTS)
    grid.setflags(write=False)
    return grid


@functools.cache
def _log_tables(power: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only rows floored log sin^2 and log cos^2 of ``(2 power + 1) theta``
    on the grid, elementwise the same as ``verify.reference_log_likelihood``
    computes and padded with the floor's log to ``_BLOCKS`` whole blocks.

    Returned as ``(blocks, subs, block_maxima, sub_maxima)``: the (2, ``_PADDED``)
    table viewed as (2, ``_BLOCKS``, ``_BLOCK_POINTS``) and as (2, sub-blocks,
    ``_SUB_POINTS``), then its maxima over each block, (2, ``_BLOCKS``), and over
    each sub-block, (2, ``_BLOCKS``, ``_BLOCK_POINTS // _SUB_POINTS``).  A pad
    point scores no higher than any grid angle and comes after all of them.
    Cached for the life of the process: 1.6 MB plus 56 KB per distinct power.
    """
    angles = (2 * power + 1) * _grid()
    table = np.full((2, _PADDED), LIKELIHOOD_FLOOR)
    np.sin(angles, out=table[0, :GRID_POINTS])
    np.cos(angles, out=table[1, :GRID_POINTS])
    np.square(table, out=table)  # what ``array ** 2`` computes
    np.maximum(table, LIKELIHOOD_FLOOR, out=table)
    np.log(table, out=table)
    subs = table.reshape(2, -1, _SUB_POINTS)
    sub_maxima = subs.max(axis=2).reshape(2, _BLOCKS, -1)
    tables = (table.reshape(2, _BLOCKS, _BLOCK_POINTS), subs, sub_maxima.max(axis=2), sub_maxima)
    for part in tables:
        part.flags.writeable = False
    return tables


def _weighted_sums(weights: np.ndarray, parts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sum over r of weights[r, b] * parts[r, b, i]`` for every b and i, as
    (B, k).  Rows 2j and 2j + 1 of ``weights`` (2R, B) are record j's hits and
    misses, and ``parts`` (broadcast to ``out``'s (2R, B, k), ``out`` may be
    ``parts``) holds the matching log sin^2 and log cos^2 values, so on table
    values the sums are bit for bit ``verify.reference_log_likelihood``'s:
    ``np.add.reduce`` over the first axis adds row after row in order when a
    row has more than one element (over one column it would sum pairwise),
    and here k is at least 8.
    """
    np.multiply(weights[:, :, None], parts, out=out)
    return np.add.reduce(out, axis=0)


def _grid_argmaxes(record_sets, weights: np.ndarray) -> list[int]:
    """First grid index of the largest joint log-likelihood of each record set,
    ``np.argmax`` over the whole grid, by one :func:`_bounded_scan` per group
    of sets with the same powers; ``weights`` are the kernel's columns."""
    schedules: dict[tuple[int, ...], list[int]] = {}
    for b, records in enumerate(record_sets):
        schedules.setdefault(tuple(rec.power for rec in records), []).append(b)
    best = np.empty(len(record_sets), dtype=np.intp)
    for powers, columns in schedules.items():
        best[columns] = _bounded_scan(powers, weights[:, columns])
    return best.tolist()


def _bounded_scan(powers, weights: np.ndarray) -> np.ndarray:
    """First grid index of the largest joint log-likelihood of each column of
    ``weights`` (2R, B), every column's records having the powers ``powers``.

    A block's or sub-block's bound is the weighted sum of its table maxima,
    added in the order of the exact sum.  Weights are non-negative, and
    round-to-nearest products and sums are monotone, so the float bound is
    at least the float value at each of its angles.  Each column's top block
    is scored to get a value its maximum reaches; sub-block bounds are taken
    only in the blocks whose bound reaches it, and only the sub-blocks whose
    bound reaches it are scored.  Any angle left out scores below that value,
    so ties still go to the smallest angle.
    """
    tables = [_log_tables(power) for power in powers]
    rows, columns = weights.shape
    bounds = np.concatenate([maxima for _, _, maxima, _ in tables])[:, None, :]
    bounds = _weighted_sums(weights, bounds, np.empty((rows, columns, _BLOCKS)))
    parts = np.empty((rows, columns, _BLOCK_POINTS))
    top = bounds.argmax(axis=1)
    # each take gathers straight into its rows of ``parts``: mode="clip" skips
    # the buffered copy that the default mode makes (the indices are in range)
    for j, (blocks, _, _, _) in enumerate(tables):
        blocks.take(top, axis=1, out=parts[2 * j:2 * j + 2], mode="clip")
    reach = _weighted_sums(weights, parts, parts).max(axis=1)

    sets, kept = (bounds >= reach[:, None]).nonzero()
    parts = np.empty((rows, len(kept), _BLOCK_POINTS // _SUB_POINTS))
    for j, (_, _, _, sub_maxima) in enumerate(tables):
        sub_maxima.take(kept, axis=1, out=parts[2 * j:2 * j + 2], mode="clip")
    bounds = _weighted_sums(weights[:, sets], parts, parts)
    pairs, subs = (bounds >= reach[sets, None]).nonzero()
    sets = sets[pairs]
    kept = kept[pairs] * (_BLOCK_POINTS // _SUB_POINTS) + subs

    parts = np.empty((rows, len(kept), _SUB_POINTS))
    for j, (_, sub_blocks, _, _) in enumerate(tables):
        sub_blocks.take(kept, axis=1, out=parts[2 * j:2 * j + 2], mode="clip")
    scores = _weighted_sums(weights[:, sets], parts, parts)
    # sets ascend, and so do each set's sub-blocks: the first of a set's
    # points at its maximum in this flat order is its smallest angle there
    order = np.arange(columns)
    best = np.maximum.reduceat(scores.max(axis=1), sets.searchsorted(order))
    points = (scores == best[sets, None]).ravel().nonzero()[0]
    first = points[sets[points // _SUB_POINTS].searchsorted(order)]
    return kept[first // _SUB_POINTS] * _SUB_POINTS + first % _SUB_POINTS


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
    the kernel's arrays belonging to ``refines[b]``.

    All live generators step together: each step evaluates every one's next
    point in one kernel call.  A finished generator's column leaves the batch.
    """
    results = [0.0] * len(refines)
    live = list(range(len(refines)))
    points = [next(refine) for refine in refines]
    while live:
        values = _log_likelihoods(multipliers, weights, points).tolist()
        kept, points = [], []
        for column, (b, value) in enumerate(zip(live, values)):
            try:
                points.append(refines[b].send(value))
                kept.append(column)
            except StopIteration as done:
                results[b] = done.value
        if len(kept) < len(live):
            live = [live[column] for column in kept]
            multipliers, weights = multipliers[:, kept], weights[:, kept]
    return results


def maximize_likelihoods(record_sets) -> list[tuple[float, float]]:
    """``(theta, value)`` for each record set of the sequence ``record_sets``:
    the angle in [0, pi/2] that maximizes its joint log-likelihood, and the
    log-likelihood there.

    Stage one finds the best of a uniform grid of ``GRID_POINTS`` angles by
    a bounded scan, all record sets of one schedule together (see
    :func:`_bounded_scan`): upper bounds per block of ``_BLOCK_POINTS``
    angles, then per sub-block of ``_SUB_POINTS``, rule out most of the
    grid, and only the rest is scored exactly.  Stage two refines between
    the grid neighbours of the best point by golden section down to 1e-10,
    all record sets in lockstep (see :func:`_lockstep`).  Ties go to the
    smaller angle, and the result never scores below the best grid point.
    The record sets must have the same length.

    The grid's log sin^2 and log cos^2 tables and their block and sub-block
    maxima are built once per power and cached for the life of the process:
    1.6 MB plus 56 KB per distinct power at 100,000 points.
    """
    if not all(record_sets):
        raise ValueError("need at least one measurement record")
    if not record_sets:
        return []
    multipliers, weights = _likelihood_columns(record_sets)
    grid = _grid()
    coarse, refines = [], []
    for index in _grid_argmaxes(record_sets, weights):  # first occurrence: smallest angle wins ties
        lo = float(grid[index - 1]) if index > 0 else float(grid[0])
        hi = float(grid[index + 1]) if index + 1 < GRID_POINTS else float(grid[-1])
        coarse.append(float(grid[index]))
        refines.append(_golden_max(lo, hi, _REFINE_TOL))
    refined = _lockstep(refines, multipliers, weights)
    coarse_values = _log_likelihoods(multipliers, weights, coarse).tolist()
    refined_values = _log_likelihoods(multipliers, weights, refined).tolist()
    results = []
    for theta, value, coarse_theta, coarse_value in zip(
        refined, refined_values, coarse, coarse_values
    ):
        if value < coarse_value or (value == coarse_value and coarse_theta < theta):
            theta, value = coarse_theta, coarse_value
        results.append((theta, value))
    return results


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
