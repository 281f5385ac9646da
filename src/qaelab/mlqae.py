"""Maximum-likelihood amplitude estimation over a ladder of amplified circuits.

A run measures one circuit per power of a schedule, all with the same
shots, and keeps the flag hit counts as one :class:`MeasurementRecord`,
whose joint Bernoulli log-likelihood in the rotation angle is maximized
by a bounded coarse grid scan and golden-section refinement.  A sweep
cell asks its backend for each power's flag probability once and draws
every repetition's hits from it; the scan and the refinement then run all
of the cell's repetitions together, the refinement in lockstep with one
vectorized likelihood evaluation per step.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# measure_flag is not called here; perfbench's tracer rebinds it under this name
from .core import AnalyticBackend, Backend, OracleSpec, _draw_probability, check_shots, \
    measure_flag  # noqa: F401

__all__ = [
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
#: grid angles per block and per sub-block of the bounded scan: 250 whole
#: blocks of 16 sub-blocks each, so no pad point is needed.  At EIS depth 18
#: 400-angle blocks leave about 165 sub-blocks per set to score, 250-angle
#: ones about 250
_BLOCK_POINTS = 400
_SUB_POINTS = 25
_BLOCKS = GRID_POINTS // _BLOCK_POINTS
_SUBS = _BLOCK_POINTS // _SUB_POINTS
#: best-bound sub-blocks of a set's best-bound block that the bounded scan
#: scores for a value to prune against.  One holds that block's maximum in
#: 794 of the 840 sets of tables 2-4 and prunes as well as the whole block
#: on average there, but at EIS depth 18, where a block spans many lobes,
#: it scores lower in most sets and prunes less; two prune as the whole
#: block does on both
_REACH_SUBS = 2
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
#: records maximized at once.  The scan's gathers grow with the batch, so
#: one chunk's transient arrays peak at about 14 MiB at EIS depth 4, 80 MiB
#: at depth 14 and 650 MiB at depth 18, where a block spans many lobes and
#: about 165 sub-blocks per set are scored (tracemalloc, n = 20, a = 1/8,
#: 100 shots)
_CHUNK = 512


def make_schedule(kind: str, depth: int) -> tuple[int, ...]:
    """The powers of the amplification iterate to run: ``"eis"`` spaces them
    exponentially, ``(0, 1, 2, 4, ..., 2**(depth-1))``, and ``"lis"``
    linearly, ``(0, 1, 2, ..., depth)``; ``depth`` is the number of
    amplified circuits beyond the zero-power one."""
    if kind not in ("eis", "lis"):
        raise ValueError(f"unknown schedule kind {kind!r}")
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    try:
        # the top power's multiplier 2m + 1 scales the angle as a float: it
        # is 2**depth + 1 for "eis", whose float is 2**depth, and 2*depth + 1
        math.ldexp(1.0, depth) if kind == "eis" else float(2 * depth + 1)
    except OverflowError:
        raise ValueError(
            f"depth {depth} is too deep: its top multiplier 2m + 1 has no float"
        ) from None
    if kind == "eis":
        return (0,) + tuple(2**j for j in range(depth))
    return tuple(range(depth + 1))


def oracle_call_count(powers, shots: int) -> int:
    """Total oracle queries: a power-m circuit costs ``2m + 1`` per shot."""
    return shots * sum(2 * m + 1 for m in powers)


@dataclass(frozen=True)
class MeasurementRecord:
    """One run of a power schedule: each power's flag-1 hit count, floats
    allowed, out of the run's ``shots``, stored as tuples aligned by power."""

    powers: tuple[int, ...]
    shots: int
    hits: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "powers", tuple(self.powers))
        object.__setattr__(self, "hits", tuple(self.hits))
        if not self.powers or min(self.powers) < 0:
            raise ValueError(f"need at least one power, none negative, got {self.powers}")
        if len(self.hits) != len(self.powers):
            raise ValueError(f"{len(self.hits)} hit counts for {len(self.powers)} powers")
        check_shots(self.shots)
        if not all(0 <= hits <= self.shots for hits in self.hits):
            raise ValueError(f"hits {self.hits} outside [0, {self.shots}]")


def _weights(hits: np.ndarray, shots) -> np.ndarray:
    """The kernel's weights (2R, B) of B runs' hits (B, R) and ``shots``, one
    count or a (B, 1) column: column b reads run b's hits_0, misses_0,
    hits_1, and so on, the misses taken as ``shots - hits`` before floats."""
    weights = np.empty((2 * hits.shape[1], len(hits)))
    weights[0::2] = hits.T
    weights[1::2] = (shots - hits).T
    return weights


def _likelihood_columns(records) -> tuple[tuple[int, ...], np.ndarray]:
    """The records' ``powers`` and the kernel's weights, one column per record
    (see :func:`_weights`).  Every record must have the same powers."""
    powers = records[0].powers
    if any(record.powers != powers for record in records):
        raise ValueError("record sets of one batch must have the same powers")
    hits = np.array([record.hits for record in records])
    shots = np.array([[record.shots] for record in records])
    return powers, _weights(hits, shots)


def _multipliers(powers) -> np.ndarray:
    """The kernel's (R, 1) multipliers: row j holds ``2m + 1`` of ``powers[j]``."""
    return np.array([[2 * power + 1] for power in powers], dtype=float)


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
    """Joint log-likelihood of column b's run at the angle ``thetas[b]``.

    The weights are :func:`_weights`'.  Each value is bit for bit that of
    the per-power loop ``verify.reference_scalar_log_likelihood``:
    :func:`_log_terms` rounds as the loop does, and ``np.add.accumulate``
    adds down each column in the loop's order.
    """
    terms = np.empty((2 * len(multipliers), len(thetas)))
    _log_terms(multipliers * np.array(thetas), terms)
    terms *= weights
    return np.add.accumulate(terms)[-1]


def log_likelihood(record: MeasurementRecord, theta: float) -> float:
    """Joint log-likelihood of the record at the rotation angle ``theta``.

    Each power ``m`` with ``hits`` of the record's ``shots`` contributes

        hits * log(sin^2((2m+1) theta)) + (shots - hits) * log(cos^2((2m+1) theta))

    with both squared terms clamped below at ``LIKELIHOOD_FLOOR``.  It is
    the likelihood kernel on a batch of one; the coarse grid scan sums
    cached tables of the same terms instead (see :func:`_bounded_scan`).
    """
    powers, weights = _likelihood_columns([record])
    return float(_log_likelihoods(_multipliers(powers), weights, [theta])[0])


@functools.cache
def _grid() -> np.ndarray:
    """The coarse stage's ``GRID_POINTS`` uniform angles over [0, pi/2]."""
    grid = np.linspace(0.0, math.pi / 2, GRID_POINTS)
    grid.setflags(write=False)
    return grid


@functools.cache
def _log_tables(power: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only rows floored log sin^2 and log cos^2 of ``(2 power + 1) theta``
    on the grid, by :func:`_log_terms` as the kernel computes them.

    Returned as ``(table, sub_maxima, block_maxima)``: the (2,
    ``GRID_POINTS``) table, its maxima over each sub-block, (2,
    ``GRID_POINTS // _SUB_POINTS``), and over each block, (2, ``_BLOCKS``).
    Cached for the life of the process: 1.6 MB plus 68 KB per distinct power.
    """
    table = np.empty((2, GRID_POINTS))
    _log_terms((2 * power + 1) * _grid()[None, :], table)
    sub_maxima = table.reshape(2, -1, _SUB_POINTS).max(axis=2)
    block_maxima = sub_maxima.reshape(2, _BLOCKS, -1).max(axis=2)
    for part in (table, sub_maxima, block_maxima):
        part.flags.writeable = False
    return table, sub_maxima, block_maxima


def _scores(weights: np.ndarray, rows, width: int, sets, nodes) -> np.ndarray:
    """Weighted sums over K nodes, as (K, ``width``): node k is the
    ``nodes[k]``-th run of ``width`` values of each row of ``rows`` (one
    (2, n) array of log sin^2 and log cos^2 values per power), the rows
    weighted by column ``sets[k]`` of ``weights`` (2R, B), whose rows 2j and
    2j + 1 are power j's hits and misses.  On table values the sums are bit
    for bit ``verify.reference_log_likelihood``'s: ``np.add.reduce`` over
    the first axis adds row after row in order when a row has more than one
    element (over one column it would sum pairwise), and every width here
    is at least 16.
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
    ``weights`` (2R, B), every column's run having the powers ``powers``,
    and that largest value: bit for bit :func:`log_likelihood` at the index's
    angle, since the tables hold the kernel's terms and :func:`_scores` adds
    them in the kernel's order.

    A block's or sub-block's bound is the weighted sum of its table maxima,
    added in the order of the exact sum.  Weights are non-negative, and
    round-to-nearest products and sums are monotone, so the float bound is
    at least the float value at each of its angles.  A value the column's
    maximum reaches, its reach, is the best score in the ``_REACH_SUBS``
    best-bound sub-blocks of its best-bound block: any value a grid angle
    attains prunes correctly, and a higher one prunes more.  Sub-block
    bounds are then taken only in the blocks whose bound reaches it, and
    only the sub-blocks whose bound reaches it are scored.  Any angle left
    out scores below the reach, so ties still go to the smallest angle.
    """
    tables, sub_maxima, block_maxima = zip(*(_log_tables(power) for power in powers))
    order = np.arange(weights.shape[1])
    bounds = _scores(weights, block_maxima, _BLOCKS, order, np.zeros_like(order))
    top = bounds.argmax(axis=1)
    subs = np.argpartition(_scores(weights, sub_maxima, _SUBS, order, top), -_REACH_SUBS, axis=1)
    subs = top[:, None] * _SUBS + subs[:, -_REACH_SUBS:]
    reach = _scores(weights, tables, _SUB_POINTS, order.repeat(_REACH_SUBS), subs.ravel())
    reach = reach.reshape(len(order), -1).max(axis=1)

    sets, kept = (bounds >= reach[:, None]).nonzero()
    bounds = _scores(weights, sub_maxima, _SUBS, sets, kept)
    pairs, subs = (bounds >= reach[sets, None]).nonzero()
    sets = sets[pairs]
    kept = kept[pairs] * _SUBS + subs

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


def maximize_likelihoods(records) -> list[tuple[float, float]]:
    """``(theta, value)`` for each :class:`MeasurementRecord` of the sequence
    ``records``, which must have the same powers: the angle in [0, pi/2]
    that maximizes its joint log-likelihood, and the log-likelihood there.

    Stage one finds the first best of 100,000 uniform grid angles, the index
    ``np.argmax`` gives, by a bounded scan of all records together (see
    :func:`_bounded_scan`): the grid splits into 250 blocks of 400 angles,
    each of 16 sub-blocks of 25, and bounds per block, then per sub-block,
    rule out most of it against a value each record's maximum reaches, the
    best score in the two best-bound sub-blocks of its best-bound block.
    Stage two refines between the grid neighbours of the best point by
    golden section down to 1e-10, all records in lockstep (see
    :func:`_lockstep`).  Ties go to the smaller angle, and the result never
    scores below the best grid point.  The grid tables and the kernel share
    one formula, so each value is bit for bit one scalar evaluation at its
    angle.  Records go ``_CHUNK`` = 512 at a time, which bounds the
    transient arrays; a record's result does not depend on the others.

    The grid's log sin^2 and log cos^2 tables and their block and sub-block
    maxima are built once per power and cached for the life of the process:
    1.6 MB plus 68 KB per distinct power.
    """
    if not records:
        return []
    return _maximize(*_likelihood_columns(records))


def _maximize(powers, weights: np.ndarray) -> list[tuple[float, float]]:
    """:func:`maximize_likelihoods` of the kernel's weights (2R, B), one
    column per run, every run having the powers ``powers``."""
    multipliers = _multipliers(powers)
    grid = _grid()
    results = []
    for start in range(0, weights.shape[1], _CHUNK):
        chunk = weights[:, start:start + _CHUNK]
        indices, coarse_values = _bounded_scan(powers, chunk)  # first occurrence wins ties
        brackets = zip(grid[np.maximum(indices - 1, 0)].tolist(),
                       grid[np.minimum(indices + 1, GRID_POINTS - 1)].tolist())
        refined = _lockstep([_golden_max(lo, hi, _REFINE_TOL) for lo, hi in brackets],
                            multipliers, chunk)
        refined_values = _log_likelihoods(multipliers, chunk, refined)
        coarse = grid[indices]
        use_coarse = refined_values < coarse_values
        use_coarse |= (refined_values == coarse_values) & (coarse < refined)
        results += zip(np.where(use_coarse, coarse, refined).tolist(),
                       np.where(use_coarse, coarse_values, refined_values).tolist())
    return results


def maximize_likelihood(record: MeasurementRecord) -> float:
    """Angle in [0, pi/2] maximizing the record's joint log-likelihood: the
    angle of :func:`maximize_likelihoods` on a batch of one."""
    return maximize_likelihoods([record])[0][0]


@dataclass(frozen=True)
class MlqaeReport:
    """Outcome of one maximum-likelihood estimation run."""

    theta_hat: float
    a_hat: float
    oracle_calls: int
    record: MeasurementRecord
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
    """One :func:`run_mlqae` per generator of the iterable ``rngs``,
    maximized together.

    The backend is asked once per power of the schedule, before the first
    draw, and not at all when ``rngs`` is empty.  Each generator then draws
    its hits for every power in schedule order, as one run after another
    would, and all of them are maximized together, as
    :func:`maximize_likelihoods` does.
    """
    powers = make_schedule(kind, depth)
    check_shots(shots)
    rngs = iter(rngs)
    first = next(rngs, None)
    if first is None:
        return []
    if backend is None:
        backend = AnalyticBackend()
    probabilities = [_draw_probability(backend, oracle, power) for power in powers]
    hits = np.array([[rng.binomial(shots, p) for p in probabilities]
                     for rng in itertools.chain((first,), rngs)], dtype=np.int64)
    calls = oracle_call_count(powers, shots)
    return [
        MlqaeReport(
            theta_hat=theta_hat,
            a_hat=math.sin(theta_hat) ** 2,
            oracle_calls=calls,
            record=MeasurementRecord(powers, shots, row),
            log_likelihood_at_max=value,
        )
        for row, (theta_hat, value) in zip(hits.tolist(), _maximize(powers, _weights(hits, shots)))
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
