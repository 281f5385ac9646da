"""Brute-force cross-checks for the matrix-free core and the interval math.

Everything here is built the slow, obvious way — dense Kronecker products,
explicit permutation matrices, the iterate's update over the whole array,
the oracle angle from an integer square root and the arcsine's series,
direct binomial tail sums, power scans in exact rational arithmetic, one
numpy SeedSequence per repetition, a golden section that evaluates the
likelihood one point and one power at a time — precisely so it shares no
code path with the implementations it checks.
The CLI ``verify`` subcommand runs :func:`run_checks`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bench import derive_rng, derive_rngs, table_configs
from .core import AnalyticBackend, OracleSpec, StatevectorBackend, apply_q, make_backend, \
    prepare_a
from .iqae import ConfidenceInterval, binomial_confidence, find_next_k
from .mlqae import GRID_POINTS, LIKELIHOOD_FLOOR, MeasurementRecord, _INV_PHI, _REFINE_TOL, \
    _bounded_scan, _grid, _likelihood_columns, _log_tables, _scores, log_likelihood, \
    make_schedule, maximize_likelihoods, run_mlqae_cell

__all__ = [
    "CheckResult",
    "dense_preparation",
    "dense_iterate",
    "probe_iterate",
    "reference_iterate",
    "reference_grid_log_likelihood",
    "reference_log_likelihood",
    "reference_maximize_likelihood",
    "reference_scalar_log_likelihood",
    "reference_theta",
    "run_checks",
]

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _mark_permutation(oracle: OracleSpec) -> np.ndarray:
    """Permutation flipping the flag bit on every good domain index."""
    dim, n = 2 << oracle.n, oracle.n
    perm = np.zeros((dim, dim))
    for d in range(oracle.domain_size):
        flip = 1 if d < oracle.good_count else 0
        for f in (0, 1):
            perm[((f ^ flip) << n) | d, (f << n) | d] = 1.0
    return perm


def dense_preparation(oracle: OracleSpec) -> np.ndarray:
    """Preparation unitary as an explicit matrix: Hadamards then marking."""
    had = np.eye(2)
    for _ in range(oracle.n):
        had = np.kron(had, _H)
    return _mark_permutation(oracle) @ had


def dense_iterate(oracle: OracleSpec) -> np.ndarray:
    """Amplification iterate assembled from explicit dense factors."""
    dim = 2 << oracle.n
    prep = dense_preparation(oracle)
    reflect0 = np.eye(dim)
    reflect0[0, 0] = -1.0
    flag_phase = np.kron(np.diag([1.0, -1.0]), np.eye(1 << oracle.n))
    return prep @ reflect0 @ prep.T @ flag_phase


def probe_iterate(oracle: OracleSpec) -> np.ndarray:
    """Iterate matrix recovered column-by-column through the in-place kernel."""
    dim = 2 << oracle.n
    cols = np.empty((dim, dim))
    for j, basis in enumerate(np.eye(dim)):
        cols[:, j] = apply_q(basis, oracle)
    return cols


def reference_iterate(amps: np.ndarray, oracle: OracleSpec) -> np.ndarray:
    """One iterate applied to a copy of ``amps`` by whole-array operations:
    the flag-phase flip of the whole flag-1 half, then the rank-one update
    with the prepared state over every amplitude, zeros of ``psi`` included.
    The overlap is ``psi``'s one nonzero value times the sum of the
    amplitudes where ``psi`` is nonzero, taken in index order."""
    amps = np.array(amps, dtype=np.float64)
    psi = prepare_a(oracle)
    amps[1 << oracle.n:] *= -1.0
    overlap = psi.max() * np.add.reduce(amps[psi != 0])
    amps -= 2.0 * overlap * psi
    return amps


def reference_binomial_confidence(
    hits: int, shots: int, alpha: float
) -> tuple[float, float]:
    """Clopper-Pearson bounds found by bisecting the exact tail sums."""
    combs = [math.comb(shots, j) for j in range(shots + 1)]

    def tail(p: float, js: range) -> float:
        """P[X in js] for X ~ Binomial(shots, p), by direct summation."""
        return sum(combs[j] * p**j * (1.0 - p) ** (shots - j) for j in js)

    def bisect(f, lo: float, hi: float, target: float) -> float:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    if hits == 0:
        p_lo = 0.0
    else:
        # P[X >= hits] grows with p; find where it crosses alpha/2
        p_lo = bisect(lambda p: tail(p, range(hits, shots + 1)), 0.0, 1.0, alpha / 2)
    if hits == shots:
        p_hi = 1.0
    else:
        # P[X <= hits] falls with p; find where it drops to alpha/2
        p_hi = bisect(lambda p: -tail(p, range(hits + 1)), 0.0, 1.0, -alpha / 2)
    return p_lo, p_hi


#: pi to 80 decimals, as an exact rational
_PI = Fraction(
    "3.14159265358979323846264338327950288419716939937510"
    "582097494459230781640628620899"
)


def reference_theta(oracle: OracleSpec) -> float:
    """``arcsin(sqrt(a))`` from the oracle's integers alone: ``sqrt(a)`` by
    ``math.isqrt`` and the arcsine by its Taylor series in the exact ``a``,
    both in fixed point with ``n + 64`` fractional bits, 64 bits more than
    the smallest nonzero angle needs; above ``a = 1/2`` it is ``pi/2`` less
    the unmarked count's angle."""
    n, size = oracle.n, oracle.domain_size
    flip = 2 * oracle.good_count > size
    count = size - oracle.good_count if flip else oracle.good_count
    # x * 2**(n + 64), for x = sqrt(count / 2**n)
    term = math.isqrt(count << (n + 128))
    total, k = 0, 0
    # arcsin x = sum of t_k, t_k = t_(k-1) * x**2 * (2k - 1)**2 / (2k (2k + 1))
    while term:
        total += term
        k += 1
        term = term * count * (2 * k - 1) ** 2 // ((2 * k * (2 * k + 1)) << n)
    angle = Fraction(total, 1 << (n + 64))
    return float(_PI / 2 - angle if flip else angle)


def _admissible_power(lo: Fraction, hi: Fraction, k: int) -> int | None:
    """Half-turn index of [(4k+2)lo, (4k+2)hi] via explicit windings w, in
    exact rational arithmetic: 2w for the upper half-plane [2 pi w, 2 pi w + pi],
    2w + 1 for the lower one, None if the scaled interval crosses a boundary."""
    s_lo, s_hi = (4 * k + 2) * lo, (4 * k + 2) * hi
    w = math.floor(s_lo / (2 * _PI))  # s_lo - 2 pi w is in [0, 2 pi)
    if s_hi <= 2 * _PI * w + _PI:
        return 2 * w
    w = math.floor((s_lo - _PI) / (2 * _PI))  # s_lo - 2 pi w is in [pi, 3 pi)
    if s_hi <= 2 * _PI * (w + 1):
        return 2 * w + 1
    return None


def reference_largest_power(lo: float, hi: float) -> tuple[int, int]:
    """Largest admissible power for the float interval [lo, hi] (lo < hi),
    taken as exact rationals: scan down from the width bound
    (4k+2)(hi - lo) <= pi and stop at the first admissible power.  Power 0
    is admissible for every interval inside [0, pi/2].  Returns the power
    and its exact half-turn index."""
    lo_q, hi_q = Fraction(lo), Fraction(hi)
    for k in range(math.floor(_PI / (4 * (hi_q - lo_q))), -1, -1):
        half_turn = _admissible_power(lo_q, hi_q, k)
        if half_turn is not None:
            return k, half_turn
    raise ValueError(f"no admissible power for [{lo}, {hi}]")


def _reference_logs(power: int, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floored log sin^2 and log cos^2 of ``(2 power + 1) angles``, squared by
    ``np.float_power``, libm's ``pow``, on every shape of ``angles``."""
    c = 2 * power + 1
    s2 = np.float_power(np.sin(c * angles), 2)
    c2 = np.float_power(np.cos(c * angles), 2)
    return np.log(np.maximum(s2, LIKELIHOOD_FLOOR)), np.log(np.maximum(c2, LIKELIHOOD_FLOOR))


@functools.lru_cache(maxsize=64)
def _reference_grid_logs(power: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_reference_logs` over the whole grid, kept for the 64 powers
    used last (1.6 MB each)."""
    logs = _reference_logs(power, _grid())
    for part in logs:
        part.flags.writeable = False
    return logs


def _reference_sum(record, logs, total):
    """``total`` plus each power's hits and misses times its floored logs,
    ``logs(power)``, added one power after another."""
    for power, hits in zip(record.powers, record.hits):
        log_s2, log_c2 = logs(power)
        total = total + hits * log_s2
        total = total + (record.shots - hits) * log_c2
    return total


def reference_log_likelihood(record, theta):
    """Joint log-likelihood by the plain array formulation: sin, cos and log
    recomputed for every power at every angle, with no cached tables."""
    angles = np.asarray(theta, dtype=float)
    total = _reference_sum(record, lambda power: _reference_logs(power, angles),
                           np.zeros(angles.shape))
    if np.ndim(theta) == 0:
        return float(total)
    return total


def reference_grid_log_likelihood(record) -> np.ndarray:
    """``reference_log_likelihood(record, _grid())`` bit for bit, from each
    power's grid logs computed once: the same terms summed in the same
    order."""
    return _reference_sum(record, _reference_grid_logs, np.zeros(GRID_POINTS))


def reference_scalar_log_likelihood(record, theta: float) -> float:
    """Joint log-likelihood one power and one Python float at a time: the
    per-power loop the likelihood kernel batches.  ``** 2`` on a float and
    ``np.log`` of one value round as the kernel's ``np.float_power`` and
    ``np.log`` do, where ``s * s`` and ``math.log`` would not."""
    t = float(theta)
    value = 0.0
    for power, hits in zip(record.powers, record.hits):
        c = 2 * power + 1
        s2 = math.sin(c * t) ** 2
        c2 = math.cos(c * t) ** 2
        value = value + hits * np.log(max(s2, LIKELIHOOD_FLOOR))
        value = value + (record.shots - hits) * np.log(max(c2, LIKELIHOOD_FLOOR))
    return float(value)


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


def reference_maximize_likelihood(record) -> tuple[float, float]:
    """``(theta, value)`` of one record by the scalar refinement: the
    argmax of :func:`reference_grid_log_likelihood` over the whole grid, then
    golden section over :func:`reference_scalar_log_likelihood`, one point
    per call."""
    grid = _grid()
    best = int(np.argmax(reference_grid_log_likelihood(record)))  # first occurrence wins ties
    lo = float(grid[best - 1]) if best > 0 else float(grid[0])
    hi = float(grid[best + 1]) if best + 1 < GRID_POINTS else float(grid[-1])
    theta = _golden_max(
        lambda t: reference_scalar_log_likelihood(record, t), lo, hi, _REFINE_TOL
    )
    coarse_theta = float(grid[best])
    coarse_value = reference_scalar_log_likelihood(record, coarse_theta)
    refined_value = reference_scalar_log_likelihood(record, theta)
    if refined_value < coarse_value or (refined_value == coarse_value and coarse_theta < theta):
        theta = coarse_theta
    return float(theta), reference_scalar_log_likelihood(record, theta)


def _rng() -> np.random.Generator:
    return np.random.default_rng(20240521)


def _check_unitarity() -> CheckResult:
    worst = 0.0
    for n in range(1, 5):
        for good in range(0, (1 << n) + 1):
            mat = probe_iterate(OracleSpec(n, good))
            eye = np.eye(2 << n)
            worst = max(worst, float(np.abs(mat @ mat.T - eye).max()))
    return CheckResult(
        "iterate unitarity (probe matrix, n<=4, all good counts)",
        worst < 1e-10,
        f"max |QQ^H - I| = {worst:.3e}",
    )


def _check_dense_agreement() -> CheckResult:
    worst = 0.0
    for n in range(1, 5):
        for good in range(0, (1 << n) + 1):
            oracle = OracleSpec(n, good)
            worst = max(
                worst,
                float(np.abs(dense_iterate(oracle) - probe_iterate(oracle)).max()),
            )
    return CheckResult(
        "matrix-free iterate vs dense Kronecker build",
        worst < 1e-10,
        f"max elementwise gap = {worst:.3e}",
    )


def _check_preparation() -> CheckResult:
    worst = 0.0
    for n in range(1, 5):
        for good in range(0, (1 << n) + 1):
            oracle = OracleSpec(n, good)
            dense_state = dense_preparation(oracle)[:, 0]
            worst = max(
                worst, float(np.abs(dense_state - prepare_a(oracle)).max())
            )
    return CheckResult(
        "preparation state vs dense Kronecker build",
        worst < 1e-12,
        f"max amplitude gap = {worst:.3e}",
    )


def _check_rotation_identity() -> CheckResult:
    worst = 0.0
    analytic = AnalyticBackend()
    for n in range(1, 7):
        for good in range(0, (1 << n) + 1):
            oracle = OracleSpec(n, good)
            backend = StatevectorBackend()
            for m in range(0, 9):
                gap = abs(
                    backend.flag_probability(oracle, m) - analytic.flag_probability(oracle, m)
                )
                worst = max(worst, gap)
    return CheckResult(
        "rotation identity sin^2((2m+1) theta) (n<=6, m<=8)",
        worst < 1e-9,
        f"max probability gap = {worst:.3e}",
    )


def _check_iterate_inverse() -> CheckResult:
    rng = _rng()
    worst = 0.0
    for n in (2, 3, 5):
        for good in range(0, (1 << n) + 1):
            oracle = OracleSpec(n, good)
            amps = rng.normal(size=2 << n)
            amps /= np.linalg.norm(amps)
            back = dense_iterate(oracle).T @ apply_q(amps.copy(), oracle)
            worst = max(worst, float(np.abs(back - amps).max()))
    return CheckResult(
        "dense iterate's transpose inverts the matrix-free iterate "
        "(n in 2, 3, 5, all good counts)",
        worst < 1e-12,
        f"max amplitude gap after Q^T Q = {worst:.3e}",
    )


def _check_binomial_confidence() -> CheckResult:
    cases = [
        (5, 10, 0.05),
        (0, 16, 0.05),
        (16, 16, 0.05),
        (1, 7, 0.2),
        (3, 30, 0.01),
        (27, 30, 0.10),
        (50, 100, 0.05),
    ]
    worst = 0.0
    for hits, shots, alpha in cases:
        got = binomial_confidence(hits, shots, alpha)
        want = reference_binomial_confidence(hits, shots, alpha)
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    return CheckResult(
        "exact binomial interval vs direct tail-sum bisection",
        worst < 1e-9,
        f"max bound gap = {worst:.3e}",
    )


def _check_power_selection() -> CheckResult:
    intervals = [
        (0.361, 0.362),
        (0.10, 0.11),
        (0.785, 0.786),
        (1.2, 1.25),
        (0.0, 1.0),
        (0.5, 0.503),
        # clipped at either end of [0, pi/2]
        (0.5 * math.pi - 1e-4, 0.5 * math.pi),
        (0.0, 1e-4),
    ]
    ok = True
    detail = f"all {len(intervals)} scans agree"
    for lo, hi in intervals:
        got = find_next_k(ConfidenceInterval(lo, hi), 0)
        want = reference_largest_power(lo, hi)
        if got != want:
            ok = False
            detail = f"disagreement on [{lo}, {hi}]: got {got}, want {want}"
            break
    return CheckResult("next-power search vs exact rational scan", ok, detail)


def _table_scores(record) -> np.ndarray:
    """The joint log-likelihood on the whole grid as the bounded scan scores
    it: the weighted row sum of the record's cached tables."""
    powers, weights = _likelihood_columns([record])
    node = np.zeros(1, dtype=np.intp)
    tables = [_log_tables(power)[0] for power in powers]
    return _scores(weights, tables, GRID_POINTS, node, node)[0]


def _edge_record(powers, shots: int, rng) -> MeasurementRecord:
    """A record of ``powers`` with hits of 0, N and random in turn: one draw
    from ``rng`` per power."""
    hits = [(0, shots, int(rng.integers(0, shots + 1)))[i % 3] for i in range(len(powers))]
    return MeasurementRecord(powers, shots, hits)


def _check_log_likelihood() -> CheckResult:
    rng = _rng()
    angles = [0.0, math.pi / 2] + [float(t) for t in rng.uniform(0.0, math.pi / 2, 64)]
    grid_bad = argmax_bad = scalar_bad = 0
    for schedule in [make_schedule(kind, depth) for depth in (18, 4) for kind in ("eis", "lis")]:
        for shots in (1, 3, 1024):
            record = _edge_record(schedule, shots, rng)
            # each power alone too: in a long sum a last-bit slip can round away
            singles = [MeasurementRecord((p,), shots, (h,)) for p, h in zip(schedule, record.hits)]
            for subset in [record] + singles:
                want = reference_grid_log_likelihood(subset)
                grid_bad += not np.array_equal(_table_scores(subset), want)
                scalar_bad += sum(
                    log_likelihood(subset, t) != reference_log_likelihood(subset, t)
                    for t in angles
                )
                powers, weights = _likelihood_columns([subset])
                argmax_bad += int(_bounded_scan(powers, weights)[0][0]) != int(np.argmax(want))
    return CheckResult(
        "log-likelihood fast paths and bounded grid argmax vs array reference, "
        "bit for bit (depth <= 18)",
        grid_bad == 0 and argmax_bad == 0 and scalar_bad == 0,
        f"{grid_bad} grid, {argmax_bad} argmax and {scalar_bad} scalar mismatches",
    )


def _check_lockstep_maximizer() -> CheckResult:
    # (record, (theta, value)) pairs: every repetition of tables 2-4 as the
    # sweeps refine them, then batches of depth-18 records
    results = []
    for table in (2, 3, 4):
        for _, config in table_configs(table):
            backend = make_backend(config.backend)
            for shots in config.shots_list:
                rngs = derive_rngs(config.base_seed, "mlqae", shots, config.repetitions)
                results += [
                    (report.record, (report.theta_hat, report.log_likelihood_at_max))
                    for report in run_mlqae_cell(config.oracle(), config.depth, shots,
                                                 kind=config.schedule, backend=backend,
                                                 rngs=rngs)
                ]
    rng = _rng()
    for kind in ("eis", "lis"):
        schedule = make_schedule(kind, 18)
        batch = [_edge_record(schedule, shots, rng) for shots in (1, 3, 1024) for _ in range(3)]
        results += zip(batch, maximize_likelihoods(batch))
    differ = sum(got != reference_maximize_likelihood(record) for record, got in results)
    return CheckResult(
        "lockstep likelihood maximizer vs full-grid argmax and scalar golden section, "
        "bit for bit (tables 2-4, depth 18)",
        differ == 0,
        f"{differ} of {len(results)} record sets differ in theta or value",
    )


def _check_seed_batches() -> CheckResult:
    cells = [
        (config.base_seed, config.algorithm, shots, config.repetitions)
        for table in range(1, 9)
        for _, config in table_configs(table)
        for shots in config.shots_list
    ]
    # base seeds and shots of two and three 32-bit words
    cells += [
        (2**32 + 5, "mlqae", 16, 9),
        (2**64 + 3, "iqae", 2**32 + 1, 9),
        (0, "mci", 2**70 + 2**33, 9),
    ]
    states = differ = 0
    for base_seed, algorithm, shots, reps in cells:
        for rep, rng in enumerate(derive_rngs(base_seed, algorithm, shots, reps)):
            want = derive_rng(base_seed, algorithm, shots, rep)
            states += 1
            differ += rng.bit_generator.state != want.bit_generator.state
    expected = sum(cell[3] for cell in cells)
    return CheckResult(
        "batched cell seeding vs one SeedSequence per repetition "
        "(tables 1-8, multi-word seeds)",
        differ == 0 and states == expected,
        f"{differ} of {states} generator states differ ({expected} repetitions)",
    )


def run_checks() -> list[CheckResult]:
    """Run the whole brute-force suite; order is stable for scripting."""
    return [
        _check_preparation(),
        _check_unitarity(),
        _check_dense_agreement(),
        _check_rotation_identity(),
        _check_iterate_inverse(),
        _check_binomial_confidence(),
        _check_power_selection(),
        _check_log_likelihood(),
        _check_seed_batches(),
        _check_lockstep_maximizer(),
    ]
