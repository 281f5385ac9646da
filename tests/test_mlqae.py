"""Schedules, the joint likelihood, its maximizer, and full estimation runs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaelab.core import AnalyticBackend, OracleSpec, StatevectorBackend
from qaelab.mlqae import (
    GRID_POINTS,
    MeasurementRecord,
    _BLOCK_POINTS,
    _BLOCKS,
    _SUB_POINTS,
    _bounded_scan,
    _golden_max,
    _grid,
    _likelihood_columns,
    _log_likelihoods,
    _log_tables,
    log_likelihood,
    make_schedule,
    maximize_likelihood,
    maximize_likelihoods,
    oracle_call_count,
    run_mlqae,
    run_mlqae_cell,
)
from qaelab.verify import (
    _reference_grid_logs,
    _reference_logs,
    _table_scores,
    reference_grid_log_likelihood,
    reference_log_likelihood,
    reference_maximize_likelihood,
    reference_scalar_log_likelihood,
)

THETA_EIGHTH = math.asin(math.sqrt(0.125))  # 0.36136712390670783


def exact_records(theta_star, depth, shots):
    """Records whose hit counts equal their exact expectations (floats)."""
    return [
        MeasurementRecord(p, shots, shots * math.sin((2 * p + 1) * theta_star) ** 2)
        for p in make_schedule("eis", depth)
    ]


class TestSchedules:
    def test_exponential_ladder(self):
        assert make_schedule("eis", 0) == (0,)
        assert make_schedule("eis", 1) == (0, 1)
        assert make_schedule("eis", 3) == (0, 1, 2, 4)
        assert make_schedule("eis", 4) == (0, 1, 2, 4, 8)

    def test_linear_ladder(self):
        assert make_schedule("lis", 0) == (0,)
        assert make_schedule("lis", 4) == (0, 1, 2, 3, 4)

    def test_depth_validation(self):
        with pytest.raises(ValueError, match=r"^depth must be non-negative, got -1$"):
            make_schedule("eis", -1)
        with pytest.raises(ValueError, match=r"^depth must be non-negative, got -2$"):
            make_schedule("lis", -2)
        # the top multiplier 2m + 1 must have a float: 2**1023 + 1 does,
        # 2**1024 + 1 does not
        top = make_schedule("eis", 1023)[-1]
        assert top == 2**1022
        assert 0.0 <= AnalyticBackend().flag_probability(OracleSpec(4, 4), top) <= 1.0
        message = r"^depth 1024 is too deep: its top multiplier 2m \+ 1 has no float$"
        with pytest.raises(ValueError, match=message):
            make_schedule("eis", 1024)
        make_schedule("lis", 1024)
        with pytest.raises(ValueError, match=r"^depth 1\d+ is too deep"):
            make_schedule("lis", 10**308)

    def test_every_schedule_is_well_formed(self):
        for depth in range(65):
            eis, lis = make_schedule("eis", depth), make_schedule("lis", depth)
            for powers in (eis, lis):
                assert type(powers) is tuple and len(powers) == depth + 1
                assert powers[0] == 0
                assert all(prev < cur for prev, cur in zip(powers, powers[1:]))
            assert eis == (0,) + tuple(2**j for j in range(depth))
            assert lis == tuple(range(depth + 1))
        # the kind is checked first
        with pytest.raises(ValueError, match=r"^unknown schedule kind 'cubic'$"):
            make_schedule("cubic", -1)

    def test_call_count(self):
        assert oracle_call_count(make_schedule("eis", 3), 1) == 18
        assert oracle_call_count(make_schedule("eis", 3), 1024) == 18432
        assert oracle_call_count(make_schedule("eis", 4), 1) == 35
        assert oracle_call_count(make_schedule("eis", 4), 1024) == 35840
        assert oracle_call_count(make_schedule("lis", 2), 100) == 900


class TestMeasurementRecord:
    def test_validation(self):
        MeasurementRecord(0, 16, 0)
        MeasurementRecord(4, 16, 16)
        with pytest.raises(ValueError):
            MeasurementRecord(-1, 16, 3)
        with pytest.raises(ValueError):
            MeasurementRecord(0, 0, 0)
        with pytest.raises(ValueError):
            MeasurementRecord(0, 16, 17)


class TestLogLikelihood:
    def test_single_record_closed_form(self):
        rec = [MeasurementRecord(0, 100, 25)]
        theta = math.pi / 6
        expected = 25 * math.log(0.25) + 75 * math.log(0.75)
        assert log_likelihood(rec, theta) == pytest.approx(expected, abs=1e-10)

    def test_finite_at_boundaries(self):
        assert math.isfinite(log_likelihood([MeasurementRecord(0, 100, 0)], math.pi / 2))
        assert math.isfinite(log_likelihood([MeasurementRecord(0, 100, 100)], 0.0))
        assert math.isfinite(log_likelihood([MeasurementRecord(2, 64, 64)], 0.0))

    def test_exact_records_peak_at_truth(self):
        # independent oracle: dense million-point scan of the same function
        recs = exact_records(THETA_EIGHTH, 3, 1_000_000)
        grid = np.linspace(0.0, math.pi / 2, 1_000_000)
        best = float(grid[np.argmax(reference_log_likelihood(recs, grid))])
        assert abs(best - THETA_EIGHTH) < 1e-4


@st.composite
def schedule_records(draw):
    """Records of an EIS or LIS schedule of depth <= 18.  Depth 18, whose EIS
    top power 2**17 makes the grid tables oscillate fastest, is drawn often,
    as are hits of 0 and of N, which hit the likelihood floor, and tiny shot
    counts, whose sums keep a last-bit slip from rounding away."""
    depth = draw(st.one_of(st.just(18), st.integers(0, 18)))
    kind = draw(st.sampled_from(("eis", "lis")))
    records = []
    for power in make_schedule(kind, depth):
        shots = draw(st.one_of(st.integers(1, 3), st.integers(1, 4096)))
        hits = draw(st.one_of(st.just(0), st.just(shots), st.integers(0, shots)))
        records.append(MeasurementRecord(power, shots, hits))
    return records


def with_singles(records):
    """The records together, then each alone."""
    return [records] + [[rec] for rec in records]


class TestLogLikelihoodBitwise:
    """The fast paths equal ``verify.reference_log_likelihood`` exactly: a
    last-bit difference can move the argmax or the refined angle, and so
    the reproduction CSVs."""

    def test_grid_reference_caches_fresh_logs(self):
        # every power schedule_records can draw: EIS and LIS at depth 18 hold
        # those of every shallower depth
        powers = {p for kind in ("eis", "lis") for p in make_schedule(kind, 18)}
        for power in powers:
            for cached, fresh in zip(_reference_grid_logs(power), _reference_logs(power, _grid())):
                assert np.array_equal(cached, fresh), power

    @settings(max_examples=30, deadline=None)
    @given(records=schedule_records())
    def test_grid_tables(self, records):
        # the grid reference sums each power's cached logs as
        # reference_log_likelihood(subset, _grid()) does
        for subset in with_singles(records):
            assert np.array_equal(_table_scores(subset), reference_grid_log_likelihood(subset))

    @settings(max_examples=30, deadline=None)
    @given(records=schedule_records())
    def test_tables_score_as_the_kernel(self, records):
        # one formula: a table score at grid index i is the kernel's value at
        # grid[i], so the scan's best value needs no second evaluation
        powers, multipliers, weights = _likelihood_columns([records])
        want = _log_likelihoods(multipliers, weights, _grid())
        assert np.array_equal(_table_scores(records), want)
        (index,), (best,) = _bounded_scan(powers, weights)
        assert best == log_likelihood(records, float(_grid()[index]))

    @pytest.mark.parametrize("power", [0, 3, 2**17])
    def test_table_padding_and_maxima(self, power):
        # whole blocks of whole sub-blocks cover the grid: no pad points
        assert _BLOCKS * _BLOCK_POINTS == GRID_POINTS
        assert _BLOCK_POINTS % _SUB_POINTS == 0
        table, sub_maxima, block_maxima = _log_tables(power)
        assert table.shape == (2, GRID_POINTS)
        assert np.array_equal(table, np.stack(_reference_logs(power, _grid())))
        assert np.array_equal(sub_maxima, table.reshape(2, -1, _SUB_POINTS).max(axis=2))
        assert np.array_equal(block_maxima, table.reshape(2, _BLOCKS, _BLOCK_POINTS).max(axis=2))
        assert not any(part.flags.writeable for part in (table, sub_maxima, block_maxima))

    @settings(max_examples=100, deadline=None)
    @given(records=schedule_records(), seed=st.integers(0, 2**32 - 1))
    def test_scalar_angles(self, records, seed):
        # many angles per example: a wrong rounding shows in ~0.1% of terms
        angles = [0.0, math.pi / 2]
        angles += [float(t) for t in np.random.default_rng(seed).uniform(0.0, math.pi / 2, 32)]
        for subset in with_singles(records):
            for theta in angles:
                assert log_likelihood(subset, theta) == reference_log_likelihood(subset, theta)


class TestKernelArithmetic:
    """The float64 identities the likelihood kernel rests on: each batched
    operation rounds as the scalar loop's operation does on one value."""

    DRAWS = np.random.default_rng(1234).uniform(0.0, math.pi / 2, 100_000)

    def test_float_power_is_pythons_square(self):
        values = np.concatenate((np.sin(self.DRAWS), np.cos(self.DRAWS),
                                 [0.0, 1.0, 1e-150, 1e-160, 5e-324, 1.5e-154]))
        got = np.float_power(values, 2)
        assert got.tolist() == [v ** 2 for v in values.tolist()]
        # np.square is x * x: it differs, so the kernel cannot use it
        assert not np.array_equal(np.square(values), got)

    @pytest.mark.parametrize("power", [0, 1, 4, 8, 2**17])
    def test_array_sin_cos_are_math_sin_cos(self, power):
        angles = (2 * power + 1) * self.DRAWS
        want_sin = [math.sin(a) for a in angles.tolist()]
        want_cos = [math.cos(a) for a in angles.tolist()]
        assert np.sin(angles).tolist() == want_sin
        assert np.cos(angles).tolist() == want_cos
        # into interleaved rows, as the kernel writes them
        terms = np.empty((2, len(angles)))
        np.sin(angles.reshape(1, -1), terms[0::2])
        np.cos(angles.reshape(1, -1), terms[1::2])
        assert terms[0].tolist() == want_sin and terms[1].tolist() == want_cos

    def test_array_log_is_elementwise_log(self):
        values = np.concatenate((np.sin(self.DRAWS) ** 2, [1e-300, 1.0, 0.5]))
        assert np.log(values).tolist() == [float(np.log(v)) for v in values.tolist()]

    @pytest.mark.parametrize("columns", [1, 2, 7, 30])
    def test_accumulate_adds_down_a_column_in_order(self, columns):
        rng = np.random.default_rng(columns)
        # magnitudes from 1e-12 to 1e12, where the order of a sum shows
        terms = rng.normal(size=(38, columns)) * 10.0 ** rng.integers(-12, 13, size=(38, columns))
        got = np.add.accumulate(terms)[-1]
        for b in range(columns):
            value = 0.0
            for term in terms[:, b].tolist():
                value = value + term
            assert got[b] == value

    @pytest.mark.parametrize("inner", [(1, 16), (1, 25), (2, 250), (3, 16), (30, 400), (30, 25)])
    def test_reduce_adds_rows_in_order(self, inner):
        # the bounded scan's sums: (2R, B, k) arrays with k the blocks (250),
        # a block's points (400) or sub-blocks (16), or a sub-block's points (25)
        rng = np.random.default_rng(sum(inner))
        for rows in range(1, 39):
            shape = (rows,) + inner
            terms = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 13, size=shape)
            value = terms[0]
            for row in terms[1:]:
                value = value + row
            assert np.array_equal(np.add.reduce(terms, axis=0), value)

    def test_reduce_over_one_column_is_not_in_order(self):
        # why the scan never reduces rows of a single element
        rng = np.random.default_rng(5)
        differ = 0
        for _ in range(50):
            terms = rng.normal(size=(10, 1, 1)) * 10.0 ** rng.integers(-12, 13, size=(10, 1, 1))
            value = terms[0]
            for row in terms[1:]:
                value = value + row
            differ += not np.array_equal(np.add.reduce(terms, axis=0), value)
        assert differ


def peak_records(powers, shots, index):
    """Records of ``powers``, with ``shots[j]`` shots for ``powers[j]``, whose
    hits round the expected counts at the grid angle ``index``, so that their
    likelihood peaks near it."""
    theta = float(_grid()[index])
    return [MeasurementRecord(p, n, round(n * math.sin((2 * p + 1) * theta) ** 2))
            for p, n in zip(powers, shots)]


@st.composite
def record_batches(draw):
    """1-40 record sets of one powers tuple of length 1-9, EIS, LIS or other
    increasing powers; each set draws one shot count, or in about half the
    sets one per record, and hits at random with 0 and N drawn often, all
    misses, all hits, or around a peak drawn often from the last grid block."""
    length = draw(st.integers(1, 9))
    powers = draw(st.one_of(
        st.just(make_schedule("eis", length - 1)),
        st.just(make_schedule("lis", length - 1)),
        # few distinct powers: each one's grid tables stay cached (1.6 MB)
        st.lists(st.integers(1, 20), min_size=length - 1, max_size=length - 1,
                 unique=True).map(lambda ps: (0,) + tuple(sorted(ps))),
    ))
    batch = []
    counts = st.one_of(st.integers(1, 3), st.integers(1, 4096))
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.booleans()):
            shots = [draw(counts) for _ in powers]
        else:
            shots = [draw(counts)] * len(powers)
        kind = draw(st.sampled_from(("random", "misses", "hits", "peak")))
        if kind == "peak":
            index = draw(st.one_of(st.integers((_BLOCKS - 1) * _BLOCK_POINTS, GRID_POINTS - 1),
                                   st.integers(0, GRID_POINTS - 1)))
            batch.append(peak_records(powers, shots, index))
        else:
            hits = {"random": lambda n: st.one_of(st.just(0), st.just(n), st.integers(0, n)),
                    "misses": lambda n: st.just(0), "hits": st.just}[kind]
            batch.append([MeasurementRecord(p, n, draw(hits(n))) for p, n in zip(powers, shots)])
    return batch


def grid_argmaxes(batch):
    """The bounded scan's grid index of each record set of ``batch``."""
    powers, _, weights = _likelihood_columns(batch)
    return _bounded_scan(powers, weights)[0].tolist()


def golden_steps(lo, hi):
    """Points the golden-section refine asks for on [lo, hi]."""
    refine = _golden_max(lo, hi, 1e-10)
    point, steps = next(refine), 1
    try:
        while True:
            point = refine.send(-abs(point - lo))
            steps += 1
    except StopIteration:
        return steps


class TestLockstep:
    """The lockstep maximizer equals the scalar one in ``verify`` bit for bit,
    in the angle and in the log-likelihood there."""

    @settings(max_examples=20, deadline=None)
    @given(batch=record_batches(), seed=st.integers(0, 2**32 - 1))
    def test_kernel_columns_match_scalar_loop(self, batch, seed):
        _, multipliers, weights = _likelihood_columns(batch)
        thetas = np.random.default_rng(seed).uniform(0.0, math.pi / 2, len(batch)).tolist()
        thetas[0] = 0.0
        thetas[-1] = math.pi / 2
        got = _log_likelihoods(multipliers, weights, thetas).tolist()
        assert got == [reference_scalar_log_likelihood(records, theta)
                       for records, theta in zip(batch, thetas)]

    @settings(max_examples=30, deadline=None)
    @given(batch=record_batches())
    def test_matches_scalar_refine(self, batch):
        assert maximize_likelihoods(batch) == [reference_maximize_likelihood(r) for r in batch]

    def test_rows_stop_after_different_step_counts(self):
        # brackets one grid step wide at both ends of the grid, between inner ones
        batch = [
            [MeasurementRecord(p, 16, 0) for p in (0, 1, 2)],
            [MeasurementRecord(p, 16, 4) for p in (0, 1, 2)],
            [MeasurementRecord(p, 16, 16) for p in (0, 1, 2)],
            [MeasurementRecord(0, 64, 40), MeasurementRecord(1, 64, 9), MeasurementRecord(2, 64, 30)],
        ]
        assert grid_argmaxes(batch)[::2] == [0, GRID_POINTS - 1]
        grid = _grid()
        edge = golden_steps(float(grid[0]), float(grid[1]))
        inner = golden_steps(float(grid[0]), float(grid[2]))
        assert edge < inner
        assert maximize_likelihoods(batch) == [reference_maximize_likelihood(r) for r in batch]

    def test_value_is_the_likelihood_at_the_angle(self):
        batch = [[MeasurementRecord(p, 100, h) for p, h in zip((0, 1, 2, 4), hits)]
                 for hits in ((12, 60, 98, 3), (0, 0, 0, 0), (50, 50, 50, 50))]
        for records, (theta, value) in zip(batch, maximize_likelihoods(batch)):
            assert theta == maximize_likelihood(records)
            assert value == log_likelihood(records, theta)

    def test_batch_validation(self):
        assert maximize_likelihoods([]) == []
        with pytest.raises(ValueError, match="at least one"):
            maximize_likelihoods([[MeasurementRecord(0, 16, 3)], []])
        message = "^record sets of one batch must have the same powers$"
        with pytest.raises(ValueError, match=message):
            maximize_likelihoods([[MeasurementRecord(0, 16, 3)],
                                  [MeasurementRecord(0, 16, 3), MeasurementRecord(1, 16, 3)]])
        # the same length, different powers
        with pytest.raises(ValueError, match=message):
            maximize_likelihoods([[MeasurementRecord(0, 16, 3), MeasurementRecord(1, 16, 3)],
                                  [MeasurementRecord(0, 16, 3), MeasurementRecord(2, 16, 3)]])


class TestMaximize:
    @settings(max_examples=30, deadline=None)
    @given(records=schedule_records())
    @example(records=[MeasurementRecord(0, 16, 16)])  # float-flat near pi/2
    @example(records=[MeasurementRecord(0, 16, 0)])  # float-flat near 0
    def test_bounded_scan_matches_full_argmax(self, records):
        # the set alone, then each record alone, a batch of one each
        for subset in with_singles(records):
            want = int(np.argmax(reference_grid_log_likelihood(subset)))
            assert grid_argmaxes([subset]) == [want]

    @settings(max_examples=30, deadline=None)
    @given(batch=record_batches())
    def test_batched_scan_matches_full_argmax(self, batch):
        want = [int(np.argmax(reference_grid_log_likelihood(r))) for r in batch]
        assert grid_argmaxes(batch) == want
        # a set's index does not depend on its batchmates
        assert [grid_argmaxes([records])[0] for records in batch] == want

    def test_batched_scan_edges(self):
        # all misses, all hits, peaks inside the last block (grid indices
        # 99600-99999) and elsewhere, in one batch per schedule of 5
        schedules = [(0, 1, 2, 4, 8), (0, 1, 2, 3, 4), (0, 2, 3, 7, 11)]
        targets = [99_840, 99_871, 99_950, 99_998, 12_345, 50_000, 0, GRID_POINTS - 1]
        last_block = []
        for powers in schedules:
            batch = [[MeasurementRecord(p, 64, 0) for p in powers],
                     [MeasurementRecord(p, 64, 64) for p in powers]]
            batch += [peak_records(powers, [4096] * len(powers), target) for target in targets]
            want = [int(np.argmax(reference_grid_log_likelihood(r))) for r in batch]
            assert want[:2] == [0, GRID_POINTS - 1]
            last_block += [w for w in want if w >= (_BLOCKS - 1) * _BLOCK_POINTS]
            assert grid_argmaxes(batch) == want
            assert grid_argmaxes(batch[::-1]) == want[::-1]
        assert len(last_block) >= 9 and min(last_block) < GRID_POINTS - 1

    def test_all_misses_gives_zero(self):
        assert maximize_likelihood([MeasurementRecord(0, 16, 0)]) == 0.0

    def test_all_hits_gives_right_angle(self):
        # the likelihood is float-flat on [pi/2 - 1e-8, pi/2]; anywhere there is a maximizer
        theta = maximize_likelihood([MeasurementRecord(0, 16, 16)])
        assert theta == pytest.approx(math.pi / 2, abs=2e-8)
        assert math.sin(theta) ** 2 == 1.0

    def test_single_record_quarter(self):
        theta = maximize_likelihood([MeasurementRecord(0, 100, 25)])
        assert theta == pytest.approx(math.pi / 6, abs=1e-6)

    def test_consistency_on_exact_records(self):
        theta = maximize_likelihood(exact_records(THETA_EIGHTH, 4, 4096))
        assert abs(math.sin(theta) ** 2 - 0.125) < 1e-4

    def test_never_below_coarse_grid(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            recs = [
                MeasurementRecord(p, 64, int(rng.integers(0, 65)))
                for p in (0, 1, 2, 4)
            ]
            theta = maximize_likelihood(recs)
            assert log_likelihood(recs, theta) >= float(
                np.max(reference_log_likelihood(recs, _grid()))
            )

    def test_requires_records(self):
        with pytest.raises(ValueError):
            maximize_likelihood([])

    def test_deep_schedule_tables_stay_cached(self):
        # LIS depth 40 uses 41 powers, more than a 32-entry cache holds
        recs = [MeasurementRecord(p, 100, 12) for p in make_schedule("lis", 40)]
        maximize_likelihood(recs)
        misses = _log_tables.cache_info().misses
        maximize_likelihood(recs)
        assert _log_tables.cache_info().misses == misses


class TestRunMlqaeCell:
    def test_backend_sees_the_calls_of_run_after_run(self):
        class Logged(AnalyticBackend):
            def __init__(self):
                self.calls = []

            def flag_probability(self, oracle, m):
                self.calls.append(m)
                return super().flag_probability(oracle, m)

        oracle = OracleSpec(10, 128)
        cell, runs = Logged(), Logged()
        run_mlqae_cell(oracle, 3, 16, backend=cell,
                       rngs=[np.random.default_rng(r) for r in range(4)])
        for r in range(4):
            run_mlqae(oracle, 3, 16, backend=runs, rng=np.random.default_rng(r))
        assert cell.calls == runs.calls == list(make_schedule("eis", 3)) * 4


class TestRunMlqae:
    def test_call_accounting_exact(self):
        oracle = OracleSpec(10, 128)
        for shots in (16, 100, 1024):
            rng = np.random.default_rng(7)
            assert run_mlqae(oracle, 3, shots, rng=rng).oracle_calls == 18 * shots
            assert run_mlqae(oracle, 4, shots, rng=rng).oracle_calls == 35 * shots

    def test_report_records_follow_schedule(self):
        oracle = OracleSpec(10, 128)
        report = run_mlqae(oracle, 4, 64, rng=np.random.default_rng(3))
        assert tuple(rec.power for rec in report.records) == (0, 1, 2, 4, 8)
        assert all(rec.shots == 64 for rec in report.records)
        assert all(0 <= rec.hits <= 64 for rec in report.records)
        assert report.a_hat == pytest.approx(math.sin(report.theta_hat) ** 2, abs=1e-15)

    def test_empty_oracle_estimates_zero_exactly(self):
        report = run_mlqae(OracleSpec(8, 0), 3, 256, rng=np.random.default_rng(11))
        assert report.theta_hat == 0.0
        assert report.a_hat == 0.0

    def test_mean_accuracy_at_high_shots(self):
        oracle = OracleSpec(10, 128)
        estimates = [
            run_mlqae(oracle, 4, 1024, rng=np.random.default_rng(4000 + r)).a_hat
            for r in range(30)
        ]
        mean = float(np.mean(estimates))
        rel = 100.0 * np.abs(np.array(estimates) - 0.125) / 0.125
        assert 0.123 <= mean <= 0.127
        assert float(rel.mean()) <= 0.6

    def test_deeper_ladder_not_worse(self):
        # statistical: mean relative error at depth 4 should not exceed depth 3
        oracle = OracleSpec(10, 128)
        rel = {}
        for depth in (3, 4):
            ests = np.array([
                run_mlqae(oracle, depth, 1024, rng=np.random.default_rng(5000 + r)).a_hat
                for r in range(30)
            ])
            rel[depth] = float(np.mean(100.0 * np.abs(ests - 0.125) / 0.125))
        assert rel[4] <= rel[3]

    def test_linear_schedule_runs(self):
        oracle = OracleSpec(10, 128)
        report = run_mlqae(oracle, 4, 512, kind="lis", rng=np.random.default_rng(8))
        assert report.oracle_calls == 512 * (1 + 3 + 5 + 7 + 9)
        assert abs(report.a_hat - 0.125) < 0.05

    def test_statevector_backend_runs(self):
        oracle = OracleSpec(6, 8)
        report = run_mlqae(
            oracle, 3, 2048, backend=StatevectorBackend(), rng=np.random.default_rng(9)
        )
        assert abs(report.a_hat - oracle.a) < 0.05

    def test_deterministic(self):
        oracle = OracleSpec(10, 128)
        r1 = run_mlqae(oracle, 4, 256, backend=AnalyticBackend(),
                       rng=np.random.default_rng(77))
        r2 = run_mlqae(oracle, 4, 256, backend=AnalyticBackend(),
                       rng=np.random.default_rng(77))
        assert r1 == r2

    def test_large_domain_matches_small(self):
        # 2**61 of 2**64 marked: the same theta as 128 of 1024, so the same draws
        for kind in ("eis", "lis"):
            large, small = (
                run_mlqae(oracle, 4, 256, kind=kind, rng=np.random.default_rng(77))
                for oracle in (OracleSpec.from_amplitude(64, 0.125), OracleSpec(10, 128))
            )
            assert large == small

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_mlqae(OracleSpec(4, 2), 3, 16, kind="exp", rng=np.random.default_rng(0))
