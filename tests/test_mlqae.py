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
    Schedule,
    _BLOCK_POINTS,
    _grid,
    _grid_argmax,
    _log_tables,
    _weighted_sum,
    eis_schedule,
    lis_schedule,
    log_likelihood,
    maximize_likelihood,
    oracle_call_count,
    run_mlqae,
)
from qaelab.verify import reference_log_likelihood

THETA_EIGHTH = math.asin(math.sqrt(0.125))  # 0.36136712390670783


def exact_records(theta_star, depth, shots):
    """Records whose hit counts equal their exact expectations (floats)."""
    return [
        MeasurementRecord(p, shots, shots * math.sin((2 * p + 1) * theta_star) ** 2)
        for p in eis_schedule(depth).powers
    ]


class TestSchedules:
    def test_exponential_ladder(self):
        assert eis_schedule(0).powers == (0,)
        assert eis_schedule(1).powers == (0, 1)
        assert eis_schedule(3).powers == (0, 1, 2, 4)
        assert eis_schedule(4).powers == (0, 1, 2, 4, 8)

    def test_linear_ladder(self):
        assert lis_schedule(0).powers == (0,)
        assert lis_schedule(4).powers == (0, 1, 2, 3, 4)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            eis_schedule(-1)
        with pytest.raises(ValueError):
            lis_schedule(-2)

    def test_schedule_shape_validation(self):
        with pytest.raises(ValueError):
            Schedule("eis", 2, (1, 2))  # must start at zero
        with pytest.raises(ValueError):
            Schedule("eis", 2, (0, 2, 2))  # strictly increasing
        with pytest.raises(ValueError):
            Schedule("geometric", 2, (0, 1, 2))  # unknown kind

    def test_call_count(self):
        assert oracle_call_count(eis_schedule(3), 1) == 18
        assert oracle_call_count(eis_schedule(3), 1024) == 18432
        assert oracle_call_count(eis_schedule(4), 1) == 35
        assert oracle_call_count(eis_schedule(4), 1024) == 35840
        assert oracle_call_count(lis_schedule(2), 100) == 900


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
    schedule = draw(st.sampled_from((eis_schedule, lis_schedule)))(depth)
    records = []
    for power in schedule.powers:
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

    @settings(max_examples=30, deadline=None)
    @given(records=schedule_records(), middle=st.integers(1, GRID_POINTS // _BLOCK_POINTS - 1))
    def test_grid_tables(self, records, middle):
        # the first block, a middle one and the partial last one (160 points)
        last = GRID_POINTS // _BLOCK_POINTS * _BLOCK_POINTS
        spans = [(0, _BLOCK_POINTS), (middle * _BLOCK_POINTS, (middle + 1) * _BLOCK_POINTS),
                 (last, GRID_POINTS)]
        for subset in with_singles(records):
            want = reference_log_likelihood(subset, _grid())
            tables = [_log_tables(rec.power) for rec in subset]
            for start, stop in spans:
                parts = [(s[start:stop], c[start:stop]) for s, c, _, _ in tables]
                assert np.array_equal(_weighted_sum(subset, parts), want[start:stop])

    @settings(max_examples=100, deadline=None)
    @given(records=schedule_records(), seed=st.integers(0, 2**32 - 1))
    def test_scalar_angles(self, records, seed):
        # many angles per example: a wrong rounding shows in ~0.1% of terms
        angles = [0.0, math.pi / 2]
        angles += [float(t) for t in np.random.default_rng(seed).uniform(0.0, math.pi / 2, 32)]
        for subset in with_singles(records):
            for theta in angles:
                assert log_likelihood(subset, theta) == reference_log_likelihood(subset, theta)


class TestMaximize:
    @settings(max_examples=30, deadline=None)
    @given(records=schedule_records())
    @example(records=[MeasurementRecord(0, 16, 16)])  # float-flat near pi/2
    @example(records=[MeasurementRecord(0, 16, 0)])  # float-flat near 0
    def test_bounded_scan_matches_full_argmax(self, records):
        for subset in with_singles(records):
            want = int(np.argmax(reference_log_likelihood(subset, _grid())))
            assert _grid_argmax(subset) == want

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
        recs = [MeasurementRecord(p, 100, 12) for p in lis_schedule(40).powers]
        maximize_likelihood(recs)
        misses = _log_tables.cache_info().misses
        maximize_likelihood(recs)
        assert _log_tables.cache_info().misses == misses


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
