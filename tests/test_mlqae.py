"""Schedules, the joint likelihood, its maximizer, and full estimation runs."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qaelab.core as core_mod
import qaelab.mlqae as mlqae_mod
from qaelab.bench import derive_rngs, run_sweep, table_configs
from qaelab.core import AnalyticBackend, OracleSpec, StatevectorBackend, measure_flag
from qaelab.mlqae import (
    GRID_POINTS,
    MeasurementRecord,
    _BLOCK_POINTS,
    _BLOCKS,
    _CHUNK,
    _SUB_POINTS,
    _SUBS,
    _bounded_scan,
    _golden_max,
    _grid,
    _likelihood_columns,
    _log_likelihood_at,
    _log_likelihoods,
    _lockstep,
    _log_tables,
    _lone_scan,
    _maxima,
    _multipliers,
    _pieces,
    _scores,
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


def exact_record(theta_star, depth, shots):
    """A record whose hit counts equal their exact expectations (floats)."""
    powers = make_schedule("eis", depth)
    return MeasurementRecord(
        powers, shots, [shots * math.sin((2 * p + 1) * theta_star) ** 2 for p in powers])


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
        MeasurementRecord((0,), 16, (0,))
        MeasurementRecord((4,), 16, (16,))
        MeasurementRecord((0, 1, 2), 16, (0, 7.5, 16))
        with pytest.raises(ValueError, match=r"^need at least one power, none negative, "
                                             r"got \(0, -1\)$"):
            MeasurementRecord((0, -1), 16, (3, 3))
        with pytest.raises(ValueError, match=r"^shots must be positive, got 0$"):
            MeasurementRecord((0,), 0, (0,))
        with pytest.raises(ValueError, match=r"^hits \(3, 17\) outside \[0, 16\]$"):
            MeasurementRecord((0, 1), 16, (3, 17))
        with pytest.raises(ValueError, match=r"^hits \(-1,\) outside \[0, 16\]$"):
            MeasurementRecord((0,), 16, (-1,))
        with pytest.raises(ValueError, match=r"^need at least one power, none negative, got \(\)$"):
            MeasurementRecord((), 16, ())
        with pytest.raises(ValueError, match=r"^2 hit counts for 3 powers$"):
            MeasurementRecord((0, 1, 2), 16, (3, 3))

    def test_one_frozen_record_per_run(self):
        record = MeasurementRecord([0, 1, 2], 16, [3, 4, 5])
        assert record.powers == (0, 1, 2) and record.hits == (3, 4, 5)
        assert record == MeasurementRecord((0, 1, 2), 16, (3, 4, 5))
        assert hash(record) == hash(MeasurementRecord((0, 1, 2), 16, (3, 4, 5)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.shots = 32


class TestLogLikelihood:
    def test_single_record_closed_form(self):
        rec = MeasurementRecord((0,), 100, (25,))
        theta = math.pi / 6
        expected = 25 * math.log(0.25) + 75 * math.log(0.75)
        assert log_likelihood(rec, theta) == pytest.approx(expected, abs=1e-10)

    def test_finite_at_boundaries(self):
        assert math.isfinite(log_likelihood(MeasurementRecord((0,), 100, (0,)), math.pi / 2))
        assert math.isfinite(log_likelihood(MeasurementRecord((0,), 100, (100,)), 0.0))
        assert math.isfinite(log_likelihood(MeasurementRecord((2,), 64, (64,)), 0.0))

    def test_exact_records_peak_at_truth(self):
        # independent oracle: dense million-point scan of the same function
        rec = exact_record(THETA_EIGHTH, 3, 1_000_000)
        grid = np.linspace(0.0, math.pi / 2, 1_000_000)
        best = float(grid[np.argmax(reference_log_likelihood(rec, grid))])
        assert abs(best - THETA_EIGHTH) < 1e-4


@st.composite
def schedule_record(draw):
    """A record of an EIS or LIS schedule of depth <= 18.  Depth 18, whose EIS
    top power 2**17 makes the grid tables oscillate fastest, is drawn often,
    as are hits of 0 and of N, which hit the likelihood floor, and tiny shot
    counts, whose sums keep a last-bit slip from rounding away."""
    depth = draw(st.one_of(st.just(18), st.integers(0, 18)))
    kind = draw(st.sampled_from(("eis", "lis")))
    powers = make_schedule(kind, depth)
    shots = draw(st.one_of(st.integers(1, 3), st.integers(1, 4096)))
    hits = st.one_of(st.just(0), st.just(shots), st.integers(0, shots))
    return MeasurementRecord(powers, shots, [draw(hits) for _ in powers])


def with_singles(record):
    """The record, then a one-power record of each of its powers."""
    return [record] + [MeasurementRecord((power,), record.shots, (hits,))
                       for power, hits in zip(record.powers, record.hits)]


class TestLogLikelihoodBitwise:
    """The fast paths equal ``verify.reference_log_likelihood`` exactly: a
    last-bit difference can move the argmax or the refined angle, and so
    the reproduction CSVs."""

    def test_grid_reference_caches_fresh_logs(self):
        # every power schedule_record can draw: EIS and LIS at depth 18 hold
        # those of every shallower depth
        powers = {p for kind in ("eis", "lis") for p in make_schedule(kind, 18)}
        for power in powers:
            for cached, fresh in zip(_reference_grid_logs(power), _reference_logs(power, _grid())):
                assert np.array_equal(cached, fresh), power

    @settings(max_examples=30, deadline=None)
    @given(record=schedule_record())
    def test_grid_tables(self, record):
        # the grid reference sums each power's cached logs as
        # reference_log_likelihood(subset, _grid()) does
        for subset in with_singles(record):
            assert np.array_equal(_table_scores(subset), reference_grid_log_likelihood(subset))

    @settings(max_examples=30, deadline=None)
    @given(record=schedule_record())
    def test_tables_score_as_the_kernel(self, record):
        # one formula: a table score at grid index i is the kernel's value at
        # grid[i], so the scan's best value needs no second evaluation
        powers, weights = _likelihood_columns([record])
        want = _log_likelihoods(_multipliers(powers), weights, _grid())
        assert np.array_equal(_table_scores(record), want)
        (index,), (best,) = _bounded_scan(powers, weights)
        assert best == log_likelihood(record, float(_grid()[index]))

    @pytest.mark.parametrize("power", [0, 3, 2**17])
    def test_table_padding_and_maxima(self, power):
        # whole blocks of whole sub-blocks cover the grid: no pad points
        assert _BLOCKS * _BLOCK_POINTS == GRID_POINTS
        assert _BLOCK_POINTS % _SUB_POINTS == 0
        table = _log_tables(power)
        assert table.shape == (2, GRID_POINTS)
        assert np.array_equal(table, np.stack(_reference_logs(power, _grid())))
        # a schedule's entry holds the cached tables themselves, and their
        # maxima stacked in schedule order: rows 2j and 2j + 1 are power j's
        powers = (1, power)
        tables, block_maxima, sub_maxima = _maxima(powers)
        assert sub_maxima.shape == (4, GRID_POINTS // _SUB_POINTS)
        assert block_maxima.shape == (4, _BLOCKS)
        for j, own in enumerate(powers):
            assert tables[j] is _log_tables(own)
            rows = slice(2 * j, 2 * j + 2)
            assert np.array_equal(sub_maxima[rows],
                                  tables[j].reshape(2, -1, _SUB_POINTS).max(axis=2))
            assert np.array_equal(block_maxima[rows],
                                  tables[j].reshape(2, _BLOCKS, _BLOCK_POINTS).max(axis=2))
        assert not any(part.flags.writeable for part in (table, sub_maxima, block_maxima))

    @settings(max_examples=100, deadline=None)
    @given(record=schedule_record(), seed=st.integers(0, 2**32 - 1))
    def test_scalar_angles(self, record, seed):
        # many angles per example: a wrong rounding shows in ~0.1% of terms
        angles = [0.0, math.pi / 2]
        angles += [float(t) for t in np.random.default_rng(seed).uniform(0.0, math.pi / 2, 32)]
        for subset in with_singles(record):
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

    @pytest.mark.parametrize("columns", [2, 3, 7, 30, 512])
    def test_reduce_adds_down_two_or_more_columns_in_order(self, columns):
        # the kernel's row sum at a batch of two or more: (2R, B) weighted terms
        rng = np.random.default_rng(columns)
        for rows in range(1, 39):
            terms = rng.normal(size=(rows, columns)) * 10.0 ** rng.integers(-12, 13,
                                                                          size=(rows, columns))
            assert np.array_equal(np.add.reduce(terms, axis=0), np.add.accumulate(terms)[-1])

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


def peak_record(powers, shots, index):
    """A record of ``powers`` whose hits round the expected counts at the
    grid angle ``index``, so that its likelihood peaks near it."""
    theta = float(_grid()[index])
    return MeasurementRecord(
        powers, shots, [round(shots * math.sin((2 * p + 1) * theta) ** 2) for p in powers])


@st.composite
def record_batches(draw):
    """1-40 records of one powers tuple of length 1-9, EIS, LIS or other
    increasing powers; each record draws one shot count, and hits at random
    with 0 and N drawn often, all misses, all hits, or around a peak drawn
    often from the last grid block."""
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
        shots = draw(counts)
        kind = draw(st.sampled_from(("random", "misses", "hits", "peak")))
        if kind == "peak":
            index = draw(st.one_of(st.integers((_BLOCKS - 1) * _BLOCK_POINTS, GRID_POINTS - 1),
                                   st.integers(0, GRID_POINTS - 1)))
            batch.append(peak_record(powers, shots, index))
        else:
            hits = {"random": st.one_of(st.just(0), st.just(shots), st.integers(0, shots)),
                    "misses": st.just(0), "hits": st.just(shots)}[kind]
            batch.append(MeasurementRecord(powers, shots, [draw(hits) for _ in powers]))
    return batch


def grid_argmaxes(batch):
    """The bounded scan's grid index of each record of ``batch``."""
    powers, weights = _likelihood_columns(batch)
    return _bounded_scan(powers, weights)[0].tolist()


class Compared(float):
    """A value sent to the golden section that notes when it is compared."""

    read = False

    def __lt__(self, other):
        self.read = other.read = True
        return float(self) < float(other)


def golden_steps(lo, hi, f=None):
    """Points the golden-section refine asks for on [lo, hi] before it is
    done, each sent f there (by default a peak at lo).  It must compare
    every value it is sent, then yield its maximizer for good."""
    if f is None:
        def f(theta):
            return -abs(theta - lo)
    done = []
    refine = _golden_max(lo, hi, done)
    point, sent = next(refine), []
    while not done:
        sent.append(Compared(f(point)))
        point = refine.send(sent[-1])
    assert all(value.read for value in sent)
    assert done == [point] and refine.send(0.0) == refine.send(1.0) == point
    return len(sent)


@st.composite
def one_angle_cases(draw):
    """A record of an EIS or LIS schedule to depth 18 and an angle.  Shots
    run to 2**63 - 1; hits are 0, N or any count, or each power's float
    expectation at a drawn angle; the angle is 0, pi/2, a grid point or any
    in between."""
    powers = make_schedule(draw(st.sampled_from(("eis", "lis"))), draw(st.integers(0, 18)))
    shots = draw(st.one_of(st.integers(1, 4096), st.integers(2**53 - 2, 2**53 + 2),
                           st.integers(1, 2**63 - 1), st.just(2**63 - 1)))
    counts = st.one_of(st.just(0), st.just(shots), st.integers(0, shots))
    if draw(st.booleans()):
        hits = [draw(counts) for _ in powers]
    else:
        truth = draw(st.floats(0.0, math.pi / 2))
        # float(shots) may round above shots
        hits = [min(shots * math.sin((2 * p + 1) * truth) ** 2, shots) for p in powers]
    theta = draw(st.one_of(
        st.sampled_from((0.0, math.pi / 2)),
        st.integers(0, GRID_POINTS - 1).map(lambda i: float(_grid()[i])),
        st.floats(0.0, math.pi / 2),
    ))
    return MeasurementRecord(powers, shots, hits), theta


class TestOneAngle:
    """The kernel's one-run path, in Python floats, rounds as its array path
    and as the scalar loop in ``verify`` do."""

    @settings(max_examples=300, deadline=None)
    @given(case=one_angle_cases(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_array_path_and_the_scalar_loop(self, case, seed):
        record, theta = case
        # more angles, and each power alone: a last-bit slip in one term
        # mostly rounds away in a sum
        angles = [theta] + np.random.default_rng(seed).uniform(0.0, math.pi / 2, 16).tolist()
        for subset in with_singles(record):
            powers, weights = _likelihood_columns([subset])
            multipliers = _multipliers(powers)
            lists = multipliers.ravel().tolist(), weights.ravel().tolist()
            alone = [_log_likelihood_at(*lists, t).hex() for t in angles]
            # a batch of the record at every angle takes the array path
            batch = _likelihood_columns([subset] * len(angles))[1]
            columns = [v.hex() for v in _log_likelihoods(multipliers, batch, angles)]
            want = [reference_scalar_log_likelihood(subset, t).hex() for t in angles]
            assert alone == columns == want
            assert log_likelihood(subset, theta).hex() == want[0]

    @settings(max_examples=30, deadline=None)
    @given(case=one_angle_cases())
    def test_a_batch_of_one_maximizes_as_a_batch_of_two(self, case):
        record, _ = case
        assert maximize_likelihoods([record])[0] == maximize_likelihoods([record, record])[0]

    def test_a_records_column_ignores_the_other_records_hit_types(self):
        # past 2**53 shots an integer count beside float ones in one array
        # would be rounded before its misses are taken
        shots = 2**53 + 1
        ints = MeasurementRecord((0, 1), shots, (2, 3))
        floats = MeasurementRecord((0, 1), shots, (2.0, 3.0))
        alone = _likelihood_columns([ints])[1]
        assert alone[:, 0].tolist() == [2.0, 2**53 - 1, 3.0, 2**53 - 2]
        assert np.array_equal(_likelihood_columns([ints, floats])[1][:, :1], alone)


@st.composite
def lone_records(draw):
    """A record of an EIS or LIS schedule of depth 0-12: hits at random with
    0 and N drawn often, all misses, all hits, or each power's float
    expectation at an amplitude a, with a = 0 and a = 1 drawn often."""
    powers = make_schedule(draw(st.sampled_from(("eis", "lis"))), draw(st.integers(0, 12)))
    shots = draw(st.one_of(st.integers(1, 3), st.integers(1, 4096), st.integers(1, 2**63 - 1)))
    kind = draw(st.sampled_from(("random", "misses", "hits", "expected")))
    if kind == "expected":
        theta = math.asin(math.sqrt(draw(st.one_of(st.sampled_from((0.0, 1.0)),
                                                   st.floats(0.0, 1.0)))))
        # float(shots) may round above shots
        hits = [min(shots * math.sin((2 * p + 1) * theta) ** 2, shots) for p in powers]
    else:
        counts = {"random": st.one_of(st.just(0), st.just(shots), st.integers(0, shots)),
                  "misses": st.just(0), "hits": st.just(shots)}[kind]
        hits = [draw(counts) for _ in powers]
    return MeasurementRecord(powers, shots, hits)


class TestLoneRecord:
    """A chunk of one record takes its own scan and the one-run kernel into
    the pipeline a batch takes, bit for bit the batched results and the
    scalar reference in ``verify``."""

    @settings(max_examples=30, deadline=None)
    @given(batch=record_batches())
    # all hits at power 4 peak on five grid points at once: 9 divides 99999
    @example(batch=[MeasurementRecord((4,), 16, (16,)), MeasurementRecord((4,), 3, (0,))])
    def test_lone_scan_matches_the_batched_scan(self, batch):
        powers, weights = _likelihood_columns(batch)
        indices, values = _bounded_scan(powers, weights)
        for b in range(len(batch)):
            index, value = _lone_scan(powers, weights[:, b:b + 1])
            assert (index, value.hex()) == (int(indices[b]), float(values[b]).hex())

    @settings(max_examples=40, deadline=None)
    @given(record=lone_records())
    @example(record=MeasurementRecord(make_schedule("eis", 12), 16, [16] * 13))
    @example(record=MeasurementRecord(make_schedule("lis", 12), 16, [0] * 13))
    def test_lone_maximize_matches_a_batch_of_two_and_the_reference(self, record):
        def hexes(result):
            return tuple(value.hex() for value in result)

        # each power alone too: all hits or all misses at powers 1 and 4
        # tie on several grid points, and near 0 or pi/2 on a float-flat stretch
        for subset in with_singles(record):
            (alone,) = maximize_likelihoods([subset])
            assert isinstance(alone[0], float) and isinstance(alone[1], float)
            want = hexes(reference_maximize_likelihood(subset))
            assert hexes(alone) == hexes(maximize_likelihoods([subset, subset])[0]) == want
            assert maximize_likelihood(subset).hex() == want[0]

    def test_a_chunk_of_any_width_refines_in_one_lockstep(self, monkeypatch):
        # the width picks the scan and the kernel; what follows is one pipeline
        calls = []
        monkeypatch.setattr(mlqae_mod, "_lockstep",
                            lambda *args: calls.append(1) or _lockstep(*args))
        batch = [MeasurementRecord((0, 1, 2), 64, (40, 9, 30)),
                 MeasurementRecord((0, 1, 2), 16, (0, 0, 0))]
        for records in (batch[:1], batch):
            calls.clear()
            assert maximize_likelihoods(records) == [reference_maximize_likelihood(r)
                                                     for r in records]
            assert len(calls) == 1

    def test_a_last_chunk_of_one_takes_the_lone_path(self, monkeypatch):
        records = [MeasurementRecord((0, 1, 2), 64, (h % 65, 64 - h % 65, 30))
                   for h in range(_CHUNK + 1)]
        want = maximize_likelihoods(records)
        lone = []
        monkeypatch.setattr(mlqae_mod, "_lone_scan",
                            lambda *args: lone.append(1) or _lone_scan(*args))
        assert maximize_likelihoods(records) == want
        assert len(lone) == 1


class TestLockstep:
    """The lockstep maximizer equals the scalar one in ``verify`` bit for bit,
    in the angle and in the log-likelihood there."""

    @settings(max_examples=20, deadline=None)
    @given(batch=record_batches(), seed=st.integers(0, 2**32 - 1))
    def test_kernel_columns_match_scalar_loop(self, batch, seed):
        # the array path takes two or more columns; a lone run is scored by
        # _log_likelihood_at (TestOneAngle)
        batch = batch if len(batch) > 1 else batch * 2
        powers, weights = _likelihood_columns(batch)
        thetas = np.random.default_rng(seed).uniform(0.0, math.pi / 2, len(batch)).tolist()
        thetas[0] = 0.0
        thetas[-1] = math.pi / 2
        got = _log_likelihoods(_multipliers(powers), weights, thetas)
        assert got == [reference_scalar_log_likelihood(record, theta)
                       for record, theta in zip(batch, thetas)]

    @settings(max_examples=30, deadline=None)
    @given(batch=record_batches())
    def test_matches_scalar_refine(self, batch):
        assert maximize_likelihoods(batch) == [reference_maximize_likelihood(r) for r in batch]

    def test_rows_stop_after_different_step_counts(self):
        # brackets one grid step wide at both ends of the grid, between inner ones
        batch = [
            MeasurementRecord((0, 1, 2), 16, (0, 0, 0)),
            MeasurementRecord((0, 1, 2), 16, (4, 4, 4)),
            MeasurementRecord((0, 1, 2), 16, (16, 16, 16)),
            MeasurementRecord((0, 1, 2), 64, (40, 9, 30)),
        ]
        assert grid_argmaxes(batch)[::2] == [0, GRID_POINTS - 1]
        grid = _grid()
        edge = golden_steps(float(grid[0]), float(grid[1]))
        inner = golden_steps(float(grid[0]), float(grid[2]))
        assert edge < inner
        assert maximize_likelihoods(batch) == [reference_maximize_likelihood(r) for r in batch]

    def test_the_refine_asks_for_no_value_it_never_compares(self, monkeypatch):
        # a 30-set cell as tables 2-4 run it, then some of its sets alone
        records = [report.record for report in run_mlqae_cell(
            OracleSpec(10, 128), 4, 100, rngs=[np.random.default_rng(seed) for seed in range(30)])]
        powers, weights = _likelihood_columns(records)
        multipliers = _multipliers(powers).ravel().tolist()
        grid = _grid()
        steps = [
            golden_steps(float(grid[max(index - 1, 0)]),
                         float(grid[min(index + 1, GRID_POINTS - 1)]),
                         functools.partial(_log_likelihood_at, multipliers, weights[:, b].tolist()))
            for b, index in enumerate(grid_argmaxes(records))
        ]
        calls = []
        for name in ("_log_likelihoods", "_log_likelihood_at"):
            kernel = getattr(mlqae_mod, name)
            monkeypatch.setattr(mlqae_mod, name, functools.partial(
                lambda kernel, name, *args: calls.append(name) or kernel(*args), kernel, name))
        # one kernel call per step of the longest refine, then one on the
        # results: 29, where a refine that asked for its last point unread made 30
        want = maximize_likelihoods(records)
        assert calls == ["_log_likelihoods"] * (max(steps) + 1)
        assert len(calls) == 29
        for record, (theta, value), count in zip(records[:4], want, steps):
            calls.clear()
            assert maximize_likelihoods([record]) == [(theta, value)]
            assert calls == ["_log_likelihood_at"] * (count + 1)

    def test_value_is_the_likelihood_at_the_angle(self):
        batch = [MeasurementRecord((0, 1, 2, 4), 100, hits)
                 for hits in ((12, 60, 98, 3), (0, 0, 0, 0), (50, 50, 50, 50))]
        for record, (theta, value) in zip(batch, maximize_likelihoods(batch)):
            assert theta == maximize_likelihood(record)
            assert value == log_likelihood(record, theta)

    def test_batch_validation(self):
        assert maximize_likelihoods([]) == []
        # a record of no powers is refused when it is built
        with pytest.raises(ValueError, match="at least one"):
            MeasurementRecord((), 16, ())
        message = "^record sets of one batch must have the same powers$"
        with pytest.raises(ValueError, match=message):
            maximize_likelihoods([MeasurementRecord((0,), 16, (3,)),
                                  MeasurementRecord((0, 1), 16, (3, 3))])
        # the same length, different powers
        with pytest.raises(ValueError, match=message):
            maximize_likelihoods([MeasurementRecord((0, 1), 16, (3, 3)),
                                  MeasurementRecord((0, 2), 16, (3, 3))])


class TestMaximize:
    @settings(max_examples=30, deadline=None)
    @given(record=schedule_record())
    @example(record=MeasurementRecord((0,), 16, (16,)))  # float-flat near pi/2
    @example(record=MeasurementRecord((0,), 16, (0,)))  # float-flat near 0
    def test_bounded_scan_matches_full_argmax(self, record):
        # the record, then each power alone, a batch of one each
        for subset in with_singles(record):
            want = int(np.argmax(reference_grid_log_likelihood(subset)))
            assert grid_argmaxes([subset]) == [want]

    @settings(max_examples=30, deadline=None)
    @given(batch=record_batches())
    def test_batched_scan_matches_full_argmax(self, batch):
        want = [int(np.argmax(reference_grid_log_likelihood(r))) for r in batch]
        assert grid_argmaxes(batch) == want
        # a set's index does not depend on its batchmates
        assert [grid_argmaxes([record])[0] for record in batch] == want

    def test_reach_below_the_top_blocks_maximum(self):
        # found by seeded searches: table 2's 16-shot cell, repetition 19 at
        # seed 1729 + 2, whose best-bound block holds its maximum outside its
        # best-bound sub-block; and EIS depth 18 at a = 1/8 (n = 20), 100
        # shots, np.random.default_rng(34), outside its two best-bound ones
        sets = [
            MeasurementRecord((0, 1, 2, 4), 16, (3, 14, 15, 0)),
            MeasurementRecord(
                make_schedule("eis", 18), 100,
                (5, 73, 96, 1, 2, 33, 96, 29, 98, 0, 13, 70, 56, 98, 71, 74, 100, 10, 71)),
        ]
        for record, missed in zip(sets, (1, 2)):
            values = reference_grid_log_likelihood(record)
            powers, weights = _likelihood_columns([record])
            _, block_maxima, sub_maxima = _maxima(powers)
            top = int(_scores(weights, (block_maxima,), _BLOCKS, [0], [0]).argmax())
            sub_bounds = _scores(weights, (sub_maxima,), _SUBS, [0], [top])[0]
            block = values[top * _BLOCK_POINTS:(top + 1) * _BLOCK_POINTS]
            holder = int(block.reshape(_SUBS, _SUB_POINTS).max(axis=1).argmax())
            # so many sub-blocks bound above the one holding the block's maximum
            assert (sub_bounds > sub_bounds[holder]).sum() >= missed
            index, best = _bounded_scan(powers, weights)
            assert index.tolist() == [int(np.argmax(values))]
            assert best.tolist() == [float(values.max())]

    def test_batched_scan_edges(self):
        # all misses, all hits, peaks inside the last block (grid indices
        # 99600-99999) and elsewhere, in one batch per schedule of 5
        schedules = [(0, 1, 2, 4, 8), (0, 1, 2, 3, 4), (0, 2, 3, 7, 11)]
        targets = [99_840, 99_871, 99_950, 99_998, 12_345, 50_000, 0, GRID_POINTS - 1]
        last_block = []
        for powers in schedules:
            batch = [MeasurementRecord(powers, 64, [0] * len(powers)),
                     MeasurementRecord(powers, 64, [64] * len(powers))]
            batch += [peak_record(powers, 4096, target) for target in targets]
            want = [int(np.argmax(reference_grid_log_likelihood(r))) for r in batch]
            assert want[:2] == [0, GRID_POINTS - 1]
            last_block += [w for w in want if w >= (_BLOCKS - 1) * _BLOCK_POINTS]
            assert grid_argmaxes(batch) == want
            assert grid_argmaxes(batch[::-1]) == want[::-1]
        assert len(last_block) >= 9 and min(last_block) < GRID_POINTS - 1

    def test_all_misses_gives_zero(self):
        assert maximize_likelihood(MeasurementRecord((0,), 16, (0,))) == 0.0

    def test_all_hits_gives_right_angle(self):
        # the likelihood is float-flat on [pi/2 - 1e-8, pi/2]; anywhere there is a maximizer
        theta = maximize_likelihood(MeasurementRecord((0,), 16, (16,)))
        assert theta == pytest.approx(math.pi / 2, abs=2e-8)
        assert math.sin(theta) ** 2 == 1.0

    def test_single_record_quarter(self):
        theta = maximize_likelihood(MeasurementRecord((0,), 100, (25,)))
        assert theta == pytest.approx(math.pi / 6, abs=1e-6)

    def test_consistency_on_exact_records(self):
        theta = maximize_likelihood(exact_record(THETA_EIGHTH, 4, 4096))
        assert abs(math.sin(theta) ** 2 - 0.125) < 1e-4

    def test_never_below_coarse_grid(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            rec = MeasurementRecord((0, 1, 2, 4), 64, [int(rng.integers(0, 65)) for _ in range(4)])
            theta = maximize_likelihood(rec)
            assert log_likelihood(rec, theta) >= float(
                np.max(reference_log_likelihood(rec, _grid()))
            )

    def test_requires_records(self):
        # a maximizer needs a power to score: a record of none is refused
        with pytest.raises(ValueError):
            MeasurementRecord((), 16, ())

    def test_chunks_bound_the_transient_memory(self):
        # three chunks and a partial one of EIS depth 4 records: unchunked,
        # the scan's gathers would peak near 50 MiB here, one chunk near 14 MiB
        oracle = OracleSpec(10, 128)
        sets = [report.record for report in run_mlqae_cell(
            oracle, 4, 100, rngs=[np.random.default_rng(seed) for seed in range(32)])]
        batch = sets * (7 * _CHUNK // 64)
        want = maximize_likelihoods(sets)
        tracemalloc.start()
        try:
            got = maximize_likelihoods(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(batch) == 3 * _CHUNK + _CHUNK // 2
        assert peak < 24 * 2**20
        # a record's result does not depend on its batch or its chunk
        assert got == want * (len(batch) // len(sets))

    def test_pieces_bound_the_transient_memory_at_depth(self):
        # EIS depth 18, where about 165 sub-blocks per set are scored:
        # gathered in one piece, 64 sets' sub-blocks would peak near 81 MiB
        rngs = [np.random.default_rng(seed) for seed in range(64)]
        sets = [report.record
                for report in run_mlqae_cell(OracleSpec(20, 2**17), 18, 100, rngs=rngs)]
        tracemalloc.start()
        try:
            maximize_likelihoods(sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("piece_bytes", [1, 3000])
    def test_pieces_do_not_change_a_result(self, monkeypatch, piece_bytes):
        # one node or set per piece, or a few, against the default pieces
        sets = [report.record for report in run_mlqae_cell(
            OracleSpec(10, 128), 6, 64, rngs=[np.random.default_rng(seed) for seed in range(20)])]
        sets += [MeasurementRecord(sets[0].powers, 64, [hits] * 7) for hits in (0, 64)]
        want = maximize_likelihoods(sets)
        monkeypatch.setattr(mlqae_mod, "_PIECE_BYTES", piece_bytes)
        assert maximize_likelihoods(sets) == want

    def test_a_tables_cell_takes_one_piece_per_stage(self, monkeypatch):
        pieces = []
        monkeypatch.setattr(mlqae_mod, "_pieces",
                            lambda *args: pieces.append(_pieces(*args)) or pieces[-1])
        for table in (2, 3, 4):
            for _, config in table_configs(table):
                run_sweep(config)
        assert pieces and all(len(stage) == 1 for stage in pieces)

    def test_tables_2_to_4_cache_each_array_once(self):
        # two schedules, EIS depths 3 and 4, of five distinct powers: one
        # table per power, and one scan entry per schedule holding those tables
        _log_tables.cache_clear()
        _maxima.cache_clear()
        for table in (2, 3, 4):
            for _, config in table_configs(table):
                run_sweep(config)
        assert _log_tables.cache_info().currsize == _log_tables.cache_info().misses == 5
        assert _maxima.cache_info().currsize == _maxima.cache_info().misses == 2
        for depth in (3, 4):
            powers = make_schedule("eis", depth)
            assert all(table is _log_tables(power)
                       for table, power in zip(_maxima(powers)[0], powers))
        assert _log_tables.cache_info().misses == 5 and _maxima.cache_info().misses == 2

    def test_deep_schedule_tables_stay_cached(self):
        # LIS depth 40 uses 41 powers, more than a 32-entry cache holds
        rec = MeasurementRecord(make_schedule("lis", 40), 100, [12] * 41)
        maximize_likelihood(rec)
        misses = _log_tables.cache_info().misses
        maximize_likelihood(rec)
        assert _log_tables.cache_info().misses == misses


class TestRunMlqaeCell:
    @staticmethod
    def logged(backend_class):
        """A ``backend_class`` instance that logs the power of every call."""

        class Logged(backend_class):
            def __init__(self):
                super().__init__()
                self.calls = []

            def flag_probability(self, oracle, m):
                self.calls.append(m)
                return super().flag_probability(oracle, m)

        return Logged()

    @pytest.mark.parametrize("backend_class", [AnalyticBackend, StatevectorBackend])
    def test_backend_is_asked_once_per_power(self, backend_class):
        oracle, powers = OracleSpec(10, 128), make_schedule("eis", 3)
        backend = self.logged(backend_class)
        reports = run_mlqae_cell(oracle, 3, 16, backend=backend,
                                 rngs=[np.random.default_rng(r) for r in range(4)])
        assert backend.calls == list(powers)
        for r, report in enumerate(reports):
            alone = run_mlqae(oracle, 3, 16, backend=backend_class(), rng=np.random.default_rng(r))
            assert report.record == alone.record
            # the draws of run after run, one measure_flag per power
            rng = np.random.default_rng(r)
            assert list(report.record.hits) == [
                measure_flag(backend_class(), oracle, power, 16, rng) for power in powers]

    def test_no_generators(self):
        backend = self.logged(AnalyticBackend)
        assert run_mlqae_cell(OracleSpec(10, 128), 3, 16, backend=backend, rngs=[]) == []
        assert backend.calls == []
        # the shot count is checked with no generator to draw, as with one
        for rngs in ([], [np.random.default_rng(0)]):
            with pytest.raises(ValueError, match=r"^shots must be positive, got 0$"):
                run_mlqae_cell(OracleSpec(10, 128), 3, 0, rngs=rngs)

    def test_reports_are_tuples_of_checked_records(self):
        oracle, powers = OracleSpec(10, 128), make_schedule("eis", 4)
        reports = run_mlqae_cell(oracle, 4, 100,
                                 rngs=[np.random.default_rng(seed) for seed in range(5)])
        reports.append(run_mlqae(oracle, 4, 100, rng=np.random.default_rng(5)))
        for report in reports:
            record = report.record
            assert type(record.powers) is tuple and type(record.hits) is tuple
            assert all(type(hits) is int for hits in record.hits)
            checked = MeasurementRecord(powers, 100, list(record.hits))
            assert record == checked and hash(record) == hash(checked)
            theta_hat, a_hat, calls, unpacked, value = report
            assert report == (theta_hat, a_hat, calls, unpacked, value)
            assert (theta_hat, a_hat, calls, unpacked, value) == (
                report.theta_hat, report.a_hat, report.oracle_calls, record,
                report.log_likelihood_at_max)

    def test_one_shot_iterator_of_generators(self):
        oracle = OracleSpec(10, 128)
        cell = run_mlqae_cell(oracle, 4, 100, rngs=derive_rngs(1731, "mlqae", 100, 5))
        assert cell == run_mlqae_cell(oracle, 4, 100,
                                      rngs=list(derive_rngs(1731, "mlqae", 100, 5)))
        assert len(cell) == 5


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
        assert report.record.powers == (0, 1, 2, 4, 8)
        assert report.record.shots == 64
        assert len(report.record.hits) == 5
        assert all(0 <= hits <= 64 for hits in report.record.hits)
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

    def test_statevector_beyond_the_work_budget_is_refused(self, monkeypatch):
        def no_iterate(*args):  # fail here, not after hours of iterates
            raise AssertionError("the refused run reached an iterate")

        monkeypatch.setattr(core_mod, "_iterate", no_iterate)
        with pytest.raises(ValueError, match=r"^n=4 needs up to 549755813888 iterates, "
                                             r".* statevector budget of 2\*\*37$"):
            run_mlqae(OracleSpec(4, 4), 40, 16, backend=StatevectorBackend(),
                      rng=np.random.default_rng(0))

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
