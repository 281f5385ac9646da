"""Tests for the benchmark harness: seed derivation, sweeps, serialization,
and the reference tables, run as ``qaelab reproduce`` runs them."""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qaelab.bench as bench_mod
import qaelab.iqae as iqae_mod
from qaelab import cli
from qaelab.bench import (
    CSV_HEADER,
    DEFAULT_SEED_BASE,
    SHOTS_LADDER,
    ExperimentConfig,
    SummaryRow,
    derive_rng,
    derive_rngs,
    emit_csv,
    run_sweep,
    summarize,
    table_configs,
)
from qaelab.core import _ITERATE_OVERHEAD, _WORK_BUDGET, make_backend
from qaelab.iqae import run_iqae
from qaelab.mci import MciConfig, run_mci
from qaelab.mlqae import run_mlqae

from digest import assert_sha256


class TestSummarize:
    def test_order_is_max_mean_min_std(self):
        assert summarize([1, 2, 3]) == (3.0, 2.0, 1.0, 0.816496580927726)

    def test_population_std_of_amplitude_like_values(self):
        got = summarize([0.123, 0.125, 0.127])
        assert got[:3] == (0.127, 0.125, 0.123)
        assert got[3] == pytest.approx(0.0016329931618554536, abs=1e-18)

    def test_singleton(self):
        assert summarize([5]) == (5.0, 5.0, 5.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                             -2.225073858507201e-308, 1e308, -1e308, math.inf, -math.inf,
                             math.nan]),
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        ),
        min_size=1, max_size=4,
    ), stacked=st.booleans())
    def test_one_value_rows_match_numpy(self, values, stacked):
        arr = np.array(values)[:, None] if stacked else np.array(values[:1])
        with np.errstate(invalid="ignore"):
            want = np.stack([arr.max(-1), arr.mean(-1), arr.min(-1), arr.std(-1)], axis=-1)
        assert [v.hex() for v in summarize(arr)] == [v.hex() for v in want.ravel().tolist()]


class TestDeriveRng:
    def test_same_coordinates_same_stream(self):
        a = derive_rng(7, "mlqae", 64, 3).random(5)
        b = derive_rng(7, "mlqae", 64, 3).random(5)
        assert np.array_equal(a, b)

    def test_each_coordinate_separates_streams(self):
        base = derive_rng(7, "mlqae", 64, 3).random(5)
        for other in (
            derive_rng(8, "mlqae", 64, 3),
            derive_rng(7, "iqae", 64, 3),
            derive_rng(7, "mci", 64, 3),
            derive_rng(7, "mlqae", 65, 3),
            derive_rng(7, "mlqae", 64, 4),
        ):
            assert not np.array_equal(base, other.random(5))

    def test_unknown_algorithm(self):
        for derive in (derive_rng, derive_rngs):
            with pytest.raises(ValueError, match="unknown algorithm 'qpe'"):
                derive(0, "qpe", 64, 1)


def assert_same_streams(base_seed, algorithm, shots, repetitions, reps=None):
    """derive_rngs yields ``repetitions`` generators, each with derive_rng's
    PCG64 state and first draws (at the repetitions ``reps``, default all)."""
    reps = range(repetitions) if reps is None else set(reps)
    count = 0
    for rep, rng in enumerate(derive_rngs(base_seed, algorithm, shots, repetitions)):
        count += 1
        if rep in reps:
            want = derive_rng(base_seed, algorithm, shots, rep)
            assert rng.bit_generator.state == want.bit_generator.state, rep
            assert np.array_equal(rng.random(4), want.random(4)), rep
            assert rng.binomial(16384, 0.125) == want.binomial(16384, 0.125), rep
    assert count == repetitions


class TestDeriveRngs:
    """The batched SeedSequence hash against numpy's own, one per repetition."""

    @given(
        base_seed=st.one_of(
            st.just(0),
            st.integers(0, 2**32 - 1),
            st.integers(2**32, 2**64 - 1),
            st.integers(2**64, 2**160),
        ),
        algorithm=st.sampled_from(["mlqae", "iqae", "mci"]),
        shots=st.one_of(st.integers(1, 2**32 - 1), st.integers(2**32, 2**96)),
        repetitions=st.integers(1, 64),
    )
    @settings(max_examples=150, deadline=None)
    @example(0, "mci", 1, 1)
    @example(2**32, "mlqae", 2**32, 64)
    @example(2**64, "iqae", 2**64 - 1, 33)
    # the last cell seeded by derive_rng itself and the first batched one
    @example(2**32 + 1, "mlqae", 16, bench_mod._BATCHED_FROM - 1)
    @example(2**32 + 1, "mlqae", 16, bench_mod._BATCHED_FROM)
    def test_same_generators_as_derive_rng(self, base_seed, algorithm, shots, repetitions):
        assert_same_streams(base_seed, algorithm, shots, repetitions)

    def test_a_table_1_cell(self):
        # 10^4 repetitions in one batch, checked at a sample of them
        config = table_configs(1)[0][1]
        sample = list(range(0, 10_000, 97)) + [9_998, 9_999]
        assert_same_streams(config.base_seed, "mci", 16384, 10_000, sample)

    def test_batch_boundary(self):
        first = bench_mod._BATCH
        # no batch straddles a multiple of 2**32, where r gains a word
        assert (1 << 32) % first == 0
        assert_same_streams(1729, "iqae", 1024, first + 3, [0, first - 1, first, first + 2])

    @pytest.mark.parametrize("first", [2**32, 2**32 + 5 * 2**14, 2**64 + 2**14])
    def test_repetitions_past_32_bits(self, first):
        head = bench_mod._words(2**40 + 7) + [3] + bench_mod._words(16)
        got = bench_mod._batch_seeds(head, first, 5)
        for offset, seed in enumerate(got):
            entropy = [2**40 + 7, 3, 16, first + offset]
            want = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
            assert np.array_equal(seed, want)

    @pytest.mark.parametrize("first", [0, 7, bench_mod._BATCH])
    def test_a_batch_of_one(self, first):
        # a cell of 2**14 + 1 repetitions ends in one, though small cells
        # are seeded by derive_rng
        head = bench_mod._words(1729) + [1] + bench_mod._words(1024)
        (got,) = bench_mod._batch_seeds(head, first, 1)
        want = np.random.SeedSequence([1729, 1, 1024, first]).generate_state(4, np.uint64)
        assert np.array_equal(got, want)

    def test_generators_are_built_as_iterated(self):
        # a trillion repetitions: only the first batch is ever seeded
        rngs = derive_rngs(5, "mci", 64, 10**12)
        first = next(rngs)
        assert first.bit_generator.state == derive_rng(5, "mci", 64, 0).bit_generator.state

    def test_the_preset_seed_serves_pcg64_only(self):
        # the smallest cell that the batched hash seeds
        seed = next(derive_rngs(5, "mci", 64, bench_mod._BATCHED_FROM)).bit_generator.seed_seq
        with pytest.raises(ValueError):
            seed.generate_state(8)

    @pytest.mark.parametrize("repetitions", [bench_mod._BATCHED_FROM - 1,
                                             bench_mod._BATCHED_FROM, 10**4])
    def test_spawned_children_draw_as_derive_rngs(self, repetitions):
        rngs = list(derive_rngs(1, "mlqae", 16, repetitions))
        for r in (0, repetitions - 1):
            got, want = rngs[r], derive_rng(1, "mlqae", 16, r)
            # a second spawn continues the first one's children
            for n_children in (2, 1):
                assert [child.integers(2**63, size=3).tolist()
                        for child in got.spawn(n_children)] == \
                    [child.integers(2**63, size=3).tolist() for child in want.spawn(n_children)]
            assert got.integers(2**63, size=3).tolist() == want.integers(2**63, size=3).tolist()

    @pytest.mark.parametrize("args", [
        (-1, "mci", 64),
        (0, "mci", -64),
    ])
    def test_negative_words_raise_as_in_derive_rng(self, args):
        # raised at the call, not at the first next()
        for derive in (derive_rng, derive_rngs):
            with pytest.raises(ValueError, match="expected non-negative integer"):
                derive(*args, 3)

    def test_negative_repetitions_raise_as_in_derive_rng(self):
        for derive in (derive_rng, derive_rngs):
            with pytest.raises(ValueError, match="expected non-negative integer"):
                derive(0, "mci", 16, -1)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig("mlqae")
        assert cfg.qubits == 10
        assert cfg.a_true == 0.125
        assert cfg.shots_list == SHOTS_LADDER
        assert cfg.repetitions == 30
        assert cfg.backend == "analytic"

    def test_oracle_construction(self):
        oracle = ExperimentConfig("iqae", qubits=6, a_true=0.25).oracle()
        assert oracle.n == 6
        assert oracle.good_count == 16
        assert oracle.a == 0.25

    def test_shots_list_coerced_to_int_tuple(self):
        cfg = ExperimentConfig("mci", shots_list=[16, 32])
        assert cfg.shots_list == (16, 32)
        assert all(isinstance(s, int) for s in cfg.shots_list)

    def test_statevector_numpy_cannot_index_blames_qubits(self):
        for algorithm in ("mlqae", "iqae"):
            with pytest.raises(ValueError, match=r"^qubits: n=200 needs a statevector"):
                ExperimentConfig(algorithm, qubits=200, backend="sv")
        assert ExperimentConfig("mlqae", qubits=200).qubits == 200

    def test_unrepresentable_amplitude_rejected_for_estimators(self):
        with pytest.raises(ValueError, match="not representable"):
            ExperimentConfig("mlqae", qubits=4, a_true=0.1)
        with pytest.raises(ValueError, match="not representable"):
            ExperimentConfig("iqae", qubits=4, a_true=0.1)

    def test_deepest_mlqae_cell_whose_calls_a_float_holds(self):
        # 16 * (2**1019 + 1017) calls: the largest EIS depth at 16 shots whose
        # count is a finite float.  Constructed only: a run builds 1019 grid
        # tables, about 1.7 GB
        cfg = ExperimentConfig("mlqae", qubits=4, a_true=0.25, shots_list=(16,),
                               repetitions=1, depth=1018)
        assert cfg.depth == 1018
        with pytest.raises(ValueError, match=r"^depth 1019 at 16 shots and 1 rep"):
            dataclasses.replace(cfg, depth=1019)

    def test_statevector_work_boundary_in_depth(self):
        # at n = 12 an iterate is 2**12 + 2**12 = 2**13 updates, so EIS depth
        # 25 (top power 2**24) needs the budget, 2**37, and depth 26 twice it
        assert _ITERATE_OVERHEAD == 1 << 12 and _WORK_BUDGET == 1 << 37
        cfg = ExperimentConfig("mlqae", qubits=12, backend="sv", depth=25)
        assert cfg.depth == 25
        with pytest.raises(ValueError, match=r"^m = 26: n=12 needs up to 33554432 iterates"):
            dataclasses.replace(cfg, depth=26)
        assert dataclasses.replace(cfg, depth=26, backend="analytic").depth == 26

    def test_statevector_work_boundary_in_epsilon(self):
        # an epsilon whose power bound pi / (8 epsilon) - 1/2 lies a quarter
        # above k: k = 2**24 iterates of 2**13 updates at n = 12 is the budget
        def epsilon(k):
            return math.pi / (8 * (k + 0.75))

        cfg = ExperimentConfig("iqae", qubits=12, backend="sv", epsilon=epsilon(1 << 24))
        with pytest.raises(ValueError, match=r"^epsilon = [0-9.e-]+: n=12 needs up to 16777217 it"):
            dataclasses.replace(cfg, epsilon=epsilon((1 << 24) + 1))
        dataclasses.replace(cfg, epsilon=epsilon((1 << 24) + 1), backend="analytic")

    def test_frozen_so_every_change_is_checked(self):
        # assigning would skip the checks, and a depth-1023 sweep would then
        # overflow its call statistics mid-run; a replaced copy is checked
        cfg = ExperimentConfig("mlqae", repetitions=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.depth = 1023
        assert cfg.depth == 3
        message = (r"^depth 1023 at 1024 shots and 1 repetitions makes at least "
                   r"2\*\*1034 oracle calls, more than a float holds$")
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(cfg, depth=1023)

    def test_any_amplitude_fine_for_baseline(self):
        assert ExperimentConfig("mci", qubits=4, a_true=0.1).a_true == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "qpe"},
            {"algorithm": "mlqae", "qubits": 0},
            {"algorithm": "mlqae", "a_true": 0.0},
            {"algorithm": "mlqae", "a_true": -0.5},
            {"algorithm": "mlqae", "a_true": 1.5},
            {"algorithm": "mlqae", "shots_list": ()},
            {"algorithm": "mlqae", "shots_list": (16, 0)},
            {"algorithm": "mlqae", "repetitions": 0},
            {"algorithm": "mlqae", "base_seed": -1},
            {"algorithm": "mlqae", "backend": "gpu"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


class TestRunSweep:
    def test_mlqae_calls_are_deterministic_multiples(self):
        cfg = ExperimentConfig(
            "mlqae", qubits=4, shots_list=(8, 16), repetitions=5, depth=3,
            base_seed=3,
        )
        rows = run_sweep(cfg)
        assert [row.shots for row in rows] == [8, 16]
        for row in rows:
            want = 18.0 * row.shots  # depth-3 doubling schedule
            assert row.max_calls == row.avg_calls == row.min_calls == want
            assert row.std_calls == 0.0
            assert row.capped == 0

    def test_mlqae_cell_is_one_run_per_repetition(self):
        # the cell refines its repetitions together; each row is still that
        # of run_mlqae on the repetition's own generator
        cfg = ExperimentConfig("mlqae", qubits=6, shots_list=(16, 256), repetitions=9,
                               depth=4, schedule="lis", base_seed=12)
        oracle, backend = cfg.oracle(), make_backend(cfg.backend)
        for shots in cfg.shots_list:
            want = [
                run_mlqae(oracle, cfg.depth, shots, kind=cfg.schedule, rng=rng)
                for rng in derive_rngs(cfg.base_seed, "mlqae", shots, cfg.repetitions)
            ]
            estimates, calls, capped, collapsed = bench_mod._run_cell(
                cfg, oracle, backend, shots
            )
            assert estimates.tolist() == [report.a_hat for report in want]
            assert calls.tolist() == [float(report.oracle_calls) for report in want]
            assert capped == collapsed == 0

    def test_iqae_calls_vary_and_never_cap(self):
        cfg = ExperimentConfig(
            "iqae", qubits=4, shots_list=(16, 32), repetitions=6,
            epsilon=0.02, base_seed=3,
        )
        rows = run_sweep(cfg)
        for row in rows:
            assert row.capped == 0
            assert row.min_calls >= row.shots  # at least one round
            assert row.max_calls >= row.min_calls

    def test_mci_calls_equal_samples(self):
        cfg = ExperimentConfig(
            "mci", shots_list=(10, 20), repetitions=4, base_seed=3,
        )
        rows = run_sweep(cfg)
        for row in rows:
            assert row.max_calls == row.avg_calls == row.min_calls == float(row.shots)
            assert row.std_calls == 0.0

    def test_sv_csv_bytes_are_pinned(self):
        """The statevector backend's sweep CSVs have their recorded sha256.

        Tables 1-8 run on the analytic backend, so only these pin what the
        simulated iterate feeds the binomial draws.  Same x86-64 / numpy
        2.4.6 assumption as ``TestRunTable::test_csv_bytes_are_pinned``.
        """
        pinned = {
            "3be44cba4b1524992f20fd4a0b6f8269c9a11b916322c6b81526b48eccd5dc4f":
                ExperimentConfig("mlqae", depth=4, qubits=16, backend="sv",
                                 repetitions=1, base_seed=1738),
            "34b0787cd055cfb22e70ad10c5e93d785e216337f9cd432705e6d1f841485f74":
                ExperimentConfig("iqae", epsilon=0.01, qubits=16, backend="sv",
                                 repetitions=1, base_seed=1738),
        }
        for digest, cfg in pinned.items():
            buf = io.StringIO()
            emit_csv(run_sweep(cfg), buf)
            assert_sha256(buf.getvalue(), digest, f"{cfg.algorithm} sv sweep CSV")

    def test_single_repetition_degenerate_summaries(self):
        cfg = ExperimentConfig(
            "mlqae", qubits=4, shots_list=(32,), repetitions=1, base_seed=9,
        )
        (row,) = run_sweep(cfg)
        assert row.max_a == row.avg_a == row.min_a
        assert row.std_a == 0.0
        assert row.max_err_pct == row.avg_err_pct == row.min_err_pct
        assert row.std_err_pct == 0.0


def reference_rows(config):
    """``run_sweep``'s rows, computed a repetition at a time: each
    repetition's estimator on ``derive_rng``'s generator, each error from
    the scalar formula ``100 * |a_hat - a| / a`` on Python floats, and each
    IQAE run counted as collapsed when its report names a collapse round."""
    oracle = backend = None
    if config.algorithm != "mci":
        oracle, backend = config.oracle(), make_backend(config.backend)
    rows = []
    for shots in config.shots_list:
        runs = []
        collapsed = 0
        for rep in range(config.repetitions):
            rng = derive_rng(config.base_seed, config.algorithm, shots, rep)
            if config.algorithm == "mci":
                a_hat = float(run_mci(MciConfig(config.a_true, shots, 1), rng=rng)[0])
                runs.append((a_hat, float(shots), False))
            elif config.algorithm == "mlqae":
                report = run_mlqae(oracle, config.depth, shots, kind=config.schedule,
                                   backend=backend, rng=rng)
                runs.append((report.a_hat, float(report.oracle_calls), False))
            else:
                try:
                    report = run_iqae(oracle, config.epsilon, config.alpha, shots,
                                      backend=backend, rng=rng)
                    capped = False
                except iqae_mod.IterationCapError as exc:
                    report, capped = exc.report, True
                runs.append((report.a_hat, float(report.oracle_calls), capped))
                collapsed += report.collapse_round is not None
        estimates, calls, capped = zip(*runs)
        errors = [100.0 * abs(est - config.a_true) / config.a_true for est in estimates]
        rows.append(SummaryRow(shots, *summarize(estimates), *summarize(errors),
                               *summarize(calls), capped=sum(capped),
                               collapsed=collapsed))
    return rows


def row_bits(row):
    """A summary row's fields, every float as its exact ``float.hex``."""
    return [value.hex() if isinstance(value, float) else value
            for value in dataclasses.astuple(row)]


class TestColumnReduction:
    """A sweep reduces each cell as columns; its rows must be bit for bit
    the per-repetition reduction's, which six-digit CSVs would not show."""

    @pytest.mark.parametrize("config", [
        table_configs(1)[0][1],
        ExperimentConfig("mci", a_true=0.3, shots_list=(1, 10, 37), repetitions=50,
                         base_seed=5),
        table_configs(2)[0][1],
        ExperimentConfig("mlqae", qubits=6, a_true=19 / 64, shots_list=(16, 100),
                         repetitions=9, depth=5, schedule="lis", base_seed=12),
        table_configs(5)[0][1],
        ExperimentConfig("iqae", qubits=6, a_true=19 / 64, shots_list=(16, 100),
                         repetitions=9, epsilon=0.005, base_seed=12),
    ], ids=["table1", "mci", "table2", "mlqae", "table5", "iqae"])
    def test_rows_match_the_scalar_reduction(self, config):
        got, want = run_sweep(config), reference_rows(config)
        assert [row_bits(row) for row in got] == [row_bits(row) for row in want]

    def test_capped_repetitions_are_counted(self, monkeypatch):
        monkeypatch.setattr(iqae_mod, "CAP_MULTIPLIER", 0)
        config = ExperimentConfig("iqae", qubits=6, shots_list=(16, 32), repetitions=4,
                                  base_seed=3)
        got = run_sweep(config)
        assert [row.capped for row in got] == [4, 4]
        want = reference_rows(config)
        assert [row_bits(row) for row in got] == [row_bits(row) for row in want]

    def test_an_mci_cell_is_one_run_mci_call(self, monkeypatch):
        # perfbench times the baseline by rebinding bench.run_mci, and a
        # cell that called it once per repetition would be 10^4 calls
        seen = []
        original = bench_mod.run_mci

        def counting(config, *, rng):
            seen.append((config.samples, config.repetitions))
            return original(config, rng=rng)

        monkeypatch.setattr(bench_mod, "run_mci", counting)
        config = table_configs(1)[0][1]
        run_sweep(config)
        assert seen == [(1024, 10_000), (16384, 10_000)]

    def test_an_iqae_cell_is_one_run_iqae_call_per_repetition(self, monkeypatch):
        # perfbench checks every IQAE run's report by rebinding bench.run_iqae
        # and re-raising its IterationCapError; a cell that bypassed that name
        # would leave it no reports, and it would fail every IQAE run
        seen = []
        original = bench_mod.run_iqae

        def logging(*args, **kwargs):
            try:
                report = original(*args, **kwargs)
            except iqae_mod.IterationCapError:
                seen.append("capped")
                raise
            seen.append("ran")
            return report

        monkeypatch.setattr(bench_mod, "run_iqae", logging)
        config = ExperimentConfig("iqae", qubits=6, shots_list=(16, 32), repetitions=4,
                                  base_seed=3)
        assert [row.capped for row in run_sweep(config)] == [0, 0]
        assert seen == ["ran"] * 8
        seen.clear()
        monkeypatch.setattr(iqae_mod, "CAP_MULTIPLIER", 0)
        assert [row.capped for row in run_sweep(config)] == [4, 4]
        assert seen == ["capped"] * 8

    @pytest.mark.parametrize("table,collapsed", [
        (5, [0, 0, 0, 0, 0, 0, 1]),
        (6, [0] * 7),
        (7, [0, 0, 1, 0, 0, 1, 0]),
        (8, [0] * 7),
    ])
    def test_collapsed_runs_are_counted(self, table, collapsed):
        # the runs tests/test_iqae.py pins: table 5 at 1024 shots, table 7
        # at 64 and 512 shots
        ((_, config),) = table_configs(table)
        assert [row.collapsed for row in run_sweep(config)] == collapsed


ROWS = [
    SummaryRow(16, 0.2, 0.125, 0.06, 0.03, 60.0, 12.3456789, 0.5, 9.0,
               288.0, 288.0, 288.0, 0.0),
    SummaryRow(32, 0.15, 0.125, 0.1, 0.01, 20.0, 5.0, 0.1, 3.0,
               576.0, 576.0, 576.0, 0.0),
]


class TestEmitCsv:
    def test_header_and_shape(self):
        buf = io.StringIO()
        emit_csv(ROWS, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER.count(",") == 12  # 13 columns
        assert len(lines) == 3
        for line in lines[1:]:
            assert len(line.split(",")) == 13

    def test_six_significant_digits(self):
        buf = io.StringIO()
        emit_csv(ROWS, buf)
        row16 = buf.getvalue().splitlines()[1].split(",")
        assert row16[0] == "16"
        assert row16[6] == "12.3457"  # avg_err_pct rounded to 6 digits
        assert row16[9] == "288"

    def test_capped_not_serialized(self):
        # nor is collapsed: both counts stay out of the 13 columns
        buf = io.StringIO()
        emit_csv([SummaryRow(8, *([1.0] * 12), capped=3, collapsed=2)], buf)
        out = buf.getvalue()
        assert "capped" not in out and "collapsed" not in out
        assert out.splitlines()[1] == ",".join(["8"] + ["1"] * 12)

    def test_byte_determinism(self):
        a, b = io.StringIO(), io.StringIO()
        emit_csv(ROWS, a)
        emit_csv(ROWS, b)
        assert a.getvalue() == b.getvalue()


class TestIntervalMemo:
    def test_cold_and_warm_memo_give_the_same_bytes(self):
        """Table 5's sweep emits the same CSV whether its Clopper-Pearson
        intervals are computed or served from the memo, and the second
        pass computes none."""
        [(_, config)] = table_configs(5)
        memo = iqae_mod.binomial_confidence
        memo.cache_clear()
        texts, infos = [], []
        for _ in range(2):
            buf = io.StringIO()
            emit_csv(run_sweep(config), buf)
            texts.append(buf.getvalue())
            infos.append(memo.cache_info())
        memo.cache_clear()
        cold, warm = infos
        assert texts[0] == texts[1]
        assert cold.misses == warm.misses and warm.hits > cold.hits > 0
        assert all(info.currsize <= info.maxsize for info in infos)


class TestTableConfigs:
    def test_baseline_table(self):
        ((name, cfg),) = table_configs(1)
        assert name == "table1.csv"
        assert cfg.algorithm == "mci"
        assert cfg.shots_list == (1024, 16384)
        assert cfg.repetitions == 10_000
        assert cfg.base_seed == DEFAULT_SEED_BASE + 1

    def test_mlqae_tables(self):
        ((_, cfg2),) = table_configs(2)
        ((_, cfg3),) = table_configs(3)
        assert (cfg2.algorithm, cfg2.qubits, cfg2.depth) == ("mlqae", 10, 3)
        assert (cfg3.algorithm, cfg3.qubits, cfg3.depth) == ("mlqae", 10, 4)

    def test_wide_domain_mlqae_table_has_both_depths(self):
        entries = table_configs(4)
        assert [name for name, _ in entries] == ["table4_m3.csv", "table4_m4.csv"]
        assert all(cfg.qubits == 14 for _, cfg in entries)
        assert [cfg.depth for _, cfg in entries] == [3, 4]
        assert all(cfg.base_seed == DEFAULT_SEED_BASE + 4 for _, cfg in entries)

    def test_iqae_tables(self):
        for table, qubits, eps in [(5, 10, 0.01), (6, 10, 0.005),
                                   (7, 14, 0.01), (8, 14, 0.005)]:
            ((name, cfg),) = table_configs(table)
            assert name == f"table{table}.csv"
            assert cfg.algorithm == "iqae"
            assert cfg.qubits == qubits
            assert cfg.epsilon == eps
            assert cfg.base_seed == DEFAULT_SEED_BASE + table

    def test_common_benchmark_parameters(self):
        for table in range(2, 9):
            for _, cfg in table_configs(table):
                assert cfg.a_true == 0.125
                assert cfg.shots_list == SHOTS_LADDER
                assert cfg.repetitions == 30
                assert cfg.backend == "analytic"

    @pytest.mark.parametrize("table", [0, 9, -1])
    def test_out_of_range(self, table):
        with pytest.raises(ValueError):
            table_configs(table)


PINNED_SHA256 = {
    "table1.csv": "a813e2439ff1c60bb4ad3a7efdda7355f8a317222f0dfae28c8246e3a818eacb",
    "table2.csv": "37d24313ca409f515227d8d358e02f96c4dfc0a52d5837c0846b2a039a3192a0",
    "table3.csv": "715c95de3514c48f2ba65d75101d73039430913b7c504fb3a77f4f10f9469197",
    "table4_m3.csv": "f6093ace28bbee5fb8c155bb9023e7d3860fb4fc7093a3bedd98be3117e529b1",
    "table4_m4.csv": "caea962020ff0bdec4fb002ae15caf4140d0068e6935d588920a43911e17ff07",
    "table5.csv": "ee90a02cc4226b544ca676f6bc1c82c3820de6696894afdb029fbccd9060b8b3",
    "table6.csv": "3d340f4eb1b0d7e6699a83000c8b57657730683cc8bdda2e122668d9d62b8fb7",
    "table7.csv": "f8f5b67fbeb5b3ca52c14cc2f60830896370603a10824253e4ce51733ad946b4",
    "table8.csv": "4082934e917c2b73a1c73b3a7caf0008aabf655f450721a57e580a6af53223b9",
}

#: the IQAE runs of each reproduction that stop on a zero-width interval
COLLAPSED_RUNS = {"table5.csv": 1, "table7.csv": 2}


class TestRunTable:
    """The reference tables as ``qaelab reproduce --table N`` writes them."""

    def reproduce(self, capsys, table, out):
        rc = cli.main(["reproduce", "--table", str(table), "--out", str(out)])
        return rc, capsys.readouterr()

    @pytest.mark.parametrize("table", range(1, 9))
    def test_csv_bytes_are_pinned(self, capsys, tmp_path, table):
        """Each reproduction CSV has its recorded sha256.

        The digests were taken in ``digest.RECORDED``'s environment.  Like
        the bitwise log-likelihood test, they assume that CPU and numpy: a
        last-bit difference in a likelihood table or a binomial draw
        changes the bytes.
        """
        rc, captured = self.reproduce(capsys, table, tmp_path)
        assert rc == 0
        names = [name for name, _ in table_configs(table)]
        assert captured.out == "".join(f"wrote {tmp_path / name}\n" for name in names)
        assert captured.err == "".join(
            f"reproduce: {name}: {COLLAPSED_RUNS[name]} IQAE runs stopped on a "
            "zero-width interval after a disjoint round; their estimates are included\n"
            for name in names if name in COLLAPSED_RUNS
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        for name in names:
            assert_sha256((tmp_path / name).read_bytes(), PINNED_SHA256[name], name)

    @pytest.mark.parametrize("table", [2, 3, 4])
    def test_cell_by_cell_sweeps_match_the_pins(self, table):
        """The MLQAE tables, run one ``run_sweep`` per shots value as the
        benchmark harness runs them, keep their recorded sha256: no record,
        report or refine carries state from one cell to the next."""
        for name, config in table_configs(table):
            rows = []
            for shots in config.shots_list:
                rows += run_sweep(dataclasses.replace(config, shots_list=(shots,)))
            buffer = io.StringIO()
            emit_csv(rows, buffer)
            assert_sha256(buffer.getvalue(), PINNED_SHA256[name], name)

    def test_writes_expected_file(self, capsys, tmp_path):
        out = tmp_path / "nested" / "dir"
        rc, captured = self.reproduce(capsys, 5, out)
        assert rc == 0
        assert captured.out == f"wrote {out / 'table5.csv'}\n"
        assert [p.name for p in out.iterdir()] == ["table5.csv"]
        text = (out / "table5.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(SHOTS_LADDER)
        assert text.endswith("\n")

    def test_cap_aborts_without_output(self, capsys, tmp_path, monkeypatch):
        # at a cap of 0 rounds every repetition of the 7 x 30 cells is capped
        monkeypatch.setattr(iqae_mod, "CAP_MULTIPLIER", 0)
        rc, captured = self.reproduce(capsys, 5, tmp_path)
        assert rc == 3 and captured.out == ""
        assert captured.err == (
            "reproduce: table5.csv: 210 repetitions hit the iteration cap\n"
        )
        assert list(tmp_path.iterdir()) == []
