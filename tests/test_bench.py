"""Tests for the benchmark harness: seed derivation, sweeps, serialization,
and the table runner."""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qaelab.bench as bench_mod
import qaelab.iqae as iqae_mod
from qaelab.bench import (
    CSV_HEADER,
    DEFAULT_SEED_BASE,
    SHOTS_LADDER,
    ExperimentConfig,
    ReproduceCapError,
    SummaryRow,
    derive_rng,
    derive_rngs,
    emit_csv,
    run_sweep,
    run_table,
    summarize,
    table_configs,
)


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

    def test_generators_are_built_as_iterated(self):
        # a trillion repetitions: only the first batch is ever seeded
        rngs = derive_rngs(5, "mci", 64, 10**12)
        first = next(rngs)
        assert first.bit_generator.state == derive_rng(5, "mci", 64, 0).bit_generator.state

    def test_the_preset_seed_serves_pcg64_only(self):
        seed = next(derive_rngs(5, "mci", 64, 1)).bit_generator.seed_seq
        with pytest.raises(ValueError):
            seed.generate_state(8)

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

    def test_unrepresentable_amplitude_rejected_for_estimators(self):
        with pytest.raises(ValueError, match="not representable"):
            ExperimentConfig("mlqae", qubits=4, a_true=0.1)
        with pytest.raises(ValueError, match="not representable"):
            ExperimentConfig("iqae", qubits=4, a_true=0.1)

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
            assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest, cfg.algorithm

    def test_single_repetition_degenerate_summaries(self):
        cfg = ExperimentConfig(
            "mlqae", qubits=4, shots_list=(32,), repetitions=1, base_seed=9,
        )
        (row,) = run_sweep(cfg)
        assert row.max_a == row.avg_a == row.min_a
        assert row.std_a == 0.0
        assert row.max_err_pct == row.avg_err_pct == row.min_err_pct
        assert row.std_err_pct == 0.0


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
        buf = io.StringIO()
        emit_csv([SummaryRow(8, *([1.0] * 12), capped=3)], buf)
        out = buf.getvalue()
        assert "capped" not in out
        assert len(out.splitlines()[1].split(",")) == 13

    def test_byte_determinism(self):
        a, b = io.StringIO(), io.StringIO()
        emit_csv(ROWS, a)
        emit_csv(ROWS, b)
        assert a.getvalue() == b.getvalue()


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


class TestRunTable:
    @pytest.mark.parametrize("table", range(1, 9))
    def test_csv_bytes_are_pinned(self, tmp_path, table):
        """Each reproduction CSV has its recorded sha256.

        The digests were taken on x86-64 (AVX-512) with numpy 2.4.6.  Like
        the bitwise log-likelihood test, they assume that CPU and numpy: a
        last-bit difference in a likelihood table or a binomial draw
        changes the bytes.
        """
        for path in run_table(table, tmp_path):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == PINNED_SHA256[path.name], path.name

    def test_writes_expected_file(self, tmp_path):
        out = tmp_path / "nested" / "dir"
        written = run_table(5, out)
        assert [p.name for p in written] == ["table5.csv"]
        text = written[0].read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(SHOTS_LADDER)
        assert text.endswith("\n")

    def test_cap_aborts_without_output(self, tmp_path, monkeypatch):
        monkeypatch.setattr(iqae_mod, "CAP_MULTIPLIER", 0)
        with pytest.raises(ReproduceCapError, match="table5.csv"):
            run_table(5, tmp_path)
        assert list(tmp_path.iterdir()) == []
