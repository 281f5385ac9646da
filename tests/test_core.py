"""Core statevector kernel: preparation, reflections, the iterate, backends."""

import math
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from qaelab.core import (
    AnalyticBackend,
    OracleSpec,
    Statevector,
    StatevectorBackend,
    analytic_flag_probability,
    apply_q,
    apply_q_power,
    apply_s_chi,
    flag_probability,
    make_backend,
    measure_flag,
    prepare_a,
)
from qaelab.verify import dense_iterate, dense_preparation, probe_iterate


class TestOracleSpec:
    def test_defaults_to_leading_indices(self):
        oracle = OracleSpec(3, 3)
        assert list(np.flatnonzero(prepare_a(oracle).amps[1::2])) == [0, 1, 2]
        assert oracle.domain_size == 8
        assert oracle.a == 0.375

    def test_theta_of_eighth(self):
        oracle = OracleSpec(10, 128)
        assert oracle.theta == pytest.approx(0.36136712390670783, abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            OracleSpec(0, 0)
        with pytest.raises(ValueError):
            OracleSpec(2, 5)
        with pytest.raises(ValueError):
            OracleSpec(2, -1)

    def test_large_domain_builds_in_constant_time(self):
        start = time.perf_counter()
        oracle = OracleSpec(64, 1 << 61)
        assert time.perf_counter() - start < 0.01
        assert oracle.a == 0.125
        assert oracle.theta == OracleSpec(10, 128).theta


class TestFromAmplitude:
    def test_scales_to_the_marked_count(self):
        assert OracleSpec.from_amplitude(10, 0.125) == OracleSpec(10, 128)
        assert OracleSpec.from_amplitude(3, 0.0) == OracleSpec(3, 0)
        assert OracleSpec.from_amplitude(3, 1.0) == OracleSpec(3, 8)

    def test_scales_exactly_beyond_float_range(self):
        # a * 2**1100 overflows a float; the exact product does not
        assert OracleSpec.from_amplitude(1100, 0.5).good_count == 1 << 1099
        assert OracleSpec.from_amplitude(64, 2.0**-60) == OracleSpec(64, 16)

    @pytest.mark.parametrize("qubits,a,fragment", [
        (4, 0.1, "not representable"),
        (4, 1 / 3, "not representable"),
        (4, -0.5, "must lie in [0, 1]"),
        (4, 1.5, "must lie in [0, 1]"),
        (4, math.nan, "must lie in [0, 1]"),
        (0, 1.0, "at least one domain qubit"),
        (-1, 0.5, "need at least one domain qubit, got qubits=-1"),
    ])
    def test_rejects(self, qubits, a, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            OracleSpec.from_amplitude(qubits, a)


class TestPrepare:
    def test_quarter_amplitude(self):
        state = prepare_a(OracleSpec(2, 1))
        assert flag_probability(state) == pytest.approx(0.25, abs=1e-15)
        # index (0 << 1) | 1 carries the single marked amplitude
        assert state.amps[1] == pytest.approx(0.5)
        assert state.amps[0] == 0.0

    def test_empty_good_set(self):
        state = prepare_a(OracleSpec(3, 0))
        assert flag_probability(state) == 0.0
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_three_eighths(self):
        state = prepare_a(OracleSpec(3, 3))
        assert flag_probability(state) == pytest.approx(0.375, abs=1e-15)

    @pytest.mark.parametrize("n,good", [(1, 1), (2, 3), (3, 3), (3, 8), (4, 5)])
    def test_matches_dense_build(self, n, good):
        oracle = OracleSpec(n, good)
        column = dense_preparation(oracle)[:, 0]
        np.testing.assert_allclose(prepare_a(oracle).amps, column, atol=1e-12)


class TestReflections:
    def test_flag_phase_flips_odd_only(self):
        amps = np.arange(8, dtype=complex)
        state = Statevector(2, amps.copy())
        apply_s_chi(state)
        np.testing.assert_array_equal(state.amps[0::2], amps[0::2])
        np.testing.assert_array_equal(state.amps[1::2], -amps[1::2])

    @pytest.mark.parametrize("op", [apply_s_chi])
    def test_involution(self, op):
        rng = np.random.default_rng(5)
        for n in (1, 3, 6):
            amps = rng.normal(size=2 << n) + 1j * rng.normal(size=2 << n)
            amps /= np.linalg.norm(amps)
            state = Statevector(n, amps.copy())
            op(op(state))
            np.testing.assert_allclose(state.amps, amps, atol=1e-12)


def random_complex_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 << n) + 1j * rng.normal(size=2 << n)
    return Statevector(n, amps / np.linalg.norm(amps))


class TestDtype:
    def test_real_paths_stay_float64(self):
        oracle = OracleSpec(5, 7)
        assert prepare_a(oracle).amps.dtype == np.float64
        assert Statevector.basis(5, 3).amps.dtype == np.float64
        backend = StatevectorBackend()
        backend.flag_probability(oracle, 3)
        assert backend._last[2].dtype == np.float64

    def test_complex_state_stays_complex(self):
        oracle = OracleSpec(4, 5)
        state = random_complex_state(4, 11)
        assert state.amps.dtype == np.complex128
        assert apply_s_chi(state).amps.dtype == np.complex128
        assert apply_q(state, oracle).amps.dtype == np.complex128

    @pytest.mark.parametrize("n,good", [(1, 1), (3, 2), (4, 11)])
    def test_complex_iterate_matches_dense(self, n, good):
        # complex amplitudes take the same path as real ones; check them against
        # the dense reference too
        oracle = OracleSpec(n, good)
        state = random_complex_state(n, n)
        expected = dense_iterate(oracle) @ state.amps
        np.testing.assert_allclose(apply_q(state, oracle).amps, expected, rtol=0, atol=1e-12)


class TestIterate:
    def test_quarter_reaches_certainty(self):
        # a = 1/4 means theta = pi/6, so one iterate lands on sin^2(pi/2) = 1
        oracle = OracleSpec(2, 1)
        state = apply_q(prepare_a(oracle), oracle)
        assert flag_probability(state) == pytest.approx(1.0, abs=1e-12)

    def test_empty_oracle_keeps_flag_grounded(self):
        oracle = OracleSpec(3, 0)
        state = prepare_a(oracle)
        for _ in range(5):
            apply_q(state, oracle)
            assert flag_probability(state) == 0.0
            assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_full_oracle_keeps_flag_raised(self):
        oracle = OracleSpec(2, 4)
        state = apply_q_power(prepare_a(oracle), oracle, 3)
        assert flag_probability(state) == pytest.approx(1.0, abs=1e-12)

    def test_two_iterates_match_dense_build(self):
        oracle = OracleSpec(3, 3)
        dense = dense_iterate(oracle)
        expected = dense @ dense @ dense_preparation(oracle)[:, 0]
        state = apply_q_power(prepare_a(oracle), oracle, 2)
        np.testing.assert_allclose(state.amps, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_probe_matrix_is_unitary(self, n):
        for good in range((1 << n) + 1):
            probe = probe_iterate(OracleSpec(n, good))
            np.testing.assert_allclose(
                probe @ probe.conj().T, np.eye(2 << n), atol=1e-10,
                err_msg=f"n={n} good={good}",
            )

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_sliced_update_equals_whole_array_update(self, dtype):
        # 2**15 amplitudes: several slices of the axpy plus the flag flip
        oracle = OracleSpec(14, 3000)
        rng = np.random.default_rng(5)
        amps = rng.standard_normal(2 << 14).astype(dtype)
        if dtype is np.complex128:
            amps = amps + 1j * rng.standard_normal(2 << 14)
        psi = prepare_a(oracle).amps
        expected = amps.copy()
        expected[1::2] *= -1.0
        expected -= (2.0 * np.vdot(psi, expected)) * psi
        assert np.array_equal(apply_q(Statevector(14, amps), oracle).amps, expected)

    def test_probe_matrix_matches_dense(self):
        for n, good in [(1, 1), (2, 2), (3, 5), (4, 7)]:
            oracle = OracleSpec(n, good)
            np.testing.assert_allclose(probe_iterate(oracle), dense_iterate(oracle), atol=1e-10)


class TestPower:
    def test_zero_power_is_identity(self):
        oracle = OracleSpec(3, 2)
        state = prepare_a(oracle)
        before = state.amps.copy()
        apply_q_power(state, oracle, 0)
        np.testing.assert_array_equal(state.amps, before)

    def test_negative_power_rejected(self):
        oracle = OracleSpec(2, 1)
        with pytest.raises(ValueError):
            apply_q_power(prepare_a(oracle), oracle, -1)

    def test_eighth_after_four_iterates(self):
        # sin^2(9 * arcsin(sqrt(1/8))) is exactly 25/2048
        oracle = OracleSpec(10, 128)
        state = apply_q_power(prepare_a(oracle), oracle, 4)
        assert flag_probability(state) == pytest.approx(0.01220703125, abs=1e-11)

    def test_rotation_identity_sample(self):
        for n in (1, 2, 3, 5):
            for good in (0, 1, (1 << n) // 2, 1 << n):
                oracle = OracleSpec(n, good)
                for m in range(9):
                    state = apply_q_power(prepare_a(oracle), oracle, m)
                    assert flag_probability(state) == pytest.approx(
                        analytic_flag_probability(oracle, m), abs=1e-9
                    ), f"n={n} good={good} m={m}"

    def test_norm_preserved_through_long_product(self):
        oracle = OracleSpec(6, 11)
        state = prepare_a(oracle)
        for _ in range(50):
            apply_q(state, oracle)
            assert abs(state.norm_sq() - 1.0) < 1e-10

    @pytest.mark.parametrize("n", [3, 5, 10, 16, 20])
    def test_long_products_track_the_closed_form(self, n):
        # rounding accumulates over the iterates; 256 of them (32 at n = 20,
        # to keep the test near a second) stay within 1e-10
        size = 1 << n
        for good in sorted({1, size // 8, size // 3, size // 2, size - 1}):
            oracle = OracleSpec(n, good)
            state = prepare_a(oracle)
            for m in range(1, (32 if n == 20 else 256) + 1):
                apply_q(state, oracle)
                expected = analytic_flag_probability(oracle, m)
                assert abs(flag_probability(state) - expected) <= 1e-10, (good, m)
                assert abs(state.norm_sq() - 1.0) <= 1e-10, (good, m)


class TestAnalytic:
    def test_identity_power(self):
        assert analytic_flag_probability(OracleSpec(10, 128), 0) == pytest.approx(
            0.125, abs=1e-15
        )

    def test_eight_iterates(self):
        value = analytic_flag_probability(OracleSpec(10, 128), 8)
        assert value == pytest.approx(0.019456863403320264, abs=1e-12)
        # same number through the statevector route
        state = apply_q_power(prepare_a(OracleSpec(10, 128)), OracleSpec(10, 128), 8)
        assert flag_probability(state) == pytest.approx(value, abs=1e-9)

    def test_certain_amplitude(self):
        oracle = OracleSpec(2, 4)
        for m in (0, 1, 5):
            assert analytic_flag_probability(oracle, m) == pytest.approx(1.0, abs=1e-12)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            analytic_flag_probability(OracleSpec(2, 1), -2)


class TestBackends:
    def test_factory(self):
        assert isinstance(make_backend("sv"), StatevectorBackend)
        assert isinstance(make_backend("analytic"), AnalyticBackend)
        with pytest.raises(ValueError):
            make_backend("qpu")

    def test_probabilities_agree(self):
        oracle = OracleSpec(5, 7)
        sv, an = StatevectorBackend(), AnalyticBackend()
        for m in range(9):
            assert sv.flag_probability(oracle, m) == pytest.approx(
                an.flag_probability(oracle, m), abs=1e-12
            )

    def test_hit_count_distributions_match(self):
        # two-sample chi-squared over 10^4 seeded draws per backend
        oracle = OracleSpec(5, 4)
        shots, power, draws = 32, 1, 10_000
        rng_sv = np.random.default_rng(61)
        rng_an = np.random.default_rng(62)
        sv = np.array([
            measure_flag(StatevectorBackend(), oracle, power, shots, rng_sv)
            for _ in range(draws)
        ])
        an = np.array([
            measure_flag(AnalyticBackend(), oracle, power, shots, rng_an)
            for _ in range(draws)
        ])
        edges = np.arange(shots + 2)
        hist_sv = np.histogram(sv, bins=edges)[0]
        hist_an = np.histogram(an, bins=edges)[0]
        keep = (hist_sv + hist_an) >= 10  # pool sparse tail bins
        table = np.array([
            np.append(hist_sv[keep], hist_sv[~keep].sum()),
            np.append(hist_an[keep], hist_an[~keep].sum()),
        ])
        table = table[:, table.sum(axis=0) > 0]
        p_value = chi2_contingency(table).pvalue
        assert p_value > 0.001


@st.composite
def small_oracles(draw):
    n = draw(st.integers(1, 12))
    size = 1 << n
    return OracleSpec(n, draw(st.one_of(st.just(0), st.just(size), st.integers(0, size))))


class TestStatevectorMemo:
    @settings(max_examples=60, deadline=None)
    @given(
        first=small_oracles(),
        second=small_oracles(),
        calls=st.lists(st.tuples(st.booleans(), st.integers(0, 20)), min_size=1, max_size=12),
    )
    def test_equals_fresh_simulation_bitwise(self, first, second, calls):
        # repeats hit the memo, rises advance the kept state, falls and
        # oracle switches restart it
        backend = StatevectorBackend()
        for use_second, m in calls:
            oracle = second if use_second else first
            fresh = flag_probability(apply_q_power(prepare_a(oracle), oracle, m))
            assert backend.flag_probability(oracle, m) == fresh

    def test_threads_sharing_one_backend_match_fresh(self):
        # more threads than cores, switching often, each in its own order
        # over powers of two oracles: a stored state written by one thread
        # while another advances from it would change some probability
        oracles = (OracleSpec(9, 37), OracleSpec(9, 200))
        keys = [(oracle, m) for oracle in oracles for m in range(16)]
        expected = [
            flag_probability(apply_q_power(prepare_a(oracle), oracle, m))
            for oracle, m in keys
        ]

        def sweep(backend, order):
            return [backend.flag_probability(*keys[j]) == expected[j] for j in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(8):
                backend = StatevectorBackend()
                rng = np.random.default_rng(trial)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [
                        pool.submit(sweep, backend, rng.permutation(len(keys)))
                        for _ in range(4)
                    ]
                    for future in futures:
                        assert all(future.result(timeout=60)), f"trial {trial}"
        finally:
            sys.setswitchinterval(interval)

    def test_negative_power_rejected(self):
        backend = StatevectorBackend()
        oracle = OracleSpec(3, 2)
        backend.flag_probability(oracle, 2)
        with pytest.raises(ValueError):
            backend.flag_probability(oracle, -1)


class TestMeasure:
    def test_empty_oracle_never_hits(self):
        rng = np.random.default_rng(1)
        assert measure_flag(AnalyticBackend(), OracleSpec(4, 0), 3, 500, rng) == 0

    def test_full_oracle_always_hits(self):
        rng = np.random.default_rng(2)
        assert measure_flag(AnalyticBackend(), OracleSpec(4, 16), 2, 500, rng) == 500

    def test_large_sample_frequency(self):
        rng = np.random.default_rng(3)
        hits = measure_flag(AnalyticBackend(), OracleSpec(10, 128), 0, 1_000_000, rng)
        assert abs(hits / 1_000_000 - 0.125) <= 0.001

    def test_deterministic_for_fixed_seed(self):
        oracle = OracleSpec(6, 9)
        seq1 = [
            measure_flag(AnalyticBackend(), oracle, m, 64, np.random.default_rng(17))
            for m in range(4)
        ]
        seq2 = [
            measure_flag(AnalyticBackend(), oracle, m, 64, np.random.default_rng(17))
            for m in range(4)
        ]
        assert seq1 == seq2

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError):
            measure_flag(AnalyticBackend(), OracleSpec(2, 1), 0, 0, np.random.default_rng(0))


class TestStatevector:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Statevector(2, np.zeros(4))

    def test_basis_and_copy(self):
        state = Statevector.basis(2, 5)
        assert state.amps[5] == 1.0
        assert state.norm_sq() == 1.0
        dup = state.copy()
        dup.amps[5] = 0.0
        assert state.amps[5] == 1.0

    def test_evolved_states_start_on_a_cache_line(self):
        # a state off a 64-byte boundary makes every iterate's wide stores
        # straddle cache lines, so the iterate's speed would vary by process
        oracle = OracleSpec(12, 500)
        state = prepare_a(oracle)
        complex_state = Statevector(12, state.amps.astype(np.complex128))
        backend = StatevectorBackend()
        backend.flag_probability(oracle, 1)
        backend.flag_probability(oracle, 3)
        for amps in (state.amps, state.copy().amps, complex_state.copy().amps,
                     backend._last[2]):
            assert amps.ctypes.data % 64 == 0
        np.testing.assert_array_equal(complex_state.copy().amps, complex_state.amps)

    def test_normalization_through_random_sequences(self):
        rng = np.random.default_rng(23)
        oracle = OracleSpec(4, 6)
        state = prepare_a(oracle)
        ops = [apply_s_chi, lambda s: apply_q(s, oracle)]
        for _ in range(60):
            ops[rng.integers(len(ops))](state)
            assert abs(state.norm_sq() - 1.0) < 1e-10
