"""Core statevector kernel: preparation, reflections, the iterate, backends."""

import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

import qaelab.core as core_mod
from qaelab.core import (
    AnalyticBackend,
    OracleSpec,
    StatevectorBackend,
    apply_q,
    make_backend,
    measure_flag,
    prepare_a,
)
from qaelab.iqae import run_iqae
from qaelab.verify import (
    dense_iterate,
    dense_preparation,
    probe_iterate,
    reference_iterate,
    reference_theta,
)


def flag_probability(amps):
    """Flag-1 probability of a whole register: its flag-1 half's sum of squares."""
    return core_mod._sum_of_squares(amps[amps.size // 2:])


class TestOracleSpec:
    def test_defaults_to_leading_indices(self):
        oracle = OracleSpec(3, 3)
        assert list(np.flatnonzero(prepare_a(oracle)[8:])) == [0, 1, 2]
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


class TestCachedTheta:
    @staticmethod
    def specs():
        """Every n <= 64 with the edge marked counts and 8 random ones."""
        for n in range(1, 65):
            size = 1 << n
            rng = random.Random(n)
            counts = {0, 1, size // 2, size - 1, size}
            counts.update(rng.randrange(size + 1) for _ in range(8))
            for good in sorted(counts):
                yield OracleSpec(n, good)

    def test_bit_equal_to_the_formula(self):
        # asin(sqrt(a)) up to a = 1/2, every table oracle's value; above it
        # pi/2 less the angle of the unmarked fraction, which stays exact
        for spec in self.specs():
            if spec.a <= 0.5:
                want = math.asin(math.sqrt(spec.a)).hex()
            else:
                unmarked = (spec.domain_size - spec.good_count) / spec.domain_size
                want = (math.pi / 2 - math.asin(math.sqrt(unmarked))).hex()
            assert spec.theta.hex() == want, spec
            assert vars(spec)["theta"].hex() == want, spec

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 2100), data=st.data())
    def test_within_two_ulps_of_the_integer_reference(self, n, data):
        size = 1 << n
        near_end = st.integers(0, n).flatmap(lambda bits: st.integers(0, 1 << bits))
        good = data.draw(st.one_of(
            st.integers(0, size), near_end, near_end.map(lambda low: size - low)))
        got, want = OracleSpec(n, good).theta, reference_theta(OracleSpec(n, good))
        assert abs(got - want) <= 2 * math.ulp(want), (got.hex(), want.hex())

    def test_a_single_marked_index_past_float_range(self):
        # a = 2**-1100 underflows to 0.0; theta = 2**-550 is a normal float
        assert OracleSpec(1100, 1).theta == 2.0**-550
        assert OracleSpec(1101, 1).theta == 2.0**-550.5

    def test_one_unmarked_index_stays_below_a_right_angle(self):
        # 1 - 2**-60 rounds to 1.0; the true theta is pi/2 - 2**-30 to double precision
        theta = OracleSpec(60, 2**60 - 1).theta
        assert theta < math.pi / 2
        assert theta == math.pi / 2 - 2.0**-30

    def test_cannot_be_assigned(self):
        spec = OracleSpec(10, 128)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.theta = 0.5
        spec.theta
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.theta = 0.5

    def test_reading_it_leaves_equality_and_hash_alone(self):
        read, unread = OracleSpec(14, 2048), OracleSpec(14, 2048)
        read.theta
        assert "theta" in vars(read) and "theta" not in vars(unread)
        assert read == unread and hash(read) == hash(unread)
        assert {read: "read"}[unread] == "read"
        assert read != OracleSpec(14, 2049)


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
        # index (1 << 2) | 0 carries the single marked amplitude
        assert state[4] == pytest.approx(0.5)
        assert state[0] == 0.0

    def test_empty_good_set(self):
        state = prepare_a(OracleSpec(3, 0))
        assert flag_probability(state) == 0.0
        assert core_mod._sum_of_squares(state) == pytest.approx(1.0, abs=1e-12)

    def test_three_eighths(self):
        state = prepare_a(OracleSpec(3, 3))
        assert flag_probability(state) == pytest.approx(0.375, abs=1e-15)

    @pytest.mark.parametrize("n,good", [(1, 0), (3, 3), (4, 16), (14, 3000)])
    def test_support_is_one_slice(self, n, good):
        # the good indices' flag-1 amplitudes follow the others' flag-0 ones
        size = 1 << n
        amps = prepare_a(OracleSpec(n, good))
        np.testing.assert_array_equal(np.flatnonzero(amps), np.arange(good, size + good))
        assert np.all(amps[good:size + good] == 1.0 / math.sqrt(size))

    @pytest.mark.parametrize("n,good", [
        (1, 0), (1, 2), (3, 5), (8, 1), (8, 127), (8, 128), (8, 129), (8, 255),
        (10, 129), (10, 1023), (10, 1024),
    ])
    def test_backend_slice_is_the_support(self, n, good):
        # exactly the support [good, 2**n + good): 2**n copies of 2**(-n/2)
        size = 1 << n
        amps = core_mod._prepare_slice(OracleSpec(n, good))
        assert amps.dtype == np.float64 and amps.shape == (size,)
        assert np.all(amps == 1.0 / math.sqrt(size))

    def test_flag_is_the_top_bit(self):
        for d in (0, 5, 7):
            assert flag_probability(np.eye(16)[(1 << 3) | d]) == 1.0
            assert flag_probability(np.eye(16)[d]) == 0.0

    @pytest.mark.parametrize("n,good", [(1, 1), (2, 3), (3, 3), (3, 8), (4, 5)])
    def test_matches_dense_build(self, n, good):
        oracle = OracleSpec(n, good)
        column = dense_preparation(oracle)[:, 0]
        np.testing.assert_allclose(prepare_a(oracle), column, atol=1e-12)


class TestReflections:
    def test_flag_phase_flips_upper_half_only(self):
        # zero on psi's support [1, 5), an iterate is the flag-phase flip alone
        amps = np.arange(8.0)
        amps[1:5] = 0.0
        got = apply_q(amps.copy(), OracleSpec(2, 1))
        np.testing.assert_array_equal(got[:4], amps[:4])
        np.testing.assert_array_equal(got[4:], -amps[4:])

    def test_dense_transpose_inverts_the_iterate(self):
        # the iterate is real and orthogonal, so Q^T undoes it
        rng = np.random.default_rng(5)
        for n in (1, 3, 6):
            for good in (0, 1, (1 << n) // 3, 1 << n):
                oracle = OracleSpec(n, good)
                amps = rng.normal(size=2 << n)
                amps /= np.linalg.norm(amps)
                back = dense_iterate(oracle).T @ apply_q(amps.copy(), oracle)
                np.testing.assert_allclose(back, amps, atol=1e-12)


class TestDtype:
    def test_real_paths_stay_float64(self):
        oracle = OracleSpec(5, 7)
        assert prepare_a(oracle).dtype == np.float64
        assert apply_q(prepare_a(oracle), oracle, 3).dtype == np.float64
        backend = StatevectorBackend()
        backend.flag_probability(oracle, 3)
        assert backend._live[2].dtype == np.float64

    def test_complex_amplitudes_are_refused(self):
        oracle = OracleSpec(1, 1)
        amps = np.full(4, 0.5, dtype=np.complex128)
        with pytest.raises(ValueError, match=r"^n=1 needs a float64 array of shape \(4,\), "
                                             r"got complex128 of shape \(4,\)$"):
            apply_q(amps, oracle)
        np.testing.assert_array_equal(amps, 0.5)
        with pytest.raises(ValueError, match=r"got list of shape \(4,\)$"):
            apply_q([0.5j, 0.5, 0.5, 0.5], oracle)


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
            assert core_mod._sum_of_squares(state) == pytest.approx(1.0, abs=1e-12)

    def test_full_oracle_keeps_flag_raised(self):
        oracle = OracleSpec(2, 4)
        state = apply_q(prepare_a(oracle), oracle, 3)
        assert flag_probability(state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,good", [(1, 1), (3, 2), (4, 11)])
    def test_random_state_iterate_matches_dense(self, n, good):
        # states off the prepared state's orbit, against the dense reference
        oracle = OracleSpec(n, good)
        amps = np.random.default_rng(n).normal(size=2 << n)
        state = amps / np.linalg.norm(amps)
        expected = dense_iterate(oracle) @ state
        np.testing.assert_allclose(apply_q(state, oracle), expected, rtol=0, atol=1e-12)

    def test_two_iterates_match_dense_build(self):
        oracle = OracleSpec(3, 3)
        dense = dense_iterate(oracle)
        expected = dense @ dense @ dense_preparation(oracle)[:, 0]
        state = apply_q(prepare_a(oracle), oracle, 2)
        np.testing.assert_allclose(state, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_probe_matrix_is_unitary(self, n):
        for good in range((1 << n) + 1):
            probe = probe_iterate(OracleSpec(n, good))
            np.testing.assert_allclose(
                probe @ probe.conj().T, np.eye(2 << n), atol=1e-10,
                err_msg=f"n={n} good={good}",
            )

    def test_sliced_update_equals_whole_array_update(self):
        # 2**15 amplitudes, a fixed state at the top of the property test's
        # range: the iterate against the flag flip and rank-one update written
        # out over the whole array
        oracle = OracleSpec(14, 3000)
        rng = np.random.default_rng(5)
        amps = rng.standard_normal(2 << 14)
        psi = prepare_a(oracle)
        expected = amps.copy()
        expected[1 << 14:] *= -1.0
        overlap = psi[3000] * np.add.reduce(expected[psi != 0])
        expected -= (2.0 * overlap) * psi
        assert np.array_equal(apply_q(amps, oracle), expected)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 14),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(0, 9),
    )
    def test_equals_whole_array_reference(self, n, data, seed, m):
        # random states, almost never in the span of psi; a power defers the
        # flips past the support to one, which must change no bit
        size = 1 << n
        good = data.draw(st.one_of(st.just(0), st.just(size), st.integers(0, size)))
        oracle = OracleSpec(n, good)
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(2 << n)
        want = amps
        for _ in range(m):
            want = reference_iterate(want, oracle)
        got = apply_q(amps, oracle, m)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 14),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_support_sum_overlap_is_the_whole_array_vdot(self, n, data, seed):
        # the iterate's overlap, psi's value times its support's sum, agrees
        # with <psi|amps> over the whole array within the summation error bound
        size = 1 << n
        good = data.draw(st.one_of(st.just(0), st.just(size), st.integers(0, size)))
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(2 << n)
        psi = prepare_a(OracleSpec(n, good))
        got = core_mod._amplitude(n) * np.add.reduce(amps[good:size + good])
        want = np.vdot(psi, amps)
        bound = 2 * amps.size * np.finfo(np.float64).eps * np.sum(np.abs(psi * amps))
        assert abs(got - want) <= bound

    @pytest.mark.parametrize("call", [
        apply_q,
        lambda state, oracle: flag_probability(state),
    ], ids=["apply_q", "flag_probability"])
    def test_allocates_no_temporary(self, call):
        # the 2**17 amplitudes of n = 16 are 1 MiB; a call's
        # own allocations are the few small array views of the state
        oracle = OracleSpec(16, 3 << 12)
        state = prepare_a(oracle)
        call(state, oracle)
        tracemalloc.start()
        try:
            call(state, oracle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096

    def test_rejects_a_state_of_another_size(self):
        # the slices of a larger state would all exist, so the check is explicit
        state = prepare_a(OracleSpec(4, 3))
        message = r"^n=3 needs a float64 array of shape \(16,\), got float64 of shape \(32,\)$"
        with pytest.raises(ValueError, match=message):
            apply_q(state, OracleSpec(3, 3))
        np.testing.assert_array_equal(state, prepare_a(OracleSpec(4, 3)))

    def test_probe_matrix_matches_dense(self):
        for n, good in [(1, 1), (2, 2), (3, 5), (4, 7)]:
            oracle = OracleSpec(n, good)
            np.testing.assert_allclose(probe_iterate(oracle), dense_iterate(oracle), atol=1e-10)


class TestPower:
    def test_zero_power_is_identity(self):
        oracle = OracleSpec(3, 2)
        state = prepare_a(oracle)
        before = state.copy()
        apply_q(state, oracle, 0)
        np.testing.assert_array_equal(state, before)

    def test_negative_power_rejected(self):
        oracle = OracleSpec(2, 1)
        with pytest.raises(ValueError):
            apply_q(prepare_a(oracle), oracle, -1)

    def test_eighth_after_four_iterates(self):
        # sin^2(9 * arcsin(sqrt(1/8))) is exactly 25/2048
        oracle = OracleSpec(10, 128)
        state = apply_q(prepare_a(oracle), oracle, 4)
        assert flag_probability(state) == pytest.approx(0.01220703125, abs=1e-11)

    def test_rotation_identity_sample(self):
        for n in (1, 2, 3, 5):
            for good in (0, 1, (1 << n) // 2, 1 << n):
                oracle = OracleSpec(n, good)
                for m in range(9):
                    state = apply_q(prepare_a(oracle), oracle, m)
                    assert flag_probability(state) == pytest.approx(
                        AnalyticBackend().flag_probability(oracle, m), abs=1e-9
                    ), f"n={n} good={good} m={m}"

    def test_norm_preserved_through_long_product(self):
        oracle = OracleSpec(6, 11)
        state = prepare_a(oracle)
        for _ in range(50):
            apply_q(state, oracle)
            assert abs(core_mod._sum_of_squares(state) - 1.0) < 1e-10

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
                expected = AnalyticBackend().flag_probability(oracle, m)
                assert abs(flag_probability(state) - expected) <= 1e-10, (good, m)
                assert abs(core_mod._sum_of_squares(state) - 1.0) <= 1e-10, (good, m)


class TestAnalytic:
    def test_identity_power(self):
        assert AnalyticBackend().flag_probability(OracleSpec(10, 128), 0) == pytest.approx(
            0.125, abs=1e-15
        )

    def test_eight_iterates(self):
        value = AnalyticBackend().flag_probability(OracleSpec(10, 128), 8)
        assert value == pytest.approx(0.019456863403320264, abs=1e-12)
        # same number through the statevector route
        state = apply_q(prepare_a(OracleSpec(10, 128)), OracleSpec(10, 128), 8)
        assert flag_probability(state) == pytest.approx(value, abs=1e-9)

    def test_certain_amplitude(self):
        oracle = OracleSpec(2, 4)
        for m in (0, 1, 5):
            assert AnalyticBackend().flag_probability(oracle, m) == pytest.approx(1.0, abs=1e-12)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            AnalyticBackend().flag_probability(OracleSpec(2, 1), -2)


def beyond_physical_memory(monkeypatch):
    """The first n whose support of 2**n float64 amplitudes exceeds
    physical memory, and the message refusing it; with the slice
    allocation, where every state the backend holds starts, patched to
    fail, so a missed check fails instead of allocating gigabytes."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    n = next(n for n in range(1, 59) if (1 << n) * 8 > physical)

    def no_allocation(*args):
        raise AssertionError("allocated a statevector")

    monkeypatch.setattr(core_mod, "_prepare_slice", no_allocation)
    message = (rf"^n={n} needs 2\*\*{n} \* 8 bytes \(.* GiB\), "
               r"more than the .* GiB of physical memory$")
    return n, message


def assert_refused_without_allocating(message, call):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


class TestBackends:
    def test_factory(self):
        assert isinstance(make_backend("sv"), StatevectorBackend)
        assert isinstance(make_backend("analytic"), AnalyticBackend)
        with pytest.raises(ValueError):
            make_backend("qpu")

    def test_statevector_numpy_cannot_index_is_rejected(self):
        oracle = OracleSpec(200, 1)
        message = r"n=200 needs a statevector of 2\*\*201 float64 amplitudes \(2\*\*204 bytes\)"
        with pytest.raises(ValueError, match=message):
            prepare_a(oracle)
        with pytest.raises(ValueError, match=message):
            StatevectorBackend().check_oracle(oracle)
        with pytest.raises(ValueError, match=message):
            StatevectorBackend().flag_probability(oracle, 1)
        AnalyticBackend().check_oracle(oracle)
        StatevectorBackend().check_oracle(OracleSpec(16, 1))

    def test_statevector_beyond_physical_memory_is_rejected(self, monkeypatch):
        """The support of 2**n * 8 bytes must fit in physical memory;
        the check refuses the first n past it without allocating."""
        n, message = beyond_physical_memory(monkeypatch)
        backend = StatevectorBackend()
        assert_refused_without_allocating(
            message, lambda: backend.check_oracle(OracleSpec(n, 1)))
        backend.check_oracle(OracleSpec(n - 1, 1))
        AnalyticBackend().check_oracle(OracleSpec(n, 1))

    @pytest.mark.parametrize("run", [
        lambda oracle: StatevectorBackend().flag_probability(oracle, 0),
        lambda oracle: run_iqae(oracle, 0.01, 0.05, 16, backend=StatevectorBackend(),
                                rng=np.random.default_rng(0)),
    ], ids=["flag_probability", "run_iqae"])
    def test_statevector_run_beyond_physical_memory_is_rejected(self, monkeypatch, run):
        """A library call that skips ``check_oracle`` still meets it before
        the backend prepares a state."""
        n, message = beyond_physical_memory(monkeypatch)
        oracle = OracleSpec(n, 1 << (n - 3))
        assert_refused_without_allocating(message, lambda: run(oracle))

    def test_statevector_work_budget_counts_each_iterates_fixed_cost(self):
        # at n = 4 an iterate is 16 amplitude updates plus the fixed cost,
        # so the budget admits 2**37 // 4112 iterates, not 2**33
        oracle = OracleSpec(4, 4)
        most = core_mod._WORK_BUDGET // (16 + core_mod._ITERATE_OVERHEAD)
        assert most == 33_423_870
        StatevectorBackend().check_work(oracle, most)
        with pytest.raises(ValueError, match=(
                r"^n=4 needs up to 33423871 iterates, about 2\*\*37\.0 amplitude "
                r"updates, more than the statevector budget of 2\*\*37$")):
            StatevectorBackend().check_work(oracle, most + 1)
        AnalyticBackend().check_work(oracle, 1 << 60)

    def test_statevector_checks_the_oracle_on_each_restart_only(self, monkeypatch):
        backend = StatevectorBackend()
        checked = []
        monkeypatch.setattr(backend, "check_oracle", checked.append)
        oracle = OracleSpec(5, 7)
        # 0 restarts, 1, 2 and 4 advance, a repeat is a memo hit, 3 restarts
        for m in (0, 1, 2, 0, 4, 3, 3):
            backend.flag_probability(oracle, m)
        assert checked == [oracle, oracle]

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


def register_probability(oracle, m):
    """The flag probability the backend must read, from the whole register
    ``apply_q`` evolves: the good block ``reg[2**n : 2**n + good]``'s sum of
    squares, once the flag-1 amplitudes past it are found exactly zero."""
    reg = apply_q(prepare_a(oracle), oracle, m)
    size, good = oracle.domain_size, oracle.good_count
    assert not reg[size + good:].any()
    return core_mod._sum_of_squares(reg[size:size + good])


@st.composite
def edge_oracles(draw):
    """Oracles with good counts at the domain's ends and around 128, a
    multiple of every SIMD width, and any others."""
    n = draw(st.integers(1, 14))
    size = 1 << n
    edges = sorted({good for good in (0, 1, 127, 128, 129, size - 1, size) if good <= size})
    return OracleSpec(n, draw(st.one_of(st.sampled_from(edges), st.integers(0, size))))


class TestStatevectorMemo:
    @settings(max_examples=100, deadline=None)
    @given(
        oracle=st.one_of(edge_oracles(), st.just(OracleSpec(16, 1 << 13))),
        powers=st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True),
        falling=st.booleans(),
    )
    def test_slice_reads_the_whole_register_bitwise(self, oracle, powers, falling):
        # rising powers advance one slice, falling ones restart it; each
        # must read the bits of the whole evolved register's good block
        backend = StatevectorBackend()
        for m in sorted(powers, reverse=falling):
            fresh = register_probability(oracle, m)
            assert backend.flag_probability(oracle, m).hex() == fresh.hex(), m

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
            assert backend.flag_probability(oracle, m) == register_probability(oracle, m)

    def test_threads_sharing_one_backend_match_fresh(self):
        # more threads than cores, switching often, each in its own order
        # over powers of two oracles: a stored state written by one thread
        # while another advances from it would change some probability
        oracles = (OracleSpec(9, 37), OracleSpec(9, 200))
        keys = [(oracle, m) for oracle in oracles for m in range(16)]
        expected = [register_probability(oracle, m) for oracle, m in keys]

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


class TestLiveState:
    #: one slice of 2**n float64 amplitudes is half of a 2**(n+4)-byte
    #: register; the backend holds one slice and no register
    PEAK_STATES = 0.55

    @staticmethod
    def peak_states(n, calls):
        """Peak bytes traced over ``calls()``, in full registers of 2**(n+4)
        bytes.  scipy is loaded at import, so tracing starts at the first
        allocation of ``calls()``."""
        tracemalloc.start()
        try:
            calls()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (1 << (n + 4))

    N = 14
    A, B = OracleSpec(N, 3 << (N - 4)), OracleSpec(N, 7 << (N - 5))

    def test_one_backend_switching_oracles_holds_its_live_states(self):
        def calls():
            backend = StatevectorBackend()
            # advances, switches and a fall to a power the memo misses
            for oracle, m in ((self.A, 3), (self.B, 2), (self.A, 5), (self.A, 4),
                              (self.B, 6), (self.A, 1), (self.B, 3)):
                backend.flag_probability(oracle, m)

        assert self.peak_states(self.N, calls) < self.PEAK_STATES

    def test_a_fresh_backend_after_other_oracles_holds_its_live_states(self):
        def calls():
            for k in (1, 2, 4, 5):
                StatevectorBackend().flag_probability(OracleSpec(self.N, k << (self.N - 4)), 2)
            backend = StatevectorBackend()
            for m in (0, 3, 5):
                backend.flag_probability(self.A, m)

        assert self.peak_states(self.N, calls) < self.PEAK_STATES

    def test_a_state_an_exception_interrupts_is_not_reused(self, monkeypatch):
        oracle = OracleSpec(9, 37)
        backend = StatevectorBackend()
        backend.flag_probability(oracle, 2)
        iterate = core_mod._iterate

        def interrupted(support, n, good, m):
            iterate(support, n, good, 2)  # part of the way, then an exception
            raise RuntimeError("interrupted")

        monkeypatch.setattr(core_mod, "_iterate", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            backend.flag_probability(oracle, 8)
        monkeypatch.undo()
        fresh = StatevectorBackend()
        for m in (8, 9):
            assert backend.flag_probability(oracle, m).hex() == \
                fresh.flag_probability(oracle, m).hex()


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

    def test_shots_stop_at_the_largest_int64(self):
        # numpy's binomial sampler takes an int64 count
        rng = np.random.default_rng(0)
        hits = measure_flag(AnalyticBackend(), OracleSpec(2, 1), 0, 2**63 - 1, rng)
        assert 0 < hits < 2**63 - 1
        with pytest.raises(ValueError, match=rf"^shots must be at most 2\*\*63 - 1, got {2**63}$"):
            measure_flag(AnalyticBackend(), OracleSpec(2, 1), 0, 2**63, rng)

    @pytest.mark.parametrize("p", [-1e-17, -0.0, 0.0, 5e-324, 0.3, 1.0 - 2**-53, 1.0,
                                   1.0 + 2**-52, math.nan, math.inf])
    def test_draw_probability_is_the_min_max_clamp(self, p):
        class Fixed(AnalyticBackend):
            def flag_probability(self, oracle, m):
                return p

        got = core_mod._draw_probability(Fixed(), OracleSpec(2, 1), 0)
        assert got.hex() == min(1.0, max(0.0, p)).hex()


class TestSumOfSquares:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 14), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_start_offset_changes_no_bit(self, n, data, seed):
        # the backend's good block and the register's start at different
        # offsets in memory, so the same values must sum to the same bits
        # at every offset
        values = np.random.default_rng(seed).standard_normal(data.draw(st.integers(0, 1 << n)))
        reads = set()
        for offset in range(8):
            shifted = np.empty(values.size + offset)[offset:]
            shifted[:] = values
            reads.add(core_mod._sum_of_squares(shifted).hex())
        assert len(reads) == 1, reads

    def test_flag_probability_ignores_blas_threads(self):
        # a BLAS dot product may split the sum by thread; the flag
        # probability must read the same bits however many there are
        code = ("import numpy as np; from qaelab.core import _sum_of_squares; "
                "amps = np.random.default_rng(0).standard_normal(2**17); "
                "print(_sum_of_squares(amps[2**16:]).hex())")
        src = os.path.dirname(os.path.dirname(core_mod.__file__))
        reads = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
            reads.append(proc.stdout.strip())
        assert reads[0] == reads[1], reads


class TestStatevector:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"^n=2 needs a float64 array of shape \(8,\)"):
            apply_q(np.zeros(4), OracleSpec(2, 1))
        with pytest.raises(ValueError, match=r"got float32 of shape \(8,\)$"):
            apply_q(np.zeros(8, dtype=np.float32), OracleSpec(2, 1))
        with pytest.raises(ValueError, match=r"got float64 of shape \(2, 4\)$"):
            apply_q(np.zeros((2, 4)), OracleSpec(2, 1))

    def test_normalization_through_random_sequences(self):
        rng = np.random.default_rng(23)
        oracle = OracleSpec(4, 6)
        state = prepare_a(oracle)
        for _ in range(60):
            apply_q(state, oracle, int(rng.integers(0, 4)))
            assert abs(core_mod._sum_of_squares(state) - 1.0) < 1e-10
