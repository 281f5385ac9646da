"""Tests for the classical hit-or-miss baseline."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaelab import MciConfig, run_mci
from qaelab.bench import derive_rngs


class TestConfig:
    def test_accepts_valid(self):
        cfg = MciConfig(0.125, 1024, 30)
        assert (cfg.a_true, cfg.samples, cfg.repetitions) == (0.125, 1024, 30)

    @pytest.mark.parametrize(
        "a_true,samples,reps",
        [(-0.1, 10, 1), (1.1, 10, 1), (0.5, 0, 1), (0.5, 10, 0), (0.5, -3, 2)],
    )
    def test_rejects_invalid(self, a_true, samples, reps):
        with pytest.raises(ValueError):
            MciConfig(a_true, samples, reps)


class TestRun:
    def test_shape_and_range(self):
        est = run_mci(MciConfig(0.3, 50, 17), rng=np.random.default_rng(0))
        assert est.shape == (17,)
        assert np.all((0.0 <= est) & (est <= 1.0))
        # every estimate is a multiple of 1/samples
        assert np.allclose(est * 50, np.round(est * 50))

    def test_zero_measure_region_never_hit(self):
        est = run_mci(MciConfig(0.0, 200, 25), rng=np.random.default_rng(1))
        assert np.all(est == 0.0)

    def test_full_measure_region_always_hit(self):
        # Binomial(samples, 1) is always samples, so every point is a hit
        est = run_mci(MciConfig(1.0, 200, 25), rng=np.random.default_rng(1))
        assert np.all(est == 1.0)

    def test_seed_reproducibility(self):
        cfg = MciConfig(0.125, 256, 40)
        a = run_mci(cfg, rng=np.random.default_rng(9))
        b = run_mci(cfg, rng=np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        cfg = MciConfig(0.125, 256, 40)
        a = run_mci(cfg, rng=np.random.default_rng(9))
        b = run_mci(cfg, rng=np.random.default_rng(10))
        assert not np.array_equal(a, b)

    def test_requires_a_generator(self):
        with pytest.raises(TypeError):
            run_mci(MciConfig(0.125, 256, 40))

    def test_estimates_are_unbiased(self):
        cfg = MciConfig(0.125, 256, 20_000)
        est = run_mci(cfg, rng=np.random.default_rng(505))
        three_sigma = 3.0 * math.sqrt(0.125 * 0.875 / (256 * 20_000))
        assert abs(est.mean() - 0.125) < three_sigma

    def test_spread_matches_binomial_theory(self):
        # std of one estimate is sqrt(a(1-a)/S); mean absolute relative error
        # of a (near-)normal deviate is sigma * sqrt(2/pi) / a
        cfg = MciConfig(0.125, 1024, 10_000)
        est = run_mci(cfg, rng=np.random.default_rng(404))
        sigma = math.sqrt(0.125 * 0.875 / 1024)
        assert np.std(est) == pytest.approx(sigma, rel=0.05)
        rel_err = np.abs(est - 0.125) / 0.125
        want = sigma * math.sqrt(2.0 / math.pi) / 0.125
        assert rel_err.mean() == pytest.approx(want, rel=0.05)


class TestPerRepetitionGenerators:
    """``rng`` as one generator per repetition, as a sweep's cell passes it."""

    @given(
        a_true=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        samples=st.integers(1, 2**20),
        repetitions=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    @example(0.125, 16384, 64, 1730)
    @example(0.0, 1, 1, 0)
    @example(1.0, 2**20, 3, 0)
    def test_each_estimate_is_its_generators_single_draw(
        self, a_true, samples, repetitions, seed
    ):
        config = MciConfig(a_true, samples, repetitions)
        got = run_mci(config, rng=derive_rngs(seed, "mci", samples, repetitions))
        assert got.shape == (repetitions,)
        single = MciConfig(a_true, samples, 1)
        want = [
            float(run_mci(single, rng=rng)[0]).hex()
            for rng in derive_rngs(seed, "mci", samples, repetitions)
        ]
        assert [float(est).hex() for est in got] == want

    def test_too_few_generators_raise(self):
        config = MciConfig(0.125, 1024, 5)
        with pytest.raises(ValueError, match="Expected 5 but iterator had only 4"):
            run_mci(config, rng=derive_rngs(0, "mci", 1024, 4))
        with pytest.raises(ValueError):
            run_mci(config, rng=[])
