"""Tests for the iterative estimator: interval arithmetic, power selection,
exact binomial intervals, angle inversion, and the full loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta, binom

import qaelab.iqae as iqae_mod
from qaelab import (
    ConfidenceInterval,
    IterationCapError,
    OracleSpec,
    StatevectorBackend,
    binomial_confidence,
    find_next_k,
    invert_to_theta,
    max_rounds,
    run_iqae,
)
from qaelab.verify import reference_binomial_confidence, reference_largest_power

HALF_PI = 0.5 * math.pi
EPS = 2.0**-52
A_TRUE = 0.125
ORACLE = OracleSpec(10, 128)  # amplitude 128/1024 = 0.125


# ---------------------------------------------------------------------------
# independent reference implementations and argument strategies
# ---------------------------------------------------------------------------


def cp_by_beta_ppf(hits, shots, alpha):
    """Clopper-Pearson bounds as ``scipy.stats.beta.ppf`` quantiles, the
    formulation the reproduction CSV digests were first pinned with."""
    lo = 0.0 if hits == 0 else float(beta.ppf(alpha / 2.0, hits, shots - hits + 1))
    hi = 1.0 if hits == shots else float(beta.ppf(1.0 - alpha / 2.0, hits + 1, shots - hits))
    return lo, hi


@st.composite
def cp_arguments(draw):
    """``(hits, shots <= 20000, alpha)``.  Hits of 0 and of ``shots`` are
    drawn often, since they take the pinned branches, and so are the
    per-round budgets ``alpha / max_rounds(epsilon)`` that IQAE passes."""
    shots = draw(st.one_of(st.integers(1, 16), st.integers(1, 20_000)))
    hits = draw(st.one_of(st.just(0), st.just(shots), st.integers(0, shots)))
    alpha = draw(st.one_of(
        st.builds(
            lambda total, eps: total / max_rounds(eps),
            st.sampled_from((0.05, 0.01, 0.001)),
            st.sampled_from((0.01, 0.005, 1e-3, 1e-5)),
        ),
        # below alpha ~ 1e-88 beta.ppf's root finding can give up and return
        # a wrong quantile with a RuntimeWarning, where betaincinv returns
        # the right one or nan
        st.floats(-80.0, -1e-9).map(lambda e: 10.0**e),
    ))
    return hits, shots, alpha


@st.composite
def search_intervals(draw):
    """``(lo, hi)`` of width 1e-6 to 1, clipped at pi/2 or at 0 two times in
    three: there the scaled upper end lands on a half-turn boundary."""
    width = 10.0 ** draw(st.floats(-6.0, 0.0))
    where = draw(st.sampled_from(("top", "bottom", "interior")))
    if where == "top":
        return HALF_PI - width, HALF_PI
    if where == "bottom":
        return 0.0, width
    lo = draw(st.floats(0.0, HALF_PI - width))
    return lo, min(lo + width, HALF_PI)


# ---------------------------------------------------------------------------
# ConfidenceInterval
# ---------------------------------------------------------------------------


class TestConfidenceInterval:
    def test_width_and_midpoint(self):
        iv = ConfidenceInterval(0.2, 0.5)
        assert iv.width == pytest.approx(0.3)
        assert iv.midpoint == pytest.approx(0.35)

    def test_degenerate_allowed(self):
        iv = ConfidenceInterval(0.3, 0.3)
        assert iv.width == 0.0
        assert iv.midpoint == 0.3

    @pytest.mark.parametrize(
        "lo,hi",
        [(-0.1, 0.5), (0.2, HALF_PI + 0.1), (0.5, 0.2), (-1.0, -0.5)],
    )
    def test_rejects_bad_bounds(self, lo, hi):
        with pytest.raises(ValueError):
            ConfidenceInterval(lo, hi)

    def test_intersect_overlap(self):
        got = ConfidenceInterval(0.2, 0.5).intersect(ConfidenceInterval(0.3, 0.9))
        assert (got.theta_lo, got.theta_hi) == (0.3, 0.5)

    def test_intersect_containment(self):
        base = ConfidenceInterval(0.2, 0.5)
        got = base.intersect(ConfidenceInterval(0.1, 0.9))
        assert (got.theta_lo, got.theta_hi) == (0.2, 0.5)

    def test_intersect_disjoint_above_collapses_to_upper_edge(self):
        got = ConfidenceInterval(0.2, 0.5).intersect(ConfidenceInterval(0.7, 0.9))
        assert (got.theta_lo, got.theta_hi) == (0.5, 0.5)

    def test_intersect_disjoint_below_collapses_to_lower_edge(self):
        got = ConfidenceInterval(0.2, 0.5).intersect(ConfidenceInterval(0.0, 0.1))
        assert (got.theta_lo, got.theta_hi) == (0.2, 0.2)

    def test_intersect_never_escapes_self(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a, b = np.sort(rng.uniform(0.0, HALF_PI, size=2))
            c, d = np.sort(rng.uniform(0.0, HALF_PI, size=2))
            base = ConfidenceInterval(float(a), float(b))
            got = base.intersect(ConfidenceInterval(float(c), float(d)))
            assert base.theta_lo <= got.theta_lo <= got.theta_hi <= base.theta_hi


# ---------------------------------------------------------------------------
# find_next_k
# ---------------------------------------------------------------------------


class TestFindNextK:
    def test_full_interval_keeps_power_zero(self):
        iv = ConfidenceInterval(0.0, HALF_PI)
        assert find_next_k(iv, 0) == (0, 0)

    def test_narrow_interval_frozen_case(self):
        # [0.361, 0.362] admits a scaled width up to pi at powers into the
        # hundreds; the exact scan pins the answer at 761, half-turn 350 (upper)
        assert find_next_k(ConfidenceInterval(0.361, 0.362), 0) == (761, 350)

    @settings(max_examples=300, deadline=None)
    @given(ends=search_intervals())
    def test_equals_exact_reference(self, ends):
        """Power and half-turn index both, so the winding is checked too."""
        assert find_next_k(ConfidenceInterval(*ends), 0) == reference_largest_power(*ends)

    @pytest.mark.xfail(strict=True, reason="the search decides ties by float rounding")
    def test_tie_at_half_turn_boundary_equals_exact_reference(self):
        # at k = 5 the scaled interval straddles a boundary by one rounding
        # error: the float search gives (5, 4), exact arithmetic (1, 1)
        ends = (0.5713414639551255, 0.7139983303613167)
        assert find_next_k(ConfidenceInterval(*ends), 0) == reference_largest_power(*ends)

    def test_top_clipped_frozen_case(self):
        # (4k+2) * pi/2 is an odd multiple of pi, so the top end sits on the
        # upper boundary of its half-turn (float pi/2 is just inside it), and
        # the largest power whose scaled width fits is admissible: 7853
        iv = ConfidenceInterval(HALF_PI - 1e-4, HALF_PI)
        assert find_next_k(iv, 0) == (7853, 15706)

    def test_growth_ratio_gates_acceptance(self):
        iv = ConfidenceInterval(0.361, 0.362)
        # doubling from 380 reaches 760 <= 761: accepted
        assert find_next_k(iv, 380) == (761, 350)
        # doubling from 400 would need 800 > 761: falls back to current power
        assert find_next_k(iv, 400) == (400, 184)

    def test_fallback_half_plane_comes_from_midpoint(self):
        iv = ConfidenceInterval(0.361, 0.362)
        k, h = find_next_k(iv, 400)
        assert k == 400
        assert h == math.floor((4 * 400 + 2) * iv.midpoint / math.pi)
        assert (h % 2 == 0) == (((4 * 400 + 2) * iv.midpoint) % (2.0 * math.pi) <= math.pi)

    def test_degenerate_interval_falls_back(self):
        assert find_next_k(ConfidenceInterval(0.3, 0.3), 2) == (2, 0)

    def test_larger_ratio_is_more_conservative(self):
        iv = ConfidenceInterval(0.361, 0.362)
        k2, _ = find_next_k(iv, 80, ratio=2)
        k4, _ = find_next_k(iv, 80, ratio=4)
        assert k2 >= k4
        assert k4 == 761 or k4 == 80  # either accepted past 320 or kept

    def test_rejects_bad_arguments(self):
        iv = ConfidenceInterval(0.1, 0.2)
        with pytest.raises(ValueError):
            find_next_k(iv, -1)
        with pytest.raises(ValueError):
            find_next_k(iv, 0, ratio=1)


# ---------------------------------------------------------------------------
# binomial_confidence
# ---------------------------------------------------------------------------


class TestBinomialConfidence:
    def test_frozen_midpoint_case(self):
        lo, hi = binomial_confidence(5, 10, 0.05)
        assert lo == pytest.approx(0.18708602844739855, abs=1e-12)
        assert hi == pytest.approx(0.8129139715526015, abs=1e-12)

    def test_zero_hits_pins_lower_bound(self):
        lo, hi = binomial_confidence(0, 20, 0.05)
        assert lo == 0.0
        assert 0.0 < hi < 0.3

    def test_all_hits_pins_upper_bound(self):
        lo, hi = binomial_confidence(20, 20, 0.05)
        assert hi == 1.0
        assert 0.7 < lo < 1.0

    @pytest.mark.parametrize(
        "hits,shots,alpha",
        [
            (5, 10, 0.05),
            (1, 16, 0.01),
            (37, 158, 0.05),
            (0, 20, 0.05),
            (20, 20, 0.05),
            (100, 1024, 0.005),
            (513, 1024, 0.1),
            # the per-round budget at epsilon = 1e-5
            (3, 64, 0.05 / max_rounds(1e-5)),
            (700, 1024, 0.05 / max_rounds(1e-5)),
        ],
    )
    def test_agrees_with_tail_sum_bisection(self, hits, shots, alpha):
        got = binomial_confidence(hits, shots, alpha)
        want = reference_binomial_confidence(hits, shots, alpha)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(args=cp_arguments())
    def test_equals_beta_ppf_bitwise(self, args):
        """The bare inverse incomplete beta gives the ``beta.ppf`` quantiles
        bit for bit, so the reproduction CSVs cannot move.  Like the bitwise
        log-likelihood tests, this assumes the CPU and scipy build the CSV
        digests were pinned on."""
        assert binomial_confidence(*args) == cp_by_beta_ppf(*args)

    def test_contains_observed_frequency(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            shots = int(rng.integers(1, 200))
            hits = int(rng.integers(0, shots + 1))
            lo, hi = binomial_confidence(hits, shots, 0.05)
            assert lo <= hits / shots <= hi

    def test_tighter_alpha_widens(self):
        lo1, hi1 = binomial_confidence(30, 100, 0.1)
        lo2, hi2 = binomial_confidence(30, 100, 0.01)
        assert lo2 < lo1 and hi1 < hi2

    def test_unconverged_inverse_raises(self, monkeypatch):
        monkeypatch.setattr(iqae_mod, "betaincinv", lambda a, b, q: math.nan)
        # typed, so that the CLI can blame alpha; still a ValueError
        assert issubclass(iqae_mod.ConfidenceBoundError, ValueError)
        with pytest.raises(iqae_mod.ConfidenceBoundError,
                           match="no lower bound for hits=2, shots=5"):
            binomial_confidence(2, 5, 0.05)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_confidence(1, 0, 0.05)
        with pytest.raises(ValueError):
            binomial_confidence(-1, 10, 0.05)
        with pytest.raises(ValueError):
            binomial_confidence(11, 10, 0.05)
        with pytest.raises(ValueError):
            binomial_confidence(5, 10, 0.0)
        with pytest.raises(ValueError):
            binomial_confidence(5, 10, 1.0)


# ---------------------------------------------------------------------------
# invert_to_theta
# ---------------------------------------------------------------------------


class TestInvertToTheta:
    def test_full_probability_range_gives_full_angle_range(self):
        iv = invert_to_theta(0.0, 1.0, 0, 0)
        assert iv.theta_lo == 0.0
        assert iv.theta_hi == pytest.approx(HALF_PI, abs=1e-15)

    def test_frozen_upper_branch_case(self):
        iv = invert_to_theta(0.1, 0.2, 1, 0)
        assert iv.theta_lo == pytest.approx(0.10725018479888071, abs=1e-14)
        assert iv.theta_hi == pytest.approx(0.15454920300026873, abs=1e-14)
        # round trip: the flag probability at the edges recovers the inputs
        assert math.sin(3 * iv.theta_lo) ** 2 == pytest.approx(0.1, abs=1e-12)
        assert math.sin(3 * iv.theta_hi) ** 2 == pytest.approx(0.2, abs=1e-12)

    def test_lower_branch_reverses_edges(self):
        # on the decreasing cosine branch the upper probability maps to the
        # lower angle and vice versa: odd half-turn 1
        iv = invert_to_theta(0.1, 0.2, 1, 1)
        assert iv.theta_lo < iv.theta_hi
        assert math.sin(3 * iv.theta_lo) ** 2 == pytest.approx(0.2, abs=1e-12)
        assert math.sin(3 * iv.theta_hi) ** 2 == pytest.approx(0.1, abs=1e-12)

    def test_winding_restores_lost_turns(self):
        # scale 14 (power 3), half-turn 4 is two full turns: edges still
        # reproduce inputs
        iv = invert_to_theta(0.3, 0.4, 3, 4)
        assert math.sin(7 * iv.theta_lo) ** 2 == pytest.approx(0.3, abs=1e-12)
        assert math.sin(7 * iv.theta_hi) ** 2 == pytest.approx(0.4, abs=1e-12)
        base = invert_to_theta(0.3, 0.4, 3, 0)
        assert iv.theta_lo == pytest.approx(base.theta_lo + 4.0 * math.pi / 14.0, abs=1e-12)
        # half-turn 5: the same two turns on the lower branch
        low = invert_to_theta(0.3, 0.4, 3, 5)
        assert low.theta_lo == pytest.approx(invert_to_theta(0.3, 0.4, 3, 1).theta_lo
                                             + 4.0 * math.pi / 14.0, abs=1e-12)

    def test_excessive_winding_clips_to_range_end(self):
        iv = invert_to_theta(0.4, 0.6, 0, 2)
        assert iv.theta_lo == HALF_PI
        assert iv.theta_hi == HALF_PI

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(0, 10**6),
        turn=st.floats(0.0, 1.0),
        offset=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    )
    def test_round_trip(self, k, turn, offset):
        """An angle in half-turn h, taken to p = sin^2((2k+1) theta) and back.

        phi = acos(1 - 2p) moves by about delta / sin(phi) when 1 - 2p is off
        by delta ~ EPS, and sin(phi) = 2 sqrt(p (1 - p)), so the phase error
        grows as p nears 0 or 1 and saturates near sqrt(2 EPS) once
        p (1 - p) < EPS.  Dividing by 4k+2 gives the angle error; 4 EPS theta
        more covers the rounding of theta itself."""
        scale = 4 * k + 2
        h = round(turn * 2 * k)
        theta = min((h + offset) * math.pi / scale, HALF_PI)
        p = math.sin((2 * k + 1) * theta) ** 2
        iv = invert_to_theta(p, p, k, h)
        tol = 4 * EPS / math.sqrt(max(p * (1.0 - p), EPS)) / scale + 4 * EPS * theta
        assert abs(iv.theta_lo - theta) <= tol
        assert abs(iv.theta_hi - theta) <= tol

    def test_ordering_preserved_across_branches(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = np.sort(rng.uniform(0.0, 1.0, size=2))
            k = int(rng.integers(0, 6))
            for h in (0, 1):
                iv = invert_to_theta(float(p[0]), float(p[1]), k, h)
                assert 0.0 <= iv.theta_lo <= iv.theta_hi <= HALF_PI

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            invert_to_theta(0.5, 0.4, 1, 0)
        with pytest.raises(ValueError):
            invert_to_theta(-0.1, 0.4, 1, 0)
        with pytest.raises(ValueError):
            invert_to_theta(0.1, 1.1, 1, 0)
        with pytest.raises(ValueError):
            invert_to_theta(0.1, 0.4, 1, -1)


# ---------------------------------------------------------------------------
# round budget
# ---------------------------------------------------------------------------


class TestMaxRounds:
    def test_values_at_benchmark_precisions(self):
        assert max_rounds(0.01) == 7
        assert max_rounds(0.005) == 8

    def test_tighter_precision_needs_more_rounds(self):
        assert max_rounds(0.001) > max_rounds(0.01)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            max_rounds(0.0)
        with pytest.raises(ValueError):
            max_rounds(0.5)
        with pytest.raises(ValueError):
            max_rounds(-0.01)


# ---------------------------------------------------------------------------
# run_iqae
# ---------------------------------------------------------------------------


class TestRunIqae:
    def test_reaches_target_width(self):
        rep = run_iqae(ORACLE, 0.01, 0.05, 1024, rng=np.random.default_rng(7))
        assert rep.a_hi - rep.a_lo <= 0.02
        assert rep.a_lo <= rep.a_hat <= rep.a_hi
        assert rep.epsilon == 0.01 and rep.alpha == 0.05

    def test_report_amplitudes_match_final_interval(self):
        rep = run_iqae(ORACLE, 0.01, 0.05, 1024, rng=np.random.default_rng(7))
        final = rep.rounds[-1].interval_after
        assert rep.a_lo == math.sin(final.theta_lo) ** 2
        assert rep.a_hi == math.sin(final.theta_hi) ** 2
        assert rep.a_hat == math.sin(final.midpoint) ** 2

    def test_single_seeded_run_covers_truth(self):
        rep = run_iqae(ORACLE, 0.01, 0.05, 1024, rng=np.random.default_rng(7))
        assert rep.a_lo <= A_TRUE <= rep.a_hi

    def test_intervals_nest(self):
        rep = run_iqae(ORACLE, 0.005, 0.05, 64, rng=np.random.default_rng(21))
        prev = ConfidenceInterval(0.0, HALF_PI)
        for rec in rep.rounds:
            cur = rec.interval_after
            assert prev.theta_lo <= cur.theta_lo <= cur.theta_hi <= prev.theta_hi
            prev = cur

    def test_powers_never_decrease_and_respect_ratio(self):
        rep = run_iqae(ORACLE, 0.005, 0.05, 64, rng=np.random.default_rng(21))
        ks = [rec.k for rec in rep.rounds]
        for a, b in zip(ks, ks[1:]):
            assert b >= a
            if b != a and a >= 1:
                assert b >= 2 * a

    @pytest.mark.parametrize("shots,seed", [(64, 21), (16, 11)])
    def test_half_turns_follow_the_search_rule(self, shots, seed):
        """A new power takes its half-turn from the lower end of the interval
        before the round, a kept power from its midpoint; on these runs the
        midpoint lies in the same half-turn either way.  Power 0 is searched
        afresh each round; the 16-shot run keeps powers 1, 3 and 7."""
        rep = run_iqae(ORACLE, 0.005, 0.05, shots, rng=np.random.default_rng(seed))
        pre, k = ConfidenceInterval(0.0, HALF_PI), 0
        for rec in rep.rounds:
            scale = 4 * rec.k + 2
            theta = pre.midpoint if rec.k == k >= 1 else pre.theta_lo
            assert rec.half_turn == math.floor(scale * theta / math.pi)
            assert rec.half_turn == math.floor(scale * pre.midpoint / math.pi)
            assert (rec.half_turn % 2 == 0) == ((scale * pre.midpoint) % (2.0 * math.pi) <= math.pi)
            pre, k = rec.interval_after, rec.k

    def test_shots_pool_while_power_holds(self):
        rep = run_iqae(ORACLE, 0.005, 0.05, 16, rng=np.random.default_rng(11))
        ks = [rec.k for rec in rep.rounds]
        assert any(a == b for a, b in zip(ks, ks[1:]))  # pooling exercised
        prev = None
        for rec in rep.rounds:
            if prev is not None and rec.k == prev.k:
                assert rec.shots == prev.shots + 16
                assert rec.hits >= prev.hits
            else:
                assert rec.shots == 16
            assert 0 <= rec.hits <= rec.shots
            prev = rec

    def test_oracle_call_accounting(self):
        shots = 64
        rep = run_iqae(ORACLE, 0.005, 0.05, shots, rng=np.random.default_rng(21))
        want = sum(shots * (2 * rec.k + 1) for rec in rep.rounds)
        assert rep.oracle_calls == want

    def test_empty_oracle_collapses_to_zero(self):
        rep = run_iqae(OracleSpec(4, 0), 0.01, 0.05, 256, rng=np.random.default_rng(3))
        assert rep.a_lo == 0.0
        assert rep.a_hi <= 0.02
        assert rep.a_hat <= 0.02

    def test_saturated_oracle_collapses_to_one(self):
        rep = run_iqae(OracleSpec(4, 16), 0.01, 0.05, 256, rng=np.random.default_rng(3))
        assert rep.a_hi == 1.0
        assert rep.a_lo >= 0.98
        assert rep.a_hat >= 0.98

    def test_cap_zero_raises_before_first_round(self, monkeypatch):
        monkeypatch.setattr(iqae_mod, "CAP_MULTIPLIER", 0)
        with pytest.raises(IterationCapError) as exc:
            run_iqae(ORACLE, 0.01, 0.05, 32, rng=np.random.default_rng(1))
        rep = exc.value.report
        assert rep.rounds == ()
        assert rep.oracle_calls == 0
        assert rep.a_lo == 0.0 and rep.a_hi == 1.0

    def test_cap_attaches_partial_progress(self, monkeypatch):
        # one shot per round cannot reach a 0.002-wide interval within the
        # nominal budget, so the capped report carries exactly that many rounds
        monkeypatch.setattr(iqae_mod, "CAP_MULTIPLIER", 1)
        with pytest.raises(IterationCapError) as exc:
            run_iqae(ORACLE, 0.001, 0.05, 1, rng=np.random.default_rng(5))
        rep = exc.value.report
        assert len(rep.rounds) == max_rounds(0.001)
        assert rep.oracle_calls == sum(2 * rec.k + 1 for rec in rep.rounds)
        assert rep.a_hi - rep.a_lo > 0.002

    def test_coverage_across_seeds(self):
        hits = 0
        for seed in range(100):
            rep = run_iqae(ORACLE, 0.01, 0.05, 64, rng=np.random.default_rng(seed))
            if rep.a_lo <= A_TRUE <= rep.a_hi:
                hits += 1
        assert hits >= 90

    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    @pytest.mark.parametrize("n", [1, 4, 10, 20, 64])
    def test_empty_and_full_oracles_mirror(self, n, alpha):
        """a = 0 always draws 0 hits and a = 1 always draws all of them, and
        theta -> pi/2 - theta maps one run's intervals onto the other's, so
        both must choose the same powers and spend the same oracle calls."""
        def powers_and_calls(good, epsilon, shots):
            rep = run_iqae(OracleSpec(n, good), epsilon, alpha, shots,
                           rng=np.random.default_rng(0))
            return [rec.k for rec in rep.rounds], rep.oracle_calls

        for epsilon in np.geomspace(0.2, 1e-7, 10):
            for shots in (1, 2, 16, 100, 1024):
                empty = powers_and_calls(0, float(epsilon), shots)
                assert powers_and_calls(2**n, float(epsilon), shots) == empty

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-5])
    @pytest.mark.parametrize("good", [0, 1, 2**19, 2**20 - 1, 2**20])
    def test_coverage_from_empty_to_full(self, good, epsilon):
        """The final interval misses a with probability at most alpha.  With
        coverage exactly 1 - alpha the misses of R runs are
        Binomial(R, alpha); the test allows up to that law's 0.999 quantile
        (13 of 100 at alpha = 0.05), so it fails a correct estimator on at
        most 0.1% of seed sets.  A cap hit fails it outright."""
        runs, alpha, a = 100, 0.05, good / 2**20
        misses = 0
        for seed in range(runs):
            rep = run_iqae(OracleSpec(20, good), epsilon, alpha, 100,
                           rng=np.random.default_rng(seed))
            misses += not rep.a_lo <= a <= rep.a_hi
        assert misses <= binom.ppf(0.999, runs, alpha)

    def test_deterministic_given_seed(self):
        rep1 = run_iqae(ORACLE, 0.01, 0.05, 128, rng=np.random.default_rng(77))
        rep2 = run_iqae(ORACLE, 0.01, 0.05, 128, rng=np.random.default_rng(77))
        assert rep1 == rep2

    def test_large_domain_matches_small(self):
        # 2**61 of 2**64 marked: the same theta as ORACLE, so the same draws
        large = OracleSpec.from_amplitude(64, A_TRUE)
        for seed in (77, 78):
            want = run_iqae(ORACLE, 0.005, 0.05, 128, rng=np.random.default_rng(seed))
            assert run_iqae(large, 0.005, 0.05, 128, rng=np.random.default_rng(seed)) == want

    def test_statevector_backend(self):
        rep = run_iqae(
            OracleSpec(6, 8),
            0.02,
            0.05,
            256,
            backend=StatevectorBackend(),
            rng=np.random.default_rng(13),
        )
        assert rep.a_hi - rep.a_lo <= 0.04
        assert rep.a_lo <= 0.125 <= rep.a_hi

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            run_iqae(ORACLE, 0.0, 0.05, 32, rng=rng)
        with pytest.raises(ValueError):
            run_iqae(ORACLE, 0.01, 0.0, 32, rng=rng)
        with pytest.raises(ValueError):
            run_iqae(ORACLE, 0.01, 1.0, 32, rng=rng)
        with pytest.raises(ValueError):
            run_iqae(ORACLE, 0.01, 0.05, 0, rng=rng)
        with pytest.raises(ValueError):
            run_iqae(ORACLE, 0.01, 0.05, 32, rng=rng, ratio=1)
