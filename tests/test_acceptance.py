"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Every check prints its verdict and headline numbers to the real stdout (so
the lines survive pytest's capture) and then asserts the same conditions.
Statistical checks run on frozen seeds tied to the benchmark tables.
"""

import math
import time

import numpy as np
import pytest

from qaelab import (
    MciConfig,
    OracleSpec,
    StatevectorBackend,
    cli,
    run_iqae,
    run_mci,
    run_mlqae,
)
from qaelab.bench import DEFAULT_SEED_BASE, derive_rng
from qaelab.mlqae import MeasurementRecord, make_schedule, maximize_likelihood
from qaelab.verify import probe_iterate

A_TRUE = 0.125
ORACLE_10Q = OracleSpec(10, 128)

# base seeds of the benchmark tables these checks mirror
SEED_MCI = DEFAULT_SEED_BASE + 1
SEED_ML_10Q_D3 = DEFAULT_SEED_BASE + 2
SEED_ML_10Q_D4 = DEFAULT_SEED_BASE + 3
SEED_ML_14Q = DEFAULT_SEED_BASE + 4
SEED_IQ_10Q_E01 = DEFAULT_SEED_BASE + 5
SEED_IQ_10Q_E005 = DEFAULT_SEED_BASE + 6
SEED_IQ_14Q_E01 = DEFAULT_SEED_BASE + 7
SEED_IQ_14Q_E005 = DEFAULT_SEED_BASE + 8


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_verdicts_past_capture(capsys):
    """Let verdict lines reach the terminal even when pytest captures at the
    file-descriptor level."""
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _report(name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"[{verdict}] {name}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def _rel_err_pct(estimates, truth) -> float:
    arr = np.asarray(estimates, dtype=float)
    return float(np.mean(np.abs(arr - truth) / truth * 100.0))


def test_01_amplified_rotation_identity():
    """Simulated flag probability equals sin^2((2m+1) theta) across all
    domain sizes up to 6 qubits, all marked counts, and powers up to 8."""
    start = time.perf_counter()
    worst = 0.0
    checks = 0
    for n in range(1, 7):
        for good in range(2**n + 1):
            oracle = OracleSpec(n, good)
            backend = StatevectorBackend()
            for m in range(9):
                want = math.sin((2 * m + 1) * oracle.theta) ** 2
                worst = max(worst, abs(backend.flag_probability(oracle, m) - want))
                checks += 1
    elapsed = time.perf_counter() - start
    passed = worst < 1e-9 and elapsed < 10.0
    _report(
        "01 rotation identity",
        passed,
        f"worst deviation {worst:.2e} over {checks} checks ({elapsed:.1f}s)",
    )
    assert worst < 1e-9
    assert elapsed < 10.0


def test_02_iterate_unitarity():
    """The dense iterate recovered from column probes satisfies Q Q^dag = I."""
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 5):
        dim = 2 ** (n + 1)
        for good in range(2**n + 1):
            q = probe_iterate(OracleSpec(n, good))
            err = float(np.max(np.abs(q @ q.conj().T - np.eye(dim))))
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    passed = worst < 1e-10 and elapsed < 5.0
    _report(
        "02 iterate unitarity",
        passed,
        f"worst |QQ^dag - I| entry {worst:.2e} ({elapsed:.1f}s)",
    )
    assert worst < 1e-10
    assert elapsed < 5.0


def test_03_oracle_call_accounting():
    """Likelihood runs cost exactly 18x/35x shots at depths 3/4; iterative
    runs cost exactly the per-round sum shots*(2k+1)."""
    ml_ok = True
    for shots in (16, 100, 1024):
        for rep in range(3):
            r3 = run_mlqae(ORACLE_10Q, 3, shots, rng=derive_rng(11, "mlqae", shots, rep))
            r4 = run_mlqae(ORACLE_10Q, 4, shots, rng=derive_rng(12, "mlqae", shots, rep))
            ml_ok &= r3.oracle_calls == 18 * shots
            ml_ok &= r4.oracle_calls == 35 * shots
    iq_ok = True
    for eps, shots, rep in ((0.01, 1024, 0), (0.005, 1024, 1), (0.01, 64, 2), (0.02, 256, 3)):
        rng = derive_rng(13, "iqae", shots, rep)
        rep_iq = run_iqae(ORACLE_10Q, eps, 0.05, shots, rng=rng)
        iq_ok &= rep_iq.oracle_calls == sum(
            shots * (2 * rec.k + 1) for rec in rep_iq.rounds
        )
    passed = ml_ok and iq_ok
    _report(
        "03 oracle accounting",
        passed,
        f"likelihood exact multiples: {ml_ok}, iterative per-round sums: {iq_ok}",
    )
    assert ml_ok
    assert iq_ok


def test_04_classical_baseline_statistics():
    """Hit-or-miss baseline at 10^4 repetitions lands in the expected
    error and spread bands at 1024 and 16384 samples."""
    start = time.perf_counter()
    est_small = run_mci(MciConfig(A_TRUE, 1024, 10_000), rng=np.random.default_rng(404))
    rel_small = _rel_err_pct(est_small, A_TRUE)
    std_small = float(np.std(est_small))
    est_big = run_mci(MciConfig(A_TRUE, 16384, 10_000), rng=np.random.default_rng(405))
    rel_big = _rel_err_pct(est_big, A_TRUE)
    elapsed = time.perf_counter() - start
    passed = (
        6.0 <= rel_small <= 7.3
        and 0.0095 <= std_small <= 0.0112
        and 1.5 <= rel_big <= 1.9
        and elapsed < 30.0
    )
    _report(
        "04 classical baseline",
        passed,
        f"rel err {rel_small:.3f}% / {rel_big:.3f}% at 1024/16384 samples, "
        f"std {std_small:.5f} ({elapsed:.1f}s)",
    )
    assert 6.0 <= rel_small <= 7.3
    assert 0.0095 <= std_small <= 0.0112
    assert 1.5 <= rel_big <= 1.9
    assert elapsed < 30.0


def test_05_likelihood_estimator_accuracy():
    """Depth-4 likelihood estimation on the 10-qubit domain: mean estimate
    and mean relative error inside their bands at 1024 and 16 shots."""
    start = time.perf_counter()
    a_1024 = [
        run_mlqae(ORACLE_10Q, 4, 1024, rng=derive_rng(SEED_ML_10Q_D4, "mlqae", 1024, rep)).a_hat
        for rep in range(30)
    ]
    a_16 = [
        run_mlqae(ORACLE_10Q, 4, 16, rng=derive_rng(SEED_ML_10Q_D4, "mlqae", 16, rep)).a_hat
        for rep in range(30)
    ]
    mean_a = float(np.mean(a_1024))
    rel_1024 = _rel_err_pct(a_1024, A_TRUE)
    rel_16 = _rel_err_pct(a_16, A_TRUE)
    elapsed = time.perf_counter() - start
    passed = (
        0.123 <= mean_a <= 0.127
        and rel_1024 <= 0.6
        and rel_16 <= 7.0
        and elapsed < 120.0
    )
    _report(
        "05 likelihood accuracy",
        passed,
        f"mean a {mean_a:.5f}, rel err {rel_1024:.3f}% @1024 / {rel_16:.2f}% @16 "
        f"shots ({elapsed:.1f}s)",
    )
    assert 0.123 <= mean_a <= 0.127
    assert rel_1024 <= 0.6
    assert rel_16 <= 7.0
    assert elapsed < 120.0


def test_06_iterative_estimator_accuracy_and_cost():
    """Iterative estimation at 0.01 half-width: sub-percent mean error,
    oracle cost within a factor of two of its reference, and every final
    interval no wider than twice the target."""
    rels, calls, widths = [], [], []
    for rep in range(30):
        rng = derive_rng(SEED_IQ_10Q_E01, "iqae", 1024, rep)
        report = run_iqae(ORACLE_10Q, 0.01, 0.05, 1024, rng=rng)
        rels.append(abs(report.a_hat - A_TRUE) / A_TRUE * 100.0)
        calls.append(report.oracle_calls)
        widths.append(report.a_hi - report.a_lo)
    mean_rel = float(np.mean(rels))
    mean_calls = float(np.mean(calls))
    max_width = max(widths)
    passed = mean_rel <= 1.0 and 8226 <= mean_calls <= 32904 and max_width <= 0.02
    _report(
        "06 iterative accuracy/cost",
        passed,
        f"rel err {mean_rel:.3f}%, mean calls {mean_calls:.0f}, "
        f"max interval width {max_width:.4f}",
    )
    assert mean_rel <= 1.0
    assert 8226 <= mean_calls <= 32904
    assert max_width <= 0.02


def test_07_iterative_estimator_coverage():
    """Across 500 seeded runs the reported interval contains the true
    amplitude at least 90% of the time."""
    covered = 0
    for rep in range(500):
        rng = derive_rng(SEED_IQ_10Q_E01, "iqae", 128, rep)
        report = run_iqae(ORACLE_10Q, 0.01, 0.05, 128, rng=rng)
        if report.a_lo <= A_TRUE <= report.a_hi:
            covered += 1
    passed = covered >= 450
    _report("07 interval coverage", passed, f"{covered}/500 runs covered the truth")
    assert covered >= 450


def _mlqae_budget_case(base_seed: int, qubits: int, depth: int):
    oracle = OracleSpec.from_amplitude(qubits, A_TRUE)
    errs, calls = [], []
    for rep in range(30):
        report = run_mlqae(
            oracle, depth, 1024, rng=derive_rng(base_seed, "mlqae", 1024, rep)
        )
        errs.append(abs(report.a_hat - A_TRUE) / A_TRUE * 100.0)
        calls.append(report.oracle_calls)
    return float(np.mean(errs)), float(np.mean(calls))


def _iqae_budget_case(base_seed: int, qubits: int, epsilon: float):
    oracle = OracleSpec.from_amplitude(qubits, A_TRUE)
    errs, calls = [], []
    for rep in range(30):
        report = run_iqae(
            oracle, epsilon, 0.05, 1024, rng=derive_rng(base_seed, "iqae", 1024, rep)
        )
        errs.append(abs(report.a_hat - A_TRUE) / A_TRUE * 100.0)
        calls.append(report.oracle_calls)
    return float(np.mean(errs)), float(np.mean(calls))


def _mci_at_budget(samples: int) -> float:
    rng = derive_rng(SEED_MCI, "mci", samples, 0)
    estimates = run_mci(MciConfig(A_TRUE, samples, 10_000), rng=rng)
    return _rel_err_pct(estimates, A_TRUE)


def test_08_quantum_beats_classical_at_matched_budget():
    """At each estimator's own mean oracle budget the classical baseline is
    at least twice as inaccurate, on the 10- and 14-qubit domains alike."""
    cases = []
    for qubits, seeds in (
        (10, (SEED_ML_10Q_D3, SEED_ML_10Q_D4, SEED_IQ_10Q_E01, SEED_IQ_10Q_E005)),
        (14, (SEED_ML_14Q, SEED_ML_14Q, SEED_IQ_14Q_E01, SEED_IQ_14Q_E005)),
    ):
        cases.append((qubits, "depth3", *_mlqae_budget_case(seeds[0], qubits, 3)))
        cases.append((qubits, "depth4", *_mlqae_budget_case(seeds[1], qubits, 4)))
        cases.append((qubits, "eps.01", *_iqae_budget_case(seeds[2], qubits, 0.01)))
        cases.append((qubits, "eps.005", *_iqae_budget_case(seeds[3], qubits, 0.005)))
    ratios = []
    for qubits, tag, err, calls in cases:
        baseline = _mci_at_budget(int(round(calls)))
        ratios.append((f"{qubits}q/{tag}", err / baseline))
    worst_tag, worst_ratio = max(ratios, key=lambda item: item[1])
    passed = all(ratio <= 0.5 for _, ratio in ratios)
    _report(
        "08 matched-budget ordering",
        passed,
        f"worst error ratio {worst_ratio:.3f} at {worst_tag} "
        f"(limit 0.5, {len(ratios)} cases)",
    )
    for tag, ratio in ratios:
        assert ratio <= 0.5, f"{tag}: quantum/classical error ratio {ratio:.3f}"


def test_09_likelihood_estimator_consistency():
    """With exact-expectation hit counts the likelihood maximizer recovers
    50 random amplitudes to within 1e-3."""
    rng = np.random.default_rng(2718)
    powers = make_schedule("eis", 4)
    shots = 10_000
    worst = 0.0
    for _ in range(50):
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        record = MeasurementRecord(
            powers, shots, [shots * math.sin((2 * m + 1) * theta) ** 2 for m in powers])
        theta_hat = maximize_likelihood(record)
        worst = max(worst, abs(math.sin(theta_hat) ** 2 - math.sin(theta) ** 2))
    passed = worst < 1e-3
    _report("09 estimator consistency", passed, f"worst |a_hat - a*| = {worst:.2e}")
    assert worst < 1e-3


def test_10_reproduction_is_byte_identical(tmp_path):
    """Running the same reference table twice produces byte-identical CSV."""
    dir_a = tmp_path / "first"
    dir_b = tmp_path / "second"
    rc_a = cli.main(["reproduce", "--table", "5", "--out", str(dir_a)])
    rc_b = cli.main(["reproduce", "--table", "5", "--out", str(dir_b)])
    bytes_a = (dir_a / "table5.csv").read_bytes()
    bytes_b = (dir_b / "table5.csv").read_bytes()
    passed = rc_a == 0 and rc_b == 0 and bytes_a == bytes_b
    _report(
        "10 reproduction determinism",
        passed,
        f"two runs, {len(bytes_a)} bytes each, identical: {bytes_a == bytes_b}",
    )
    assert rc_a == 0 and rc_b == 0
    assert bytes_a == bytes_b
