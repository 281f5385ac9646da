"""Self-test of the benchmark harness: ``python3 perfbench/run.py --selftest``.

Checks the self-time arithmetic on a hand-built span tree, that tracing
and capturing leave no wrapper behind and change no output (also when a
sweep runs cell by cell), that the output checks reject doctored reports,
rows and CSV digests, and that ``BENCHMARK.json`` names the
harness's workloads and metrics.  Prints one line per check; exits 1 if
any fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

from qaelab import bench
from qaelab.bench import ExperimentConfig, SummaryRow
from qaelab.iqae import ConfidenceInterval, IqaeReport, RoundRecord

from . import harness
from .run import ROOT
from .tracer import Tracer, self_times


def check_self_times() -> list[str]:
    # root 0..10 with children 1..3 and 2..6 (overlapping) and 8..12
    # (sticking out); the 2..6 child has its own child 3..4
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 6.0, 0],
        ["c", 3.0, 4.0, 2],
        ["d", 8.0, 12.0, 0],
    ]
    want = [10.0 - 5.0 - 2.0, 2.0, 3.0, 1.0, 4.0]
    got = self_times(spans)
    if any(not math.isclose(g, w) for g, w in zip(got, want)):
        return [f"self times {got}, expected {want}"]
    return []


def check_wrappers_removed() -> list[str]:
    tracer = Tracer()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracer.sites()]
    sweeps = [
        harness.Sweep("tiny_mlqae", ExperimentConfig(
            "mlqae", qubits=4, shots_list=(16, 64), repetitions=2, depth=2)),
        harness.Sweep("tiny_iqae", ExperimentConfig(
            "iqae", qubits=4, backend="sv", shots_list=(64,), repetitions=2)),
        harness.Sweep("tiny_mci", ExperimentConfig(
            "mci", shots_list=(32,), repetitions=3)),
    ]
    whole = {sweep.name: harness.csv_digest(bench.run_sweep(sweep.config))
             for sweep in sweeps}
    captured = harness.capture_pass(sweeps)
    with tracer.installed():
        traced = harness.run_phase(sweeps, 0.0)
    problems = [
        f"{getattr(owner, '__name__', owner)}.{attr} still wrapped"
        for owner, attr, original in originals
        if vars(owner)[attr] is not original
    ]
    if traced.digests != {name: [digest] for name, digest in whole.items()}:
        problems.append("traced cells did not reproduce the whole sweeps' CSV")
    if harness.csv_digest(captured["tiny_iqae"][0]) != whole["tiny_iqae"]:
        problems.append("the capture pass changed the CSV")
    if tracer.counts["mci.samples"] != 96 or not tracer.spans:
        problems.append("traced pass recorded nothing")
    return problems


def _expect_rejected(label, errors) -> list[str]:
    return [] if errors else [f"doctored {label} passed the checks"]


def check_output_checks() -> list[str]:
    ml_config = ExperimentConfig("mlqae", depth=4)
    iq_config = ExperimentConfig("iqae", epsilon=0.01)
    ml_row = SummaryRow(64, 0.15, 0.125, 0.1, 0.01, 20.0, 3.0, 0.0, 2.0,
                        35 * 64.0, 35 * 64.0, 35 * 64.0, 0.0)
    interval = ConfidenceInterval(0.35, 0.36)
    good_iq = IqaeReport(0.125, 0.12, 0.13, 64 * 3, (RoundRecord(1, True, 64, 10, interval),),
                         0.01, 0.05)
    problems = []
    if harness.cell_errors(ml_config, ml_row):
        problems.append("a correct MLQAE row was rejected")
    if harness.iqae_run_errors(iq_config, 64, good_iq, False):
        problems.append("a correct IQAE report was rejected")
    problems += _expect_rejected("MLQAE call count", harness.cell_errors(
        ml_config, replace(ml_row, min_calls=34 * 64.0)))
    problems += _expect_rejected("MLQAE a_hat > 1", harness.cell_errors(
        ml_config, replace(ml_row, max_a=1.5)))
    problems += _expect_rejected("MLQAE a_hat NaN", harness.cell_errors(
        ml_config, replace(ml_row, max_a=float("nan"))))
    problems += _expect_rejected("IQAE a_hat < 0", harness.iqae_run_errors(
        iq_config, 64, replace(good_iq, a_hat=-0.1), False))
    problems += _expect_rejected("IQAE width", harness.iqae_run_errors(
        iq_config, 64, replace(good_iq, a_hi=0.2), False))
    problems += _expect_rejected("IQAE call count", harness.iqae_run_errors(
        iq_config, 64, replace(good_iq, oracle_calls=64), False))
    problems += _expect_rejected("IQAE cap", harness.iqae_run_errors(
        iq_config, 64, good_iq, True))
    mci_config = ExperimentConfig("mci", shots_list=(1024, 16384))
    row = SummaryRow(1024, 0.15, 0.125, 0.1, 0.0103, 20.0, 6.6, 0.0, 5.0,
                     1024.0, 1024.0, 1024.0, 0.0)
    rows = [row, replace(row, shots=16384, avg_err_pct=1.65, max_calls=16384.0,
                         avg_calls=16384.0, min_calls=16384.0)]
    if any(harness.cell_errors(mci_config, r) for r in rows) or harness.band_errors(
            1, rows, [], True):
        problems.append("correct table 1 rows were rejected")
    problems += _expect_rejected("MCI calls", harness.cell_errors(
        mci_config, replace(row, max_calls=2048.0)))
    problems += _expect_rejected("table 1 error band", harness.band_errors(
        1, [replace(row, avg_err_pct=9.0), rows[1]], [], True))
    sweep = harness.Sweep("tiny", ExperimentConfig(
        "mlqae", qubits=4, shots_list=(16,), repetitions=2, depth=2))
    phase = harness.run_phase([sweep], 0.0)
    if harness.check_sweep(sweep, None, [phase]).failed:
        problems.append("a reproducible sweep was rejected")
    phase.digests["tiny"].append("0" * 64)
    if harness.check_sweep(sweep, None, [phase]).failed != sweep.runs:
        problems.append("an execution with another CSV digest passed the checks")
    return problems


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(harness.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the harness")
    for key, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} metrics differ from the harness")
    return problems


CHECKS = {
    "self time on a hand-built span tree": check_self_times,
    "wrappers removed after tracing": check_wrappers_removed,
    "output checks reject doctored reports": check_output_checks,
    "BENCHMARK.json matches the harness": check_benchmark_json,
}


def main() -> int:
    failures = 0
    for label, check in CHECKS.items():
        problems = check()
        failures += bool(problems)
        print(("FAIL " if problems else "ok   ") + label)
        for problem in problems:
            print("     " + problem)
    return 1 if failures else 0
