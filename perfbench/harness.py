"""Workloads, output checks and measured phases of the qaelab benchmark.

A workload is a list of sweeps, each one ``ExperimentConfig`` for
``qaelab.bench.run_sweep`` with ``jobs=1``.  A run of the benchmark goes
through these phases:

1. a capture pass, untimed, which runs each IQAE sweep once with
   ``run_iqae`` wrapped so that each run's report can be checked;
2. the untraced phase, which cycles through the sweeps with nothing wrapped,
   one ``run_sweep`` call per shots value (a cell), until the time is up,
   keeping each cell's wall time, also divided by :func:`calibrate`'s;
3. with tracing on, one traced pass under :class:`perfbench.tracer.Tracer`.

The checks then run on each sweep's reference rows, and every execution in
every phase must reproduce the reference CSV digest.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np
import scipy
from scipy.stats import beta

from qaelab import bench
from qaelab.bench import ExperimentConfig
from qaelab.iqae import IterationCapError

from .tracer import Tracer, rebound

A_TRUE = 0.125
DEFAULT_SEED = bench.DEFAULT_SEED_BASE
#: sv_sweep's estimator seed, fixed: see README.md, "Seeds"
SV_SEED = DEFAULT_SEED + 9
WORKLOADS = ("mci_baseline", "mlqae_tables", "iqae_tables", "sv_sweep")

#: (unit, better) of every end-to-end metric, reported with tracing off
END_TO_END = {
    "setup_s": ("s", "lower"),
    "runs_per_s": ("runs/s", "higher"),
    "oracle_calls_per_run": ("calls", "lower"),
    "err_pct_mean": ("%", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: counters the tracer keeps beside its spans
COUNTERS = (
    "core.analytic_probability.calls",
    "mlqae.log_likelihood.points",
    "iqae.cap_hits",
    "iqae.intersect_collapses",
    "iqae.interval_misses",
    "mci.samples",
)

#: (unit, better) of every per-layer metric, reported by the traced phase;
#: ``<span>.calls``, ``<span>.s`` and ``<span>.self_s`` are span totals
PER_LAYER = {
    "core.apply_q.calls": ("count", "lower"),
    "core.apply_q.s": ("s", "lower"),
    "core.prepare_a.calls": ("count", "lower"),
    "core.prepare_a.s": ("s", "lower"),
    "core.sv_probability.calls": ("count", "lower"),
    "core.sv_probability.s": ("s", "lower"),
    "core.analytic_probability.calls": ("count", "lower"),
    "core.measure_flag.self_s": ("s", "lower"),
    "core.oracle_build.calls": ("count", "lower"),
    "core.oracle_build.s": ("s", "lower"),
    "mlqae.maximize_likelihood.calls": ("count", "lower"),
    "mlqae.maximize_likelihood.s": ("s", "lower"),
    "mlqae.log_likelihood.calls": ("count", "lower"),
    "mlqae.log_likelihood.s": ("s", "lower"),
    "mlqae.log_likelihood.points": ("count", "lower"),
    "mlqae.run.self_s": ("s", "lower"),
    "iqae.binomial_confidence.calls": ("count", "lower"),
    "iqae.binomial_confidence.s": ("s", "lower"),
    "iqae.find_next_k.calls": ("count", "lower"),
    "iqae.find_next_k.s": ("s", "lower"),
    "iqae.invert_to_theta.s": ("s", "lower"),
    "iqae.run.self_s": ("s", "lower"),
    "iqae.cap_hits": ("count", "lower"),
    "iqae.intersect_collapses": ("count", "lower"),
    "iqae.interval_misses": ("count", "lower"),
    "mci.run_mci.calls": ("count", "lower"),
    "mci.run_mci.s": ("s", "lower"),
    "mci.samples": ("count", "lower"),
    "mci.ns_per_sample": ("ns", "lower"),
    "bench.derive_rng.calls": ("count", "lower"),
    "bench.derive_rng.s": ("s", "lower"),
    "bench.summarize.s": ("s", "lower"),
    "bench.emit_csv.s": ("s", "lower"),
    "bench.overhead_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.untraced_runs_per_s": ("runs/s", "higher"),
    "trace.traced_runs_per_s": ("runs/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}

# glibc's sysconf names for the cache sizes, which Python does not export
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194
_PROBES = 3


@dataclass(frozen=True)
class Sweep:
    """One ``run_sweep`` call of a workload, named after the table it mirrors."""

    name: str
    config: ExperimentConfig
    table: int | None = None

    @property
    def runs(self) -> int:
        return len(self.config.shots_list) * self.config.repetitions


def workload(name: str, seed: int) -> list[Sweep]:
    """The sweeps of workload ``name``; table N uses base seed ``seed + N``."""
    if name == "mci_baseline":
        return [Sweep("table1", ExperimentConfig(
            "mci", shots_list=(1024, 16384), repetitions=10_000, base_seed=seed + 1), 1)]
    if name == "mlqae_tables":
        return [
            Sweep(f"table{table}{suffix}", ExperimentConfig(
                "mlqae", qubits=qubits, depth=depth, base_seed=seed + table), table)
            for table, suffix, qubits, depth in (
                (2, "", 10, 3), (3, "", 10, 4), (4, "_m3", 14, 3), (4, "_m4", 14, 4))
        ]
    if name == "iqae_tables":
        return [
            Sweep(f"table{table}", ExperimentConfig(
                "iqae", qubits=qubits, epsilon=epsilon, base_seed=seed + table), table)
            for table, qubits, epsilon in (
                (5, 10, 0.01), (6, 10, 0.005), (7, 14, 0.01), (8, 14, 0.005))
        ]
    if name == "sv_sweep":
        return [
            Sweep("sv_mlqae", ExperimentConfig(
                "mlqae", qubits=16, backend="sv", depth=4, repetitions=1,
                base_seed=SV_SEED)),
            Sweep("sv_iqae", ExperimentConfig(
                "iqae", qubits=16, backend="sv", epsilon=0.01, repetitions=1,
                base_seed=SV_SEED)),
        ]
    raise ValueError(f"unknown workload {name!r}: expected one of {WORKLOADS}")


def csv_digest(rows) -> str:
    """sha256 of the sweep's CSV, written by ``qaelab.bench.emit_csv``."""
    buffer = io.StringIO()
    bench.emit_csv(rows, buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


# ---------------------------------------------------------------- checks


def eis_calls(depth: int) -> int:
    """Oracle calls per shot of one MLQAE run on the EIS schedule (every
    workload's): the sum of 2m+1 over the powers 0, 1, 2, 4, ..."""
    return sum(2 * m + 1 for m in [0] + [2**j for j in range(depth)])


def cell_errors(config: ExperimentConfig, row) -> list[str]:
    """Why a cell's runs are wrong, from its summary row: every estimate
    finite and in [0, 1], and the call count every run must have."""
    errors = []
    if not (math.isfinite(row.min_a) and math.isfinite(row.max_a)
            and 0.0 <= row.min_a and row.max_a <= 1.0):
        errors.append(f"estimates {row.min_a!r}..{row.max_a!r} outside [0, 1]")
    if config.algorithm == "mlqae":
        want = row.shots * eis_calls(config.depth)
    elif config.algorithm == "mci":
        want = row.shots
    else:
        return errors
    if not row.min_calls == row.max_calls == want:
        errors.append(f"calls {row.min_calls:g}..{row.max_calls:g}, expected {want}")
    return errors


def iqae_run_errors(config: ExperimentConfig, shots: int, report, capped: bool) -> list[str]:
    """Why one IQAE run is wrong: the cap, a final width over 2*epsilon, or
    calls that are not the sum of shots*(2k+1) over its rounds."""
    errors = []
    if not (math.isfinite(report.a_hat) and 0.0 <= report.a_hat <= 1.0):
        errors.append(f"estimate {report.a_hat!r} outside [0, 1]")
    if capped:
        errors.append("hit the round cap")
    elif report.a_hi - report.a_lo > 2.0 * config.epsilon:
        errors.append(f"final width {report.a_hi - report.a_lo:.6g} > 2*epsilon")
    want = sum(shots * (2 * record.k + 1) for record in report.rounds)
    if report.oracle_calls != want:
        errors.append(f"{report.oracle_calls} oracle calls, rounds sum to {want}")
    return errors


def classical_err_pct(samples: float) -> float:
    """Expected mean relative error (%) of hit-or-miss at ``samples`` points,
    from the normal approximation E|X - a| = sqrt(2/pi) * sd."""
    sd = math.sqrt(A_TRUE * (1.0 - A_TRUE) / samples)
    return 100.0 * math.sqrt(2.0 / math.pi) * sd / A_TRUE


def band_errors(table: int | None, rows, log, own_seed: bool) -> list[str]:
    """The bands ``tests/test_acceptance.py`` asserts for reproduction table
    ``table`` (tests 04-08), with the numbers copied from there.

    Test 08 compares with a simulated baseline at the estimator's mean
    budget; here the baseline error comes from :func:`classical_err_pct`.
    That band is a 30-run statistic: away from the table's own seed it
    fails for about 1 seed in 70 (depth 3) to 1 in 200 (IQAE), so it is
    enforced only at the table's own seed (``own_seed``).
    """
    at = {row.shots: row for row in rows}
    bands = []
    if table == 1:
        bands += [
            ("rel err % at 1024", at[1024].avg_err_pct, 6.0, 7.3),
            ("std at 1024", at[1024].std_a, 0.0095, 0.0112),
            ("rel err % at 16384", at[16384].avg_err_pct, 1.5, 1.9),
        ]
    elif table is not None and own_seed:
        ratio = at[1024].avg_err_pct / classical_err_pct(at[1024].avg_calls)
        bands.append(("error ratio to classical at matched budget", ratio, 0.0, 0.5))
    if table == 3:
        bands += [
            ("mean a at 1024", at[1024].avg_a, 0.123, 0.127),
            ("rel err % at 1024", at[1024].avg_err_pct, 0.0, 0.6),
            ("rel err % at 16", at[16].avg_err_pct, 0.0, 7.0),
        ]
    if table == 5:
        covered = sum(report.a_lo <= A_TRUE <= report.a_hi for report, _ in log)
        bands += [
            ("rel err % at 1024", at[1024].avg_err_pct, 0.0, 1.0),
            ("mean calls at 1024", at[1024].avg_calls, 8226, 32904),
            ("interval coverage", covered / len(log), 0.9, 1.0),
        ]
    return [
        f"{label} = {value:.6g} outside [{lo}, {hi}]"
        for label, value, lo, hi in bands
        if not lo <= value <= hi
    ]


def capture_pass(sweeps) -> dict:
    """Run each IQAE sweep once, untimed, with ``run_iqae`` wrapped to log
    every run's report and whether it hit the cap: ``{name: (rows, log)}``.

    The reports carry what the summary rows lack (the final interval and the
    rounds); the other estimators are checked from their rows alone.
    """
    captured = {}
    for sweep in sweeps:
        if sweep.config.algorithm != "iqae":
            continue
        log: list = []

        def make(original, log=log):
            @functools.wraps(original)
            def capturing(*args, **kwargs):
                try:
                    report = original(*args, **kwargs)
                except IterationCapError as exc:
                    log.append((exc.report, True))
                    raise
                log.append((report, False))
                return report

            return capturing

        with rebound([(bench, "run_iqae", make)]):
            rows = bench.run_sweep(sweep.config)
        captured[sweep.name] = (rows, log)
    return captured


#: seconds :func:`calibrate` takes at the reference machine speed
REFERENCE_S = 0.01
_GRID = np.linspace(0.0, 1.5, 20_000)
_STATE = np.ones(1 << 17, dtype=np.complex128)


def calibrate() -> float:
    """Seconds taken by a fixed mix of the work the workloads do: interpreter
    loops, numpy on small and 2 MiB arrays, scipy quantiles, uniform draws."""
    t0 = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    for _ in range(4):
        np.log(np.maximum(np.sin(3.0 * _GRID) ** 2, 1e-300))
    for i in range(8):
        beta.ppf(0.025, 10 + i, 90)
    pairs = _STATE.reshape(-1, 2, 1024)
    for _ in range(3):
        pairs[:, 0, :] + pairs[:, 1, :]
        pairs[:, 0, :] - pairs[:, 1, :]
    rng = np.random.default_rng(0)
    for _ in range(10):
        np.count_nonzero(rng.random((16384, 2))[:, 1] < 0.125)
    return time.perf_counter() - t0


@dataclass
class Phase:
    """Executions of the sweeps in one phase: wall seconds per (sweep, shots)
    cell, the same over the mean of the calibrations just before and after,
    the rows of each sweep's first execution, and every CSV digest."""

    wall: dict
    scaled: dict
    rows: dict
    digests: dict
    attempted: int = 0

    def runs_per_s(self, sweeps) -> tuple[float, float]:
        """(calibrated, wall) runs of one pass over the summed per-cell medians."""
        runs = sum(sweep.runs for sweep in sweeps)
        scaled = sum(statistics.median(times) for times in self.scaled.values())
        wall = sum(statistics.median(times) for times in self.wall.values())
        return runs / (REFERENCE_S * scaled), runs / wall


def run_phase(sweeps, seconds: float) -> Phase:
    """Cycle through the sweeps, one ``run_sweep`` call per shots value, for
    at least ``seconds`` and one full pass; ``seconds=0`` is one pass."""
    phase = Phase(defaultdict(list), defaultdict(list), {}, defaultdict(list))
    start = time.perf_counter()
    before = calibrate()
    done = 0
    while done < len(sweeps) or time.perf_counter() - start < seconds:
        sweep = sweeps[done % len(sweeps)]
        rows = []
        for shots in sweep.config.shots_list:
            cell = replace(sweep.config, shots_list=(shots,))
            t0 = time.perf_counter()
            rows += bench.run_sweep(cell)
            wall = time.perf_counter() - t0
            after = calibrate()
            phase.wall[sweep.name, shots].append(wall)
            phase.scaled[sweep.name, shots].append(2.0 * wall / (before + after))
            before = after
        phase.rows.setdefault(sweep.name, rows)
        phase.digests[sweep.name].append(csv_digest(rows))
        phase.attempted += sweep.runs
        done += 1
    return phase


@dataclass
class SweepCheck:
    """Checked outcome of one sweep over every phase of a run."""

    sweep: Sweep
    rows: list
    digest: str
    failed: int
    problems: list[str]


def check_sweep(sweep: Sweep, captured, phases) -> SweepCheck:
    """Check a sweep's reference rows (the captured execution's for IQAE,
    otherwise the first timed one's) and that every execution repeats them.

    A cell error fails the cell's runs, a run error that run, a band error
    the whole sweep, and an execution with another digest all of its runs.
    """
    config = sweep.config
    reps = config.repetitions
    if captured is not None:
        rows, log = captured
    else:
        rows, log = phases[0].rows[sweep.name], None
    problems = []
    failed = [False] * sweep.runs
    for index, row in enumerate(rows):
        errors = cell_errors(config, row)
        if errors:
            failed[index * reps:(index + 1) * reps] = [True] * reps
            problems.append(f"shots={row.shots}: " + "; ".join(errors))
    if log is not None:
        if len(log) != sweep.runs:
            problems.append(f"{len(log)} estimator calls for {sweep.runs} runs")
            failed = [True] * sweep.runs
        for index, (report, capped) in enumerate(log[:sweep.runs]):
            shots = config.shots_list[index // reps]
            errors = iqae_run_errors(config, shots, report, capped)
            if errors:
                failed[index] = True
                problems.append(f"shots={shots} rep={index % reps}: " + "; ".join(errors))
    own_seed = sweep.table is not None and config.base_seed == DEFAULT_SEED + sweep.table
    if [row.shots for row in rows] != list(config.shots_list):
        sweep_errors = [f"rows for shots {[row.shots for row in rows]}"]
    else:
        sweep_errors = band_errors(sweep.table, rows, log or [], own_seed)
    if sweep_errors:
        problems += sweep_errors
        failed = [True] * sweep.runs
    digest = csv_digest(rows)
    others = [d for phase in phases for d in phase.digests[sweep.name]]
    differing = sum(d != digest for d in others)
    if differing:
        problems.append(f"{differing} executions did not reproduce the CSV")
    return SweepCheck(sweep, rows, digest, sum(failed) + differing * sweep.runs, problems)


def mean_over_runs(checks, field: str) -> float:
    """Mean over every run of the checked sweeps, from their per-cell means."""
    total = runs = 0
    for check in checks:
        reps = check.sweep.config.repetitions
        total += sum(getattr(row, field) for row in check.rows) * reps
        runs += len(check.rows) * reps
    return total / runs


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced pass, except the cli and trace ones."""
    totals = tracer.layer_totals()
    values = {}
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if name in COUNTERS:
            values[name] = tracer.counts[name]
        elif stat in ("calls", "s", "self_s"):
            values[name] = totals.get(span, {}).get(stat, 0)
    samples = tracer.counts["mci.samples"]
    values["mci.ns_per_sample"] = 1e9 * values["mci.run_mci.s"] / samples if samples else 0.0
    values["bench.overhead_s"] = totals.get("bench.run_sweep", {}).get("self_s", 0.0)
    return values


def dominant_layer(tracer: Tracer) -> tuple[str, float]:
    """Span name with the largest self time, and its share of all self time."""
    totals = tracer.layer_totals()
    name = max(totals, key=lambda key: totals[key]["self_s"])
    whole = sum(entry["self_s"] for entry in totals.values())
    return name, 100.0 * totals[name]["self_s"] / whole


def fresh_process_seconds(command) -> float:
    """Median wall time of ``command`` over a few fresh processes."""
    times = []
    for _ in range(_PROBES):
        t0 = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm_up(sweeps) -> None:
    """The set-up's tiny estimator call: one repetition of the first cell."""
    config = sweeps[0].config
    bench.run_sweep(replace(config, shots_list=config.shots_list[:1], repetitions=1))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts(sweeps) -> dict:
    """Facts that bound what the figures can claim."""

    def sysconf(key):
        try:
            value = os.sysconf(key)
        except (ValueError, OSError):
            return None
        return value if value > 0 else None

    l3 = sysconf(_SC_LEVEL3_CACHE_SIZE)
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l2_bytes_per_core": sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": l3,
    }
    sv_qubits = [sweep.config.qubits for sweep in sweeps if sweep.config.backend == "sv"]
    if sv_qubits:
        # complex128 amplitudes over n domain qubits plus the flag
        state = 16 << (max(sv_qubits) + 1)
        facts["sv_state_bytes_computed"] = state
        facts["sv_state_residency"] = (
            "cache-resident: fits L3, so no bandwidth claim"
            if l3 and state <= l3 else "larger than L3")
    return facts
