"""Seeded benchmark harness: accuracy and oracle cost over a shots ladder.

A sweep runs one estimator at several shot counts, repeats each cell with
independently derived generators, and reduces every cell to max/avg/min/std
summaries of the estimate, its relative error, and the oracle query count.
Summaries serialize to a fixed 13-column CSV and to whitespace plot tables.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import Backend, OracleSpec, make_backend
from .iqae import IterationCapError, check_alpha, check_ratio, max_rounds, run_iqae
from .mci import MciConfig, run_mci
from .mlqae import make_schedule, run_mlqae

__all__ = [
    "CSV_HEADER",
    "SHOTS_LADDER",
    "DEFAULT_SEED_BASE",
    "ExperimentConfig",
    "SummaryRow",
    "ReproduceCapError",
    "derive_rng",
    "summarize",
    "run_sweep",
    "emit_csv",
    "emit_plot_data",
    "PLOT_KINDS",
    "table_configs",
    "run_table",
]

SHOTS_LADDER = (16, 32, 64, 128, 256, 512, 1024)
DEFAULT_SEED_BASE = 1729

_ALGORITHM_IDS = {"mlqae": 1, "iqae": 2, "mci": 3}


class ReproduceCapError(RuntimeError):
    """A reproduction sweep hit the iteration cap; its table is not emitted."""


@dataclass
class ExperimentConfig:
    """One sweep: an estimator, its parameters, and the shots ladder.

    ``depth``/``schedule`` apply to MLQAE, ``epsilon``/``alpha``/``ratio``
    to IQAE; for MCI the shots ladder doubles as the sample-count ladder.
    """

    algorithm: str
    qubits: int = 10
    a_true: float = 0.125
    shots_list: tuple[int, ...] = SHOTS_LADDER
    repetitions: int = 30
    base_seed: int = 0
    backend: str = "analytic"
    depth: int = 3
    schedule: str = "eis"
    epsilon: float = 0.01
    alpha: float = 0.05
    ratio: int = 2

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHM_IDS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.qubits < 1:
            raise ValueError(f"qubits must be positive, got {self.qubits}")
        if not 0.0 < self.a_true <= 1.0:
            raise ValueError(f"a_true={self.a_true} outside (0, 1]")
        self.shots_list = tuple(int(s) for s in self.shots_list)
        if not self.shots_list or any(s < 1 for s in self.shots_list):
            raise ValueError(f"bad shots ladder {self.shots_list}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be positive, got {self.repetitions}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")
        make_backend(self.backend)  # raises on an unknown name
        if self.algorithm != "mci":
            # raises unless a_true * 2**qubits is an integer
            OracleSpec.from_amplitude(self.qubits, self.a_true)
        if self.algorithm == "mlqae":
            make_schedule(self.schedule, self.depth)
        elif self.algorithm == "iqae":
            max_rounds(self.epsilon)
            check_alpha(self.alpha)
            check_ratio(self.ratio)

    def oracle(self) -> OracleSpec:
        return OracleSpec.from_amplitude(self.qubits, self.a_true)


@dataclass(frozen=True)
class SummaryRow:
    """Per-cell statistics; ``capped`` counts repetitions that hit the
    iteration cap and is not part of the CSV schema."""

    shots: int
    max_a: float
    avg_a: float
    min_a: float
    std_a: float
    max_err_pct: float
    avg_err_pct: float
    min_err_pct: float
    std_err_pct: float
    max_calls: float
    avg_calls: float
    min_calls: float
    std_calls: float
    capped: int = 0


#: the 12 statistics after ``shots``, in column order; ``capped`` is not a column
_CSV_FIELDS = tuple(f.name for f in fields(SummaryRow))[1:-1]
CSV_HEADER = ",".join(("shots",) + _CSV_FIELDS)


def derive_rng(
    base_seed: int, algorithm: str, shots: int, repetition: int
) -> np.random.Generator:
    """Deterministic per-repetition generator, independent across repetitions.

    The four coordinates feed a SeedSequence entropy pool, so streams are
    reproducible across processes and changing one repetition's draw never
    perturbs another's.
    """
    if algorithm not in _ALGORITHM_IDS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    seq = np.random.SeedSequence(
        [base_seed, _ALGORITHM_IDS[algorithm], shots, repetition]
    )
    return np.random.default_rng(seq)


def summarize(values) -> tuple[float, float, float, float]:
    """(max, mean, min, population std) of a non-empty value sequence."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("nothing to summarize")
    return float(arr.max()), float(arr.mean()), float(arr.min()), float(arr.std())


def _run_once(
    config: ExperimentConfig,
    oracle: OracleSpec | None,
    backend: Backend | None,
    shots: int,
    rep: int,
) -> tuple[float, float, bool]:
    """One repetition of one cell: returns (a_hat, oracle_calls, capped).

    ``oracle`` and ``backend`` are the sweep's, unused (None) for MCI.
    """
    rng = derive_rng(config.base_seed, config.algorithm, shots, rep)
    if config.algorithm == "mci":
        estimate = run_mci(MciConfig(config.a_true, shots, 1), rng=rng)[0]
        return float(estimate), float(shots), False
    if config.algorithm == "mlqae":
        report = run_mlqae(
            oracle, config.depth, shots,
            kind=config.schedule, backend=backend, rng=rng,
        )
        return report.a_hat, float(report.oracle_calls), False
    try:
        report = run_iqae(
            oracle, config.epsilon, config.alpha, shots,
            backend=backend, rng=rng, ratio=config.ratio,
        )
        return report.a_hat, float(report.oracle_calls), False
    except IterationCapError as exc:
        partial = exc.report
        return partial.a_hat, float(partial.oracle_calls), True


def run_sweep(config: ExperimentConfig) -> list[SummaryRow]:
    """Run every (shots, repetition) cell in order and summarize per shots value.

    One oracle and one backend (which may memoize) serve every cell.
    """
    oracle = backend = None
    if config.algorithm != "mci":
        oracle = config.oracle()
        backend = make_backend(config.backend)
    rows: list[SummaryRow] = []
    for shots in config.shots_list:
        reps = range(config.repetitions)
        results = [_run_once(config, oracle, backend, shots, r) for r in reps]
        estimates, calls, capped = zip(*results)
        errors = [100.0 * abs(est - config.a_true) / config.a_true for est in estimates]
        rows.append(
            SummaryRow(
                shots,
                *summarize(estimates),
                *summarize(errors),
                *summarize(calls),
                capped=sum(capped),
            )
        )
    return rows


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def emit_csv(rows, stream) -> None:
    """Write the 13-column summary table (floats at six significant digits)."""
    stream.write(CSV_HEADER + "\n")
    for row in rows:
        fields = [str(row.shots)]
        fields += [_fmt(getattr(row, name)) for name in _CSV_FIELDS]
        stream.write(",".join(fields) + "\n")


PLOT_KINDS = {
    "err_vs_shots": ("shots", "avg_err_pct", "min_err_pct", "max_err_pct"),
    "a_vs_shots": ("shots", "avg_a", "min_a", "max_a"),
    "calls_vs_shots": ("shots", "avg_calls", "min_calls", "max_calls"),
    "err_vs_calls": ("avg_calls", "avg_err_pct", "min_err_pct", "max_err_pct"),
}


def emit_plot_data(rows, kind: str) -> str:
    """Whitespace-separated (x, y_avg, y_min, y_max) table with a '#' header."""
    try:
        names = PLOT_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown plot kind {kind!r}: expected one of {sorted(PLOT_KINDS)}"
        ) from None
    lines = ["# " + " ".join(names)]
    for row in rows:
        lines.append(" ".join(_fmt(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"


#: ``reproduce --table N``: one (file name, ExperimentConfig fields) per sweep
_TABLES = {
    1: [("table1.csv",
         dict(algorithm="mci", shots_list=(1024, 16384), repetitions=10_000))],
    2: [("table2.csv", dict(algorithm="mlqae", qubits=10, depth=3))],
    3: [("table3.csv", dict(algorithm="mlqae", qubits=10, depth=4))],
    4: [("table4_m3.csv", dict(algorithm="mlqae", qubits=14, depth=3)),
        ("table4_m4.csv", dict(algorithm="mlqae", qubits=14, depth=4))],
    5: [("table5.csv", dict(algorithm="iqae", qubits=10, epsilon=0.01))],
    6: [("table6.csv", dict(algorithm="iqae", qubits=10, epsilon=0.005))],
    7: [("table7.csv", dict(algorithm="iqae", qubits=14, epsilon=0.01))],
    8: [("table8.csv", dict(algorithm="iqae", qubits=14, epsilon=0.005))],
}


def table_configs(table: int) -> list[tuple[str, ExperimentConfig]]:
    """Sweep definitions behind ``reproduce --table N``: the rows of
    ``_TABLES`` (all at a = 0.125), at base seed 1729 + N."""
    if table not in _TABLES:
        raise ValueError(f"table must be 1..8, got {table}")
    seed = DEFAULT_SEED_BASE + table
    return [
        (name, ExperimentConfig(**kw, base_seed=seed)) for name, kw in _TABLES[table]
    ]


def run_table(table: int, out_dir) -> list[Path]:
    """Run the sweeps behind one reproduction table and write their CSVs.

    Raises ReproduceCapError if any repetition hit the iteration cap: the
    reference parameters never trigger it, so a cap means the run is not
    comparable and nothing partial is written for that sweep.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for filename, config in table_configs(table):
        rows = run_sweep(config)
        capped = sum(row.capped for row in rows)
        if capped:
            raise ReproduceCapError(
                f"{filename}: {capped} repetitions hit the iteration cap"
            )
        path = out / filename
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            emit_csv(rows, fh)
        written.append(path)
    return written
