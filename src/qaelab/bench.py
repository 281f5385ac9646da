"""Seeded benchmark harness: accuracy and oracle cost over a shots ladder.

A sweep runs one estimator at several shot counts, repeats each cell with
independently derived generators, and reduces every cell to max/avg/min/std
summaries of the estimate, its relative error, and the oracle query count.
Summaries serialize to a fixed 13-column CSV.  This module computes and
serializes rows only; the command line opens files and prints diagnostics.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .core import Backend, OracleSpec, check_shots, make_backend
from .iqae import IterationCapError, _max_power, check_alpha, max_rounds, run_iqae
from .mci import MciConfig, run_mci
# run_mlqae is not called here; perfbench's tracer rebinds it under this name
from .mlqae import make_schedule, oracle_call_count, run_mlqae, run_mlqae_cell  # noqa: F401

__all__ = [
    "CSV_HEADER",
    "SHOTS_LADDER",
    "DEFAULT_SEED_BASE",
    "ExperimentConfig",
    "SummaryRow",
    "derive_rng",
    "derive_rngs",
    "summarize",
    "run_sweep",
    "emit_csv",
    "table_configs",
]

SHOTS_LADDER = (16, 32, 64, 128, 256, 512, 1024)
DEFAULT_SEED_BASE = 1729

_ALGORITHM_IDS = {"mlqae": 1, "iqae": 2, "mci": 3}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: an estimator, its parameters, and the shots ladder.

    ``depth``/``schedule`` apply to MLQAE, ``epsilon``/``alpha`` to IQAE
    (whose power at least doubles whenever it grows); for MCI the shots
    ladder doubles as the sample-count ladder.
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

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHM_IDS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.qubits < 1:
            raise ValueError(f"qubits must be positive, got {self.qubits}")
        if not 0.0 < self.a_true <= 1.0:
            raise ValueError(f"a_true={self.a_true} outside (0, 1]")
        object.__setattr__(self, "shots_list", tuple(int(s) for s in self.shots_list))
        if not self.shots_list or any(s < 1 for s in self.shots_list):
            raise ValueError(f"bad shots ladder {self.shots_list}")
        check_shots(max(self.shots_list))
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be positive, got {self.repetitions}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")
        backend = make_backend(self.backend)  # raises on an unknown name
        if self.algorithm == "mci":
            return
        # raises unless a_true * 2**qubits is an integer
        oracle = OracleSpec.from_amplitude(self.qubits, self.a_true)
        try:
            backend.check_oracle(oracle)
        except ValueError as exc:
            raise ValueError(f"qubits: {exc}") from None
        if self.algorithm == "mlqae":
            schedule = make_schedule(self.schedule, self.depth)
            shots = max(self.shots_list)
            # a cell's summary sums its repetitions' call counts as floats
            calls = oracle_call_count(schedule, shots) * self.repetitions
            if calls > sys.float_info.max:
                raise ValueError(
                    f"depth {self.depth} at {shots} shots and {self.repetitions} "
                    f"repetitions makes at least 2**{calls.bit_length() - 1} oracle "
                    "calls, more than a float holds"
                )
            knob, iterates = f"m = {self.depth}", schedule[-1]
        else:
            max_rounds(self.epsilon)
            check_alpha(self.alpha)
            knob, iterates = f"epsilon = {self.epsilon:g}", _max_power(self.epsilon)
        try:
            backend.check_work(oracle, iterates)
        except ValueError as exc:
            raise ValueError(f"{knob}: {exc}") from None

    def oracle(self) -> OracleSpec:
        return OracleSpec.from_amplitude(self.qubits, self.a_true)


@dataclass(frozen=True)
class SummaryRow:
    """Per-cell statistics.  ``capped`` counts repetitions that hit the
    iteration cap and ``collapsed`` IQAE runs whose interval collapsed
    (``IqaeReport.collapse_round``); neither is part of the CSV schema."""

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
    collapsed: int = 0


#: the 12 statistics after ``shots``, in column order; the last two
#: fields, ``capped`` and ``collapsed``, stay outside the CSV
_CSV_FIELDS = tuple(field.name for field in fields(SummaryRow))[1:-2]
CSV_HEADER = ",".join(("shots",) + _CSV_FIELDS)


def derive_rng(
    base_seed: int, algorithm: str, shots: int, repetition: int
) -> np.random.Generator:
    """Deterministic per-repetition generator, independent across repetitions.

    The four coordinates feed a SeedSequence entropy pool, so streams are
    reproducible across processes and changing one repetition's draw never
    perturbs another's.  This is the definition of every sweep's streams;
    :func:`derive_rngs` builds the same generators a cell at a time.
    """
    if algorithm not in _ALGORITHM_IDS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    seq = np.random.SeedSequence(
        [base_seed, _ALGORITHM_IDS[algorithm], shots, repetition]
    )
    return np.random.default_rng(seq)


def derive_rngs(
    base_seed: int, algorithm: str, shots: int, repetitions: int
) -> Iterator[np.random.Generator]:
    """The generators of repetitions 0, 1, ..., repetitions - 1 of one cell.

    Each has the PCG64 state that ``derive_rng(base_seed, algorithm, shots,
    r)`` gives, so it draws the same stream.  A cell of fewer than
    ``_BATCHED_FROM`` repetitions gets ``derive_rng``'s own generators;
    otherwise SeedSequence's hash runs for up to 2**14 repetitions at once
    on uint32 arrays.  Either way each generator is built only when the
    iteration reaches it, and bad arguments raise at the call.
    """
    if algorithm not in _ALGORITHM_IDS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if repetitions < 0:
        raise ValueError("expected non-negative integer")
    # raises on a negative seed or shot count, as derive_rng would at its call
    head = _words(base_seed) + [_ALGORITHM_IDS[algorithm]] + _words(shots)
    if repetitions < _BATCHED_FROM:
        return (derive_rng(base_seed, algorithm, shots, r) for r in range(repetitions))
    return _batched_rngs((base_seed, _ALGORITHM_IDS[algorithm], shots), head, repetitions)


# numpy.random.SeedSequence (O'Neill's seed_seq_fe) with its default pool
# of four 32-bit words, as numpy's random/bit_generator.pyx defines it
_POOL = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
#: repetitions seeded per batch: a power of two that divides 2**32, so the
#: repetition numbers of a batch differ only in their lowest 32-bit word
_BATCH = 1 << 14
#: the fewest repetitions whose cell is seeded by the batched hash.  Timed
#: with timeit (2-CPU x86-64 Xeon VM, Python 3.11.7, numpy 2.4.6), a cell's
#: generators take 62-72 us batched at 1-8 repetitions and 14 us each from
#: ``derive_rng``, which is cheaper up to 4 repetitions and about even at 5
_BATCHED_FROM = 5


def _words(n: int) -> list[int]:
    """``n`` in 32-bit words, least significant first, as SeedSequence splits it."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value, hash_const: list):
    """SeedSequence's hashmix; advances ``hash_const[0]`` as the C code does."""
    value = value ^ hash_const[0]
    hash_const[0] *= _MULT_A
    value = value * hash_const[0]
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    """SeedSequence's mix of a hashed word ``y`` into pool word ``x``."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _batch_seeds(head: list[int], first: int, count: int) -> np.ndarray:
    """``SeedSequence(head + words(r)).generate_state(4, np.uint64)`` for
    r = first, ..., first + count - 1 at once, as a (count, 4) array.

    ``head`` holds at least three 32-bit words; in the range only r's lowest
    word may vary.  The words every r shares are uint32 scalars and r's
    lowest word is a uint32 array, so each hash step below is
    ``mix_entropy``'s or ``generate_state``'s statement for all r at once.
    """
    low = first & _MASK32
    high = _words(first >> 32) if first >> 32 else []
    entropy = [np.uint32(w) for w in head]
    entropy.append(np.arange(low, low + count, dtype=np.uint32))
    entropy += [np.uint32(w) for w in high]
    # uint32 arithmetic wraps, as in C; numpy warns when a scalar does
    with np.errstate(over="ignore"):
        # mix_entropy; the entropy has at least _POOL words
        hash_const = [_INIT_A]
        mixer = [_hashmix(entropy[i], hash_const) for i in range(_POOL)]
        for i_src in range(_POOL):
            for i_dst in range(_POOL):
                if i_src != i_dst:
                    mixer[i_dst] = _mix(mixer[i_dst], _hashmix(mixer[i_src], hash_const))
        for i_src in range(_POOL, len(entropy)):
            for i_dst in range(_POOL):
                mixer[i_dst] = _mix(mixer[i_dst], _hashmix(entropy[i_src], hash_const))
        # generate_state(4, np.uint64): 8 uint32 words, cycling over the pool
        hash_const = _INIT_B
        state = np.empty((count, 2 * _POOL), dtype=np.uint32)
        for i_dst in range(2 * _POOL):
            data_val = mixer[i_dst % _POOL] ^ hash_const
            hash_const *= _MULT_B
            data_val = data_val * hash_const
            state[:, i_dst] = data_val ^ (data_val >> _XSHIFT)
    # generate_state pairs its uint32 words into uint64 ones little-endian
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _PresetSeed(tuple, ISpawnableSeedSequence):
    """``(words, cell, repetition)``: hands PCG64 the four uint64 state
    words computed for it in advance, and spawns as ``derive_rng``'s
    generator does.  The first :meth:`spawn` builds that generator's
    ``SeedSequence(cell + (repetition,))`` and every spawn is delegated to
    it, so the children and their count match.  One is built per
    repetition, and a tuple is built in C with no Python ``__init__``.
    """

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        words = self[0]
        if (n_words, dtype) != (len(words), np.uint64):
            raise ValueError(f"holds {len(words)} uint64 words only")
        return words

    def spawn(self, n_children: int) -> list[np.random.SeedSequence]:
        seq = self.__dict__.get("seq")
        if seq is None:
            seq = self.__dict__["seq"] = np.random.SeedSequence([*self[1], self[2]])
        return seq.spawn(n_children)


def _batched_rngs(cell: tuple[int, int, int], head: list[int],
                  repetitions: int) -> Iterator[np.random.Generator]:
    """The generators of a cell's repetitions; ``cell`` is its (base seed,
    algorithm id, shots) and ``head`` their 32-bit words."""
    for first in range(0, repetitions, _BATCH):
        seeds = _batch_seeds(head, first, min(_BATCH, repetitions - first))
        for repetition, words in enumerate(seeds, first):
            yield np.random.Generator(np.random.PCG64(_PresetSeed((words, cell, repetition))))


def summarize(values) -> tuple[float, ...]:
    """(max, mean, min, population std) along the last axis of non-empty values.

    One sequence gives those four floats; a stack of rows gives four per
    row, in row order, each bit for bit the row's own summary.  Rows of one
    value skip numpy's reductions and take numpy's arithmetic for one
    element in Python floats: its sum starts from 0.0, so -0.0 has mean
    0.0; its std squares the deviation from the mean, so inf or NaN has std
    NaN.  Dividing by a count of one changes no float.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("nothing to summarize")
    if arr.ndim and arr.shape[-1] == 1:
        stats = []
        for value in arr.ravel().tolist():
            mean = 0.0 + value
            deviation = value - mean
            stats += (value, mean, value, math.sqrt(deviation * deviation))
        return tuple(stats)
    stats = np.empty(arr.shape[:-1] + (4,))
    arr.max(-1, out=stats[..., 0])
    arr.mean(-1, out=stats[..., 1])
    arr.min(-1, out=stats[..., 2])
    arr.std(-1, out=stats[..., 3])
    return tuple(stats.ravel().tolist())


def _run_cell(
    config: ExperimentConfig,
    oracle: OracleSpec | None,
    backend: Backend | None,
    shots: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """One cell as columns over its repetitions, in order: the estimates and
    the oracle calls (as floats); then how many repetitions hit the cap and
    how many collapsed.

    ``oracle`` and ``backend`` are the sweep's, unused (None) for MCI.  An
    MCI cell is one ``run_mci`` call over the cell's generators.  Otherwise
    the columns are read from one list of run reports: MLQAE draws every
    repetition's records and maximizes their likelihoods together; IQAE
    calls ``run_iqae`` once per repetition, and a capped run adds the
    partial report its ``IterationCapError`` carries.
    """
    reps = config.repetitions
    rngs = derive_rngs(config.base_seed, config.algorithm, shots, reps)
    if config.algorithm == "mci":
        estimates = run_mci(MciConfig(config.a_true, shots, reps), rng=rngs)
        return estimates, np.full(reps, float(shots)), 0, 0
    capped = collapsed = 0
    if config.algorithm == "mlqae":
        reports = run_mlqae_cell(
            oracle, config.depth, shots, kind=config.schedule, backend=backend, rngs=rngs
        )
    else:
        reports = []
        for rng in rngs:
            try:
                report = run_iqae(
                    oracle, config.epsilon, config.alpha, shots, backend=backend, rng=rng
                )
            except IterationCapError as exc:
                report = exc.report
                capped += 1
            reports.append(report)
        collapsed = sum(report.collapse_round is not None for report in reports)
    estimates = np.array([report.a_hat for report in reports])
    calls = np.array([report.oracle_calls for report in reports], dtype=float)
    return estimates, calls, capped, collapsed


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
        estimates, calls, capped, collapsed = _run_cell(config, oracle, backend, shots)
        errors = 100.0 * np.abs(estimates - config.a_true) / config.a_true
        stats = summarize(np.array([estimates, errors, calls]))
        rows.append(SummaryRow(shots, *stats, capped=capped, collapsed=collapsed))
    return rows


def emit_csv(rows, stream) -> None:
    """Write the 13-column summary table (floats at six significant digits)."""
    stream.write(CSV_HEADER + "\n")
    for row in rows:
        cells = [str(row.shots)]
        cells += [f"{getattr(row, name):.6g}" for name in _CSV_FIELDS]
        stream.write(",".join(cells) + "\n")


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
