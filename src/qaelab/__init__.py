"""qaelab: a matrix-free amplitude estimation laboratory.

Core pieces:

* :mod:`qaelab.core` — statevector kernel for the amplification iterate,
  plus analytic and statevector measurement backends;
* :mod:`qaelab.mlqae` — maximum-likelihood estimation over a power ladder;
* :mod:`qaelab.iqae` — iterative estimation with exact binomial intervals;
* :mod:`qaelab.mci` — classical hit-or-miss baseline;
* :mod:`qaelab.bench` — seeded sweeps, CSV emission, reference tables;
* :mod:`qaelab.verify` — brute-force cross-checks behind ``qaelab verify``.
"""

from .core import (
    AnalyticBackend,
    Backend,
    OracleSpec,
    StatevectorBackend,
    analytic_flag_probability,
    apply_q,
    make_backend,
    measure_flag,
    prepare_a,
)
from .mlqae import (
    MeasurementRecord,
    MlqaeReport,
    log_likelihood,
    make_schedule,
    maximize_likelihood,
    maximize_likelihoods,
    oracle_call_count,
    run_mlqae,
    run_mlqae_cell,
)
from .iqae import (
    ConfidenceBoundError,
    ConfidenceInterval,
    IqaeReport,
    IterationCapError,
    RoundRecord,
    binomial_confidence,
    find_next_k,
    invert_to_theta,
    max_rounds,
    run_iqae,
)
from .mci import MciConfig, run_mci
from .bench import (
    CSV_HEADER,
    ExperimentConfig,
    SummaryRow,
    derive_rng,
    derive_rngs,
    emit_csv,
    run_sweep,
    run_table,
    summarize,
    table_configs,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticBackend",
    "Backend",
    "OracleSpec",
    "StatevectorBackend",
    "analytic_flag_probability",
    "apply_q",
    "make_backend",
    "measure_flag",
    "prepare_a",
    "MeasurementRecord",
    "MlqaeReport",
    "log_likelihood",
    "make_schedule",
    "maximize_likelihood",
    "maximize_likelihoods",
    "oracle_call_count",
    "run_mlqae",
    "run_mlqae_cell",
    "ConfidenceBoundError",
    "ConfidenceInterval",
    "IqaeReport",
    "IterationCapError",
    "RoundRecord",
    "binomial_confidence",
    "find_next_k",
    "invert_to_theta",
    "max_rounds",
    "run_iqae",
    "MciConfig",
    "run_mci",
    "CSV_HEADER",
    "ExperimentConfig",
    "SummaryRow",
    "derive_rng",
    "derive_rngs",
    "emit_csv",
    "run_sweep",
    "run_table",
    "summarize",
    "table_configs",
    "__version__",
]
