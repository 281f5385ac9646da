"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 iteration cap reached.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .bench import (
    ExperimentConfig,
    ReproduceCapError,
    emit_csv,
    run_sweep,
    run_table,
)
from .core import BACKENDS, Backend, OracleSpec, check_shots, make_backend
from .iqae import (
    ConfidenceBoundError,
    IterationCapError,
    check_alpha,
    max_rounds,
    run_iqae,
)
from .mci import MciConfig, run_mci
from .mlqae import make_schedule, run_mlqae
from .verify import run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_ITERATION_CAP = 3


class UsageError(Exception):
    """Bad flags, bad flag values, or a malformed config file."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _oracle(args) -> OracleSpec:
    try:
        return OracleSpec.from_amplitude(args.qubits, args.a)
    except ValueError as exc:
        flag = "--qubits" if args.qubits < 1 else "--a"
        raise UsageError(f"{flag}: {exc}") from None


def _checked(flag: str, check, *args, **kwargs):
    """Call an argument check or open a file; its ValueError or OSError names ``flag``."""
    try:
        return check(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _rng(args) -> np.random.Generator:
    return _checked("--seed", np.random.default_rng, args.seed)


def _backend(args, oracle: OracleSpec) -> Backend:
    backend = make_backend(args.backend)
    _checked("--qubits", backend.check_oracle, oracle)
    return backend


def _cmd_mlqae(args) -> int:
    oracle = _oracle(args)
    backend = _backend(args, oracle)
    _checked("--m", make_schedule, args.schedule, args.m)
    _checked("--shots", check_shots, args.shots)
    rng = _rng(args)
    report = run_mlqae(
        oracle, args.m, args.shots, kind=args.schedule, backend=backend, rng=rng,
    )
    print("a_hat,theta_hat,oracle_calls,log_likelihood")
    print(
        f"{report.a_hat:.10g},{report.theta_hat:.10g},"
        f"{report.oracle_calls},{report.log_likelihood_at_max:.10g}"
    )
    print(
        f"mlqae: a_hat = {report.a_hat:.10g} (theta_hat = {report.theta_hat:.10g} rad), "
        f"oracle calls = {report.oracle_calls}, schedule = {args.schedule} m={args.m}, "
        f"shots = {args.shots}, backend = {args.backend}"
    )
    return EXIT_OK


def _print_iqae(report, args) -> None:
    if args.trace:
        for i, rnd in enumerate(report.rounds, 1):
            plane = "upper" if rnd.half_turn % 2 == 0 else "lower"
            print(
                f"round {i}: k={rnd.k} half_plane={plane} "
                f"shots={rnd.shots} hits={rnd.hits} "
                f"theta=[{rnd.interval_after.theta_lo:.10g},"
                f"{rnd.interval_after.theta_hi:.10g}]"
            )
    print("a_hat,a_lo,a_hi,oracle_calls,rounds")
    print(
        f"{report.a_hat:.10g},{report.a_lo:.10g},{report.a_hi:.10g},"
        f"{report.oracle_calls},{len(report.rounds)}"
    )
    print(
        f"iqae: a_hat = {report.a_hat:.10g} in [{report.a_lo:.10g}, {report.a_hi:.10g}] "
        f"({100 * (1 - report.alpha):g}% confidence), oracle calls = {report.oracle_calls}, "
        f"rounds = {len(report.rounds)}, epsilon = {report.epsilon:g}, "
        f"shots = {args.shots}/round, backend = {args.backend}"
    )


def _cmd_iqae(args) -> int:
    oracle = _oracle(args)
    backend = _backend(args, oracle)
    _checked("--epsilon", max_rounds, args.epsilon)
    _checked("--alpha", check_alpha, args.alpha)
    _checked("--shots", check_shots, args.shots)
    rng = _rng(args)
    try:
        report = run_iqae(
            oracle, args.epsilon, args.alpha, args.shots, backend=backend, rng=rng,
        )
    except IterationCapError as exc:
        _print_iqae(exc.report, args)
        print(f"iqae: {exc}", file=sys.stderr)
        return EXIT_ITERATION_CAP
    except ConfidenceBoundError as exc:
        raise UsageError(f"--alpha: {exc}") from None
    _print_iqae(report, args)
    if report.collapse_round is not None:
        print(
            f"iqae: round {report.collapse_round}'s interval was disjoint from the "
            "running one, so the run stopped on a zero-width interval",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_mci(args) -> int:
    # start from a valid config and set one flag at a time, so that
    # MciConfig's own check of that field is the one that can fail
    config = MciConfig(0.0, 1, 1)
    for flag, field, value in (
        ("--a", "a_true", args.a),
        ("--samples", "samples", args.samples),
        ("--reps", "repetitions", args.reps),
    ):
        config = _checked(flag, dataclasses.replace, config, **{field: value})
    estimates = run_mci(config, rng=_rng(args))
    mean_a = float(estimates.mean())
    std_a = float(estimates.std())
    if args.a > 0:
        errors = 100.0 * np.abs(estimates - args.a) / args.a
        mean_err, max_err = float(errors.mean()), float(errors.max())
        err_text = f"{mean_err:.10g},{max_err:.10g}"
        err_human = f", mean rel err = {mean_err:.4g}% (max {max_err:.4g}%)"
    else:
        err_text = "nan,nan"
        err_human = ""
    print("samples,reps,mean_a,std_a,mean_err_pct,max_err_pct")
    print(f"{args.samples},{args.reps},{mean_a:.10g},{std_a:.10g},{err_text}")
    print(
        f"mci: mean a = {mean_a:.10g} (std {std_a:.4g}) over {args.reps} "
        f"runs of {args.samples} samples{err_human}"
    )
    return EXIT_OK


_CONFIG_KEYS = {
    # key in file -> (ExperimentConfig field, converter)
    "algorithm": ("algorithm", str),
    "qubits": ("qubits", int),
    "a": ("a_true", float),
    "shots": ("shots_list", lambda text: tuple(int(tok) for tok in text.split(","))),
    "reps": ("repetitions", int),
    "seed": ("base_seed", int),
    "backend": ("backend", str),
    "m": ("depth", int),
    "schedule": ("schedule", str),
    "epsilon": ("epsilon", float),
    "alpha": ("alpha", float),
}


def parse_config_file(path) -> ExperimentConfig:
    """Flat ``key = value`` file with ``#`` comments; see _CONFIG_KEYS."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, object] = {}
    first_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            known = ", ".join(sorted(_CONFIG_KEYS))
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} (known: {known})")
        if key in first_lines:
            raise UsageError(
                f"{path}:{lineno}: duplicate key {key!r} (first on line {first_lines[key]})"
            )
        first_lines[key] = lineno
        if not value:
            raise UsageError(f"{path}:{lineno}: empty value for {key!r}")
        field, convert = _CONFIG_KEYS[key]
        try:
            values[field] = convert(value)
        except ValueError:
            raise UsageError(
                f"{path}:{lineno}: bad value {value!r} for {key!r}"
            ) from None
    if "algorithm" not in values:
        raise UsageError(f"{path}: missing required key 'algorithm'")
    try:
        return ExperimentConfig(**values)  # type: ignore[arg-type]
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _cmd_sweep(args) -> int:
    config = parse_config_file(args.config)
    if args.out:
        # a path that cannot be written fails before the sweep runs; appending
        # nothing keeps an existing file as it was if the sweep then fails, and
        # a file the probe created goes at once, so a failed sweep leaves none
        existed = os.path.lexists(args.out)
        _checked("--out", open, args.out, "a").close()
        if not existed:
            os.remove(args.out)
    try:
        rows = run_sweep(config)
    except ConfidenceBoundError as exc:
        raise UsageError(f"{args.config}: alpha: {exc}") from None
    with (_checked("--out", open, args.out, "w", encoding="utf-8", newline="\n")
          if args.out else nullcontext(sys.stdout)) as fh:
        emit_csv(rows, fh)
    if args.out:
        print(f"wrote {args.out}")
    collapsed = sum(row.collapsed for row in rows)
    if collapsed:
        print(
            f"sweep: {collapsed} IQAE runs stopped on a zero-width interval "
            "after a disjoint round; their estimates are included",
            file=sys.stderr,
        )
    capped = sum(row.capped for row in rows)
    if capped:
        print(
            f"sweep: {capped} repetitions hit the iteration cap; "
            "their partial estimates are included",
            file=sys.stderr,
        )
        return EXIT_ITERATION_CAP
    return EXIT_OK


def _cmd_verify(args) -> int:
    failed = 0
    results = run_checks()
    for res in results:
        tag = "ok  " if res.passed else "FAIL"
        print(f"{tag} {res.name}: {res.detail}")
        if not res.passed:
            failed += 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return EXIT_VERIFY_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    try:
        paths = run_table(args.table, args.out)
    except ReproduceCapError as exc:
        print(f"reproduce: {exc}", file=sys.stderr)
        return EXIT_ITERATION_CAP
    except OSError as exc:
        raise UsageError(f"--out: {exc}") from None
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qaelab",
        description="Amplitude estimation lab: MLQAE, IQAE, a hit-or-miss "
        "baseline, and a reproducible benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    sub.required = True

    def add_oracle_flags(p):
        p.add_argument("--qubits", type=int, required=True,
                       help="number of domain qubits n")
        p.add_argument("--a", type=float, required=True,
                       help="true amplitude; a * 2**qubits must be an integer")

    def add_backend_flag(p):
        p.add_argument("--backend", choices=tuple(BACKENDS), default="analytic",
                       help="probability source (default: analytic)")

    p = sub.add_parser("mlqae", help="maximum-likelihood estimation over a power ladder")
    add_oracle_flags(p)
    p.add_argument("--m", type=int, required=True,
                   help="number of amplified circuits beyond the zero-power one")
    p.add_argument("--shots", type=int, required=True, help="shots per circuit")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--schedule", choices=("eis", "lis"), default="eis",
                   help="power spacing (default: eis)")
    add_backend_flag(p)
    p.set_defaults(func=_cmd_mlqae)

    p = sub.add_parser("iqae", help="iterative estimation with confidence intervals")
    add_oracle_flags(p)
    p.add_argument("--epsilon", type=float, required=True,
                   help="target half-width of the amplitude interval")
    p.add_argument("--alpha", type=float, required=True,
                   help="overall confidence budget (e.g. 0.05)")
    p.add_argument("--shots", type=int, required=True, help="shots per round")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--trace", action="store_true",
                   help="print one line per round before the summary")
    add_backend_flag(p)
    p.set_defaults(func=_cmd_iqae)

    p = sub.add_parser("mci", help="classical hit-or-miss baseline")
    p.add_argument("--a", type=float, required=True, help="true amplitude in [0, 1]")
    p.add_argument("--samples", type=int, required=True, help="points per repetition")
    p.add_argument("--reps", type=int, required=True, help="number of repetitions")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.set_defaults(func=_cmd_mci)

    p = sub.add_parser("sweep", help="run a benchmark sweep from a config file")
    p.add_argument("--config", required=True,
                   help="flat 'key = value' file with '#' comments")
    p.add_argument("--out", help="CSV destination (default: stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the brute-force cross-check suite")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reproduce", help="rerun a reference benchmark table")
    p.add_argument("--table", type=int, required=True, choices=range(1, 9),
                   metavar="{1..8}", help="which table to reproduce")
    p.add_argument("--out", required=True, help="directory for the CSV output")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"qaelab: error: {exc}", file=sys.stderr)
        print("try 'qaelab --help' or 'qaelab COMMAND --help'", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
