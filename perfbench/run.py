"""qaelab benchmark: run one workload and print its metrics as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload mlqae_tables --seed 1729 --seconds 18 --trace 0

It imports qaelab from ``src/`` beside this directory, checks every output,
and prints info lines followed by one JSON result line.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` adds a traced pass and
reports the per-layer metrics instead, writing the spans to
``.bench_out/``.  ``--selftest`` checks the harness itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _emit(line: dict) -> None:
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qaelab" / "__init__.py").is_file():
        print(f"error: no qaelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import harness

    if args.selftest:
        from perfbench import selftest

        return selftest.main()
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    sweeps = harness.workload(args.workload, args.seed)
    if args.setup_probe:
        harness.warm_up(sweeps)
        return 0

    _emit({"machine": harness.machine_facts(sweeps)})
    if not args.trace:
        setup_s = harness.fresh_process_seconds([
            sys.executable, __file__, "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)])

    captured = harness.capture_pass(sweeps)
    untraced = harness.run_phase(sweeps, args.seconds)
    phases = [untraced]
    rate, wall_rate = untraced.runs_per_s(sweeps)
    if args.trace:
        tracer = harness.Tracer()
        with tracer.installed():
            phases.append(harness.run_phase(sweeps, 0.0))
    checks = [harness.check_sweep(sweep, captured.get(sweep.name), phases)
              for sweep in sweeps]
    for check in checks:
        _emit({"sweep": check.sweep.name, "runs": check.sweep.runs,
               "csv_sha256": check.digest, "problems": check.problems[:5]})
    _emit({"wall_runs_per_s": wall_rate, "cell_seconds": {f"{name}@{shots}": times
                            for (name, shots), times in untraced.wall.items()}})
    attempted = sum(phase.attempted for phase in phases)
    attempted += sum(len(log) for _, log in captured.values())
    failed = sum(check.failed for check in checks)

    if args.trace:
        traced_rate = phases[1].runs_per_s(sweeps)[0]
        values = harness.layer_metrics(tracer)
        values["cli.import_s"] = harness.fresh_process_seconds([
            sys.executable, "-c",
            f"import sys; sys.path.insert(0, {str(SRC)!r}); import qaelab.cli"])
        values["trace.untraced_runs_per_s"] = rate
        values["trace.traced_runs_per_s"] = traced_rate
        values["trace.overhead_pct"] = 100.0 * (rate / traced_rate - 1.0)
        layer, share = harness.dominant_layer(tracer)
        _emit({"dominant_layer": layer, "self_time_share_pct": share})
        out = ROOT / ".bench_out" / f"trace_{args.workload}_{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": tracer.spans, "counts": dict(tracer.counts),
            "layers": tracer.layer_totals(), "metrics": values,
        }))
        units = harness.PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "runs_per_s": rate,
            "oracle_calls_per_run": harness.mean_over_runs(checks, "avg_calls"),
            "err_pct_mean": harness.mean_over_runs(checks, "avg_err_pct"),
            "peak_rss_mb": harness.peak_rss_mb(),
        }
        units = harness.END_TO_END

    _emit({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]} for name in units},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
