"""The benchmark harness's self-test, run with the rest of the suite.

The harness traces qaelab from outside by rebinding names such as
``bench.ExperimentConfig.oracle``, ``bench.run_mci`` and ``core.prepare_a``,
so renaming or moving one of them fails here, not only in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--selftest"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
