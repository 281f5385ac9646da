"""The suite's warning filters, checked on a throwaway test file run by
pytest in a fresh interpreter under this repository's settings."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_property_fails(x):
    assert x < 5


def test_own_deprecation_fails():
    warnings.warn("an old qaelab call", DeprecationWarning)


def test_passes():
    pass
'''


def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    """To report a failing example Hypothesis imports libcst, which raises a
    DeprecationWarning for ``mypy_extensions.TypedDict``; as an error that
    would stop the session with an INTERNALERROR.  Every other deprecation
    still fails its test."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_property_fails(" in out
    assert "FAILED test_probe.py::test_own_deprecation_fails" in out
    assert "2 failed, 1 passed" in out
