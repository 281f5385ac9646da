"""The suite's warning filters and strictness, checked on throwaway test
files run by pytest in a fresh interpreter under this repository's
settings."""

import subprocess
import sys
import tomllib
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


def run_probe(tmp_path, source, *options):
    """Run ``source`` as one test file under this repository's settings."""
    (tmp_path / "test_probe.py").write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", *options,
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout + proc.stderr


def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    """To report a failing example Hypothesis imports libcst, which raises a
    DeprecationWarning for ``mypy_extensions.TypedDict``; as an error that
    would stop the session with an INTERNALERROR.  Every other deprecation
    still fails its test."""
    _, out = run_probe(tmp_path, PROBE)
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_property_fails(" in out
    assert "FAILED test_probe.py::test_own_deprecation_fails" in out
    assert "2 failed, 1 passed" in out


def test_unknown_marks_and_ini_keys_are_errors(tmp_path):
    """A misspelt mark would otherwise select or skip nothing, and a
    misspelt ini key would be ignored with a warning.  The settings are ini
    keys: pytest 9.0.3 drops ``--strict-markers`` and ``--strict-config``
    when ``addopts`` gives them."""
    ini = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    ini = ini["tool"]["pytest"]["ini_options"]
    assert ini["strict_markers"] is True and ini["strict_config"] is True
    rc, out = run_probe(tmp_path, "import pytest\n\n\n@pytest.mark.xfial\n"
                                  "def test_misspelt():\n    pass\n")
    assert rc != 0
    assert "'xfial' not found in `markers` configuration option" in out
    rc, out = run_probe(tmp_path, "def test_passes():\n    pass\n",
                        "-o", "xfial_strict=true")
    assert rc != 0
    assert "Unknown config option: xfial_strict" in out
