"""The one assertion behind every pinned sha256 digest in the suite.

A digest holds the exact bits of a CSV or of printed output, and those bits
depend on the environment as well as on the code: numpy's binomial stream,
scipy's ``betaincinv`` and the SIMD loops of numpy's sums may all move a last
bit between releases or CPUs.  So a mismatch names the environment the
digests were recorded in next to the running one, and says which moved.
"""

import hashlib
import importlib.metadata
import platform

#: the environment every pinned digest was recorded in
RECORDED = "Python 3.11.7, numpy 2.4.6, scipy 1.17.1, x86-64 AVX-512"


def _cpu_features() -> str:
    """numpy's names for the SIMD features of the running CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return " ".join(name for name, present in __cpu_features__.items() if present)


def running_environment() -> str:
    """Python, numpy and scipy versions, machine and CPU features, as one line."""
    version = importlib.metadata.version
    return (f"Python {platform.python_version()}, numpy {version('numpy')}, "
            f"scipy {version('scipy')}, {platform.machine()} [{_cpu_features()}]")


def assert_sha256(data, want: str, label: str) -> None:
    """Assert that ``data`` (bytes, or text taken as UTF-8) has sha256 ``want``."""
    if isinstance(data, str):
        data = data.encode()
    got = hashlib.sha256(data).hexdigest()
    assert got == want, (
        f"{label}: sha256 {got}, pinned {want}\n"
        f"  recorded under {RECORDED}\n"
        f"  running under  {running_environment()}\n"
        "  if these differ, the environment may have moved the bits, not the code"
    )
