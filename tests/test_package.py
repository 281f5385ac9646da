"""Tests for the package namespace: it re-exports each module's ``__all__``,
and the README's library examples run."""

import re
from pathlib import Path

import qaelab
import qaelab.bench
import qaelab.core
import qaelab.iqae
import qaelab.mci
import qaelab.mlqae

MODULES = (qaelab.core, qaelab.mlqae, qaelab.iqae, qaelab.mci, qaelab.bench)


def test_all_is_the_modules_lists_in_order():
    want = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert qaelab.__all__ == want


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qaelab, name) is getattr(module, name), name


def test_flag_probabilities_come_from_the_backends():
    # the closed form lives in AnalyticBackend alone; the whole-register
    # helpers stay in core, where verify and perfbench's tracer find them,
    # but are not exported
    assert not hasattr(qaelab.core, "analytic_flag_probability")
    for name in ("prepare_a", "apply_q"):
        assert name not in qaelab.__all__, name
        assert callable(getattr(qaelab.core, name)), name


def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    for number, block in enumerate(blocks, 1):
        # each block stands alone, as a reader would paste it
        exec(compile(block, f"README.md python block {number}", "exec"), {})
