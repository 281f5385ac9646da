"""Tests for the package namespace: it re-exports each module's ``__all__``."""

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
