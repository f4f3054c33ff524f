"""The warning filters that ``pyproject.toml`` sets for the suite.

A RuntimeWarning (``log2(0)``, ``0/0`` in an array form) fails a test
wherever it is raised. A DeprecationWarning fails one when it is
attributed to a ``gqd`` module, as NumPy attributes its deprecations to
their caller, and stays a warning elsewhere.
"""

import warnings

import numpy as np
import pytest


def warn_from(module: str) -> None:
    warnings.warn_explicit("deprecated call", DeprecationWarning, "caller.py", 1, module=module)


def test_runtime_warning_is_an_error():
    with pytest.raises(RuntimeWarning):
        np.log2(np.zeros(1))


@pytest.mark.parametrize("module", ["gqd", "gqd.qcore", "gqd.measurement"])
def test_deprecation_in_a_gqd_module_is_an_error(module):
    with pytest.raises(DeprecationWarning, match="deprecated call"):
        warn_from(module)


def test_deprecation_elsewhere_stays_a_warning():
    with warnings.catch_warnings(record=True) as caught:
        warn_from(__name__)
    assert [w.category for w in caught] == [DeprecationWarning]
