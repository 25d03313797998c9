"""Shared test settings: property tests run on a fixed example sequence, so
every Tier-1 run checks the same inputs and takes the same time, and a
failing property reports its example under ``-W error`` too."""

import contextlib
import sys
import warnings

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.load_profile("tier1")


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Import libcst with its DeprecationWarnings silenced once a test fails:
    hypothesis's report hook imports it next, to write the failing example's
    patch, and under ``-W error`` those warnings would end the run as an
    INTERNALERROR that hides the example."""
    if call.excinfo is not None and "libcst" not in sys.modules:
        with warnings.catch_warnings(), contextlib.suppress(ImportError):
            warnings.simplefilter("ignore", DeprecationWarning)
            import libcst  # noqa: F401
