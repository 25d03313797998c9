"""Shared test settings: property tests run on a fixed example sequence, so
every Tier-1 run checks the same inputs and takes the same time."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.load_profile("tier1")
