"""Test-suite settings: Hypothesis draws the same examples on every run, so
the property tests are as repeatable as the fixed-seed ones."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
