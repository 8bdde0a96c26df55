"""Hypothesis runs derandomized with a bounded example count, so every
property test draws the same cases on every run and tier-1 stays
deterministic and quick."""

from hypothesis import settings

settings.register_profile(
    "gridwindows", derandomize=True, deadline=None, max_examples=150, database=None
)
settings.load_profile("gridwindows")
