"""Hypothesis settings for the property tests: derandomized, so every run of
the suite draws the same examples, with no per-example deadline (timings on a
shared machine vary) and a bounded number of examples per test."""

from hypothesis import settings

settings.register_profile("suite", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("suite")
