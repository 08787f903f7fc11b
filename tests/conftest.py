"""Test-session settings.

Property tests run a fixed example sequence with no time limit per example:
timings on a loaded machine vary too much for a deadline, and a fixed
sequence keeps every run of the suite reproducible.
"""

from hypothesis import settings

settings.register_profile("dnsamp", deadline=None, derandomize=True, database=None,
                          max_examples=60)
settings.load_profile("dnsamp")
