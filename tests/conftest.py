"""Hypothesis draws the same examples on every run.

``derandomize=True`` seeds each property test from its own source, so a
Tier-1 run is repeatable; ``deadline=None`` because table builds make
the first example of a test slow.  A test's own ``@settings(...)``
arguments still override these.
"""

from hypothesis import settings

settings.register_profile("expsum", derandomize=True, deadline=None)
settings.load_profile("expsum")
