"""Shared test settings.

Property tests run under one ``hypothesis`` profile: a fixed example
sequence (``derandomize``) and no per-example deadline, so a run is
deterministic and does not fail on a slow or loaded machine, and a bounded
example count keeps the suite's time stable.
"""

from hypothesis import settings

settings.register_profile("koopseed", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("koopseed")
