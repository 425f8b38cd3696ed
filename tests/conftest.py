"""Shared test settings.

Property tests draw the same examples on every run and carry no
per-example deadline, so a slow or loaded host changes how long the
suite takes but not whether it passes.
"""

from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("tier1")
