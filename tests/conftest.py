"""Test-session settings: every hypothesis property test draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
