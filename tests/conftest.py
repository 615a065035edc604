import os

from hypothesis import HealthCheck, settings

SETTINGS = {"deadline": None, "suppress_health_check": [HealthCheck.too_slow]}

settings.register_profile("default", **SETTINGS)
# CI (GitHub sets CI) draws the same examples on every run, so a failure
# there reproduces locally with CI=1.
settings.register_profile("ci", derandomize=True, **SETTINGS)
settings.load_profile("ci" if os.environ.get("CI") else "default")
