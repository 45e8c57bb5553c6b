from hypothesis import settings

# Tier-1 is a gate: every run draws the same examples, and no example
# database carries state from one run to the next.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
