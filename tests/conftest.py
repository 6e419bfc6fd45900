from hypothesis import settings

# The same examples on every run, no example database, and no wall-clock
# deadline: property tests share a slow machine with the rest of the suite.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
