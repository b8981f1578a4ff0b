from hypothesis import settings

# the same examples on every run, and no example database on disk
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
