from hypothesis import settings

# `pytest --hypothesis-profile=ci` replays the same examples on every run;
# without the option, hypothesis keeps exploring new ones.
settings.register_profile("ci", derandomize=True, deadline=None)
