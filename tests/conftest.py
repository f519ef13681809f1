"""One Hypothesis profile for the test suite: every property is derandomized,
has no deadline and keeps no example database, so a run is repeatable and
leaves nothing behind.  A property sets only its max_examples."""

from hypothesis import settings

settings.register_profile("quadpend", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("quadpend")
