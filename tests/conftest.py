"""Session settings: hypothesis draws the same examples on every run.

``derandomize`` fixes the examples, ``deadline=None`` keeps slow or busy
machines from failing a property on time alone, and no example database
is written.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
