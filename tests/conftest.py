"""Shared test configuration.

Every hypothesis property runs under one profile: derandomized, so a failing
example reproduces on rerun, and with no deadline, so timing noise on a
loaded machine cannot fail an example.  Each test keeps its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("symtomo", derandomize=True, deadline=None)
settings.load_profile("symtomo")
