"""Shared test configuration.

Every hypothesis property runs under one profile: derandomized, so a failing
example reproduces on rerun, and with no deadline, so timing noise on a
loaded machine cannot fail an example.  Each test keeps its own
``max_examples``.

numpy's ``ComplexWarning``, raised where an imaginary part is silently
dropped, is an error in every test.  It moved to ``numpy.exceptions`` in
numpy 1.25, so the filter names the class where the installed numpy has it.
``RuntimeWarning`` (a division by zero or an invalid value, which would
otherwise leave a NaN or an infinite Newton step), ``DeprecationWarning`` and
``FutureWarning`` are errors too, through ``filterwarnings`` in
``pyproject.toml``; their names do not depend on the numpy version.
"""

import numpy as np
from hypothesis import settings

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy < 1.25
    ComplexWarning = np.ComplexWarning

settings.register_profile("symtomo", derandomize=True, deadline=None)
settings.load_profile("symtomo")


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", f"error::{ComplexWarning.__module__}.{ComplexWarning.__name__}")
