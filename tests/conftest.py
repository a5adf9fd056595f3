"""Session set-up shared by every test module.

Hypothesis writes a failing example's report through
``hypothesis.extra._patching``, which imports ``libcst`` on first use; where
``libcst`` is installed (it is not in the ``test`` extra), that import warns
``DeprecationWarning`` from its own dependencies, which ``pytest -W error``
turns into an INTERNALERROR that hides the report.  Importing the module once
here, with only that import's deprecation warnings ignored, leaves every
warning that ``opr`` raises to the ``-W`` filter.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed
        pass
