"""Lorentz-group algebra of two-beam interferometers.

Jones vectors, coherency matrices and Stokes four-vectors; unimodular
2x2 optical elements and their induced 4x4 Stokes transforms; state
classification and little-group matrices; decoherence maps and the
reduced 2x2 factorizations; a small circuit DSL with an evaluator and
a command line front end.
"""

# Each module's __all__ is its public surface; the package re-exports
# all of them (tests/test_exports.py checks that every name resolves).
from .states import *  # noqa: F401,F403
from .elements import *  # noqa: F401,F403
from .littlegroup import *  # noqa: F401,F403
from .decoherence import *  # noqa: F401,F403
from .circuit import *  # noqa: F401,F403

from . import states as _states


def __getattr__(name):
    # MINKOWSKI: the states module builds it on first use, once. Nothing
    # else is looked up there: a star import reads __all__ through here.
    if name != "MINKOWSKI":
        raise AttributeError(f"module 'twobeam' has no attribute {name!r}")
    return _states.MINKOWSKI


__version__ = "0.1.0"
