"""Lorentz-group algebra of two-beam interferometers.

Jones vectors, coherency matrices and Stokes four-vectors; unimodular
2x2 optical elements and their induced 4x4 Stokes transforms; state
classification and little-group matrices; decoherence maps and the
reduced 2x2 factorizations; a small circuit DSL with an evaluator and
a command line front end.

Submodules are registered at import and run on first attribute access,
under one lock: a thread that reads a module another thread is running
waits until it has run.
"""

import importlib.util
import sys
import threading
import types

_RUN_LOCK, _RUNNING = threading.RLock(), set()
_get = types.ModuleType.__getattribute__


class _LazyModule(types.ModuleType):
    def __getattribute__(self, name):
        with _RUN_LOCK:
            # The running thread, and the module's own imports in it, see
            # the module as it is so far, as in any circular import.
            if type(self) is _LazyModule and self not in _RUNNING:
                _RUNNING.add(self)
                _get(self, "__spec__").loader.exec_module(self)
                self.__class__ = types.ModuleType
        return _get(self, name)


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    return module


_MODULES = tuple(map(_lazy, ("states", "elements", "littlegroup", "decoherence", "circuit")))
states, elements, littlegroup, decoherence, circuit = _MODULES


def __getattr__(name):
    # The package re-exports each module's __all__ (tests/test_exports.py
    # checks that every name resolves); a star import reads __all__ here.
    if name == "__all__":
        return [public for module in _MODULES for public in module.__all__]
    if name == "MINKOWSKI":  # not in __all__: states builds it, with numpy, on first use
        return states.MINKOWSKI
    for module in _MODULES:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module 'twobeam' has no attribute {name!r}")


__version__ = "0.1.0"
