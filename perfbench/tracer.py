"""Span tracer for the twobeam layers, installed from outside the package.

Nothing under src/ knows about tracing. `instrument` rebinds every
module-global reference to a traced function in the twobeam package
namespaces (circuit.py and cli.py import with `from .states import ...`,
so patching only the defining module would miss their calls) and
replaces `__post_init__` on the validated state classes. It restores
every binding on exit, so untraced runs execute the original objects.

Spans stay in memory in flat arrays and are written out with `dump`
when the run ends. A span's self time is its duration minus the
durations of its direct children; in one thread the children of a
span never overlap, so their sum is the time they cover.
"""

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, function) pairs, named in metrics as "<module>.<function>".
FUNCTIONS = (
    ("circuit", "parse"),
    ("circuit", "evaluate"),
    ("circuit", "unparse"),
    ("states", "conjugate"),
    ("states", "coherency_from_stokes"),
    ("states", "stokes_from_coherency"),
    ("states", "purity_report"),
    ("states", "lift"),
    ("elements", "rotator"),
    ("elements", "phase_shifter"),
    ("elements", "squeezer"),
    ("elements", "attenuator"),
    ("elements", "rotator4"),
    ("elements", "phase4"),
    ("elements", "squeeze4"),
    ("littlegroup", "classify"),
    ("littlegroup", "standardize"),
    ("littlegroup", "closed_form_family"),
    ("littlegroup", "conjugated_rotation"),
    ("decoherence", "decohere_channel"),
    ("decoherence", "iwasawa_decompose"),
    ("decoherence", "wigner_decompose"),
    ("cli", "main"),
)

# states classes whose __post_init__ is timed as "states.<Class>.validate".
VALIDATORS = ("CoherencyMatrix", "StokesVector", "Element2", "JonesVector", "Transform4")

# Root span of one benchmark operation; its self time is not a layer.
OP = "op"

LAYER_NAMES = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + tuple(
    f"states.{c}.validate" for c in VALIDATORS
)


class Tracer:
    """In-memory span store: name, start, end, parent span and op id."""

    def __init__(self):
        self.names = [OP]
        self._ids = {OP: 0}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """Return fn recording one span per call under `name`."""
        idx = self._name_id(name)
        start, end, names, parents, ops, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = len(start)
            names.append(idx)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) as operation op_id under a root span."""
        self.op_id = op_id
        try:
            return self.wrap(OP, fn)(*args)
        finally:
            self.op_id = -1

    def absorb(self, names, start, end, name, parent, op_id):
        """Append spans recorded elsewhere (a child process) as op op_id."""
        base = len(self.start)
        remap = np.array([self._name_id(n) for n in names], dtype=np.int32)
        parent = np.asarray(parent, dtype=np.int32)
        self.start.extend(np.asarray(start, dtype=float))
        self.end.extend(np.asarray(end, dtype=float))
        self.name.extend(remap[np.asarray(name, dtype=np.int32)])
        self.parent.extend(np.where(parent >= 0, parent + base, -1).astype(np.int32))
        self.op.extend(np.full(len(parent), op_id, dtype=np.int32))

    def arrays(self):
        return {
            "names": np.array(self.names),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def dump(self, path):
        with open(path, "wb") as fh:
            np.savez(fh, **self.arrays())

    def totals(self):
        """{name: (calls, self seconds)} summed over every span."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent = a["parent"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        selfs = np.bincount(a["name"], weights=self_time, minlength=k)
        return {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(self.names)}


def _package_modules():
    return [
        m
        for n, m in sorted(sys.modules.items())
        if m is not None and (n == "twobeam" or n.startswith("twobeam."))
    ]


@contextmanager
def instrument(tracer):
    """Route every listed twobeam function and validator through tracer."""
    import twobeam.cli  # noqa: F401  (loads every module that holds a reference)

    modules = _package_modules()
    patches = []
    try:
        for mod, fn in FUNCTIONS:
            original = getattr(sys.modules[f"twobeam.{mod}"], fn)
            wrapped = tracer.wrap(f"{mod}.{fn}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        patches.append((m, key, original))
                        setattr(m, key, wrapped)
        states = sys.modules["twobeam.states"]
        for cls_name in VALIDATORS:
            cls = getattr(states, cls_name)
            original = cls.__dict__["__post_init__"]
            patches.append((cls, "__post_init__", original))
            cls.__post_init__ = tracer.wrap(f"states.{cls_name}.validate", original)
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)
